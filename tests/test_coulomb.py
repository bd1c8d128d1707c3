"""Tests for the planar Coulomb bound states and Sturmian functions."""

import math
import pickle
from fractions import Fraction

import numpy as np
import pytest

from zeeman2d import coulomb
from zeeman2d.coulomb import QuantumState, energy0, eps0
from zeeman2d.exactmath import rational_sqrt
from zeeman2d.greenfn import GreenEvalConfig
from zeeman2d.oracle import _round_bands, fit_field_series
from zeeman2d.perturb import (
    assemble_energy,
    coefficient_set,
    eps1,
    eps2_closed,
    eps2_integral,
    eps4_closed,
    eps4_sturmian,
)

from radial_reference import (
    Laguerre,
    bound_radial,
    brute_force_integral,
    cross_integral,
    moment3_band,
    r2_element_squared,
    sturmian,
)


# Every public entry point that takes level labels (n, l), m_l, a spin
# projection or a charge, each as a call on the one bad input.
LEVEL_ENTRIES = {
    "QuantumState": lambda n, l: QuantumState(n, l, l),
    "eps2_closed": eps2_closed,
    "eps2_integral": eps2_integral,
    "eps4_closed": eps4_closed,
    "eps4_sturmian": eps4_sturmian,
    "coefficient_set/closed_form": lambda n, l: coefficient_set(n, l, "closed_form"),
    "coefficient_set/sturmian_sum": lambda n, l: coefficient_set(n, l, "sturmian_sum"),
    "GreenEvalConfig": lambda n, l: GreenEvalConfig(l=l, level=n),
    "GreenEvalConfig.for_level": GreenEvalConfig.for_level,
}
N_ENTRIES = {"eps0": lambda n, l: eps0(n)}  # takes n alone, so only bad-n inputs apply
M_L_ENTRIES = {
    "QuantumState": lambda m_l: QuantumState(2, 1, m_l),
    "eps1": eps1,
}
SPIN_ENTRIES = {
    "QuantumState": lambda m_s: QuantumState(1, 0, 0, m_s),
    "eps1": lambda m_s: eps1(0, m_s),
}
CHARGE_ENTRIES = {
    "energy0": lambda Z: energy0(QuantumState(2, 0, 0), Z),
    "assemble_energy": lambda Z: assemble_energy(QuantumState(2, 0, 0), Z=Z),
    "fit_field_series": lambda Z: fit_field_series(QuantumState(1, 0, 0), Z),
    "GreenEvalConfig": lambda Z: GreenEvalConfig(l=0, level=1, Z=Z),
    "GreenEvalConfig.for_level": lambda Z: GreenEvalConfig.for_level(1, 0, Z),
}
# The integer count of the oracle's problem, as a call on the one bad input:
# the basis size of the Galerkin configuration (l, Z, basis_size, reference)
# that `_round_bands` assembles, and the one that `fit_field_series` takes.
COUNT_ENTRIES = {
    "GalerkinConfig.basis_size": lambda v: _round_bands(0, Fraction(1), v, Fraction(-1, 2)),
    "fit_field_series.basis_size": lambda v: fit_field_series(QuantumState(1, 0, 0), basis_size=v),
}
NOT_INTEGRAL = "'float' object cannot be interpreted as an integer"
BAD_INPUTS = [
    (LEVEL_ENTRIES | N_ENTRIES, (0, 0), ValueError, "n must satisfy n >= 1"),
    (LEVEL_ENTRIES | N_ENTRIES, (-3, 0), ValueError, "n must satisfy n >= 1"),
    (LEVEL_ENTRIES | N_ENTRIES, (1.5, 0), TypeError, NOT_INTEGRAL),
    (LEVEL_ENTRIES | N_ENTRIES, (2.0, 0), TypeError, NOT_INTEGRAL),
    (LEVEL_ENTRIES, (2, 2), ValueError, "l must satisfy 0 <= l <= n-1"),
    (LEVEL_ENTRIES, (2, -1), ValueError, "l must satisfy 0 <= l <= n-1"),
    (LEVEL_ENTRIES, (2, 0.5), TypeError, NOT_INTEGRAL),
    (M_L_ENTRIES, (1.0,), TypeError, NOT_INTEGRAL),
    (SPIN_ENTRIES, (Fraction(1),), ValueError, "m_s must be +1/2 or -1/2"),
    (SPIN_ENTRIES, (0,), ValueError, "m_s must be +1/2 or -1/2"),
    (SPIN_ENTRIES, (Fraction(-3, 2),), ValueError, "m_s must be +1/2 or -1/2"),
    (CHARGE_ENTRIES, (0,), ValueError, "Z must be positive"),
    (CHARGE_ENTRIES, (Fraction(-1, 2),), ValueError, "Z must be positive"),
    (CHARGE_ENTRIES, (-2,), ValueError, "Z must be positive"),
    (COUNT_ENTRIES, (1.5,), TypeError, NOT_INTEGRAL),
    (COUNT_ENTRIES, (40.0,), TypeError, NOT_INTEGRAL),
]


@pytest.mark.parametrize(
    "call, args, error, message",
    [
        pytest.param(call, args, error, message, id=f"{name}{args}")
        for entries, args, error, message in BAD_INPUTS
        for name, call in entries.items()
    ],
)
def test_every_entry_point_rejects_a_bad_input_alike(call, args, error, message):
    # one check per input kind lives in coulomb, so each entry point that
    # takes the input raises the same error with the same message
    with pytest.raises(error) as raised:
        call(*args)
    assert type(raised.value) is error and str(raised.value) == message


class TestQuantumState:
    def test_valid_state_and_derived_numbers(self):
        st = QuantumState(3, 1, -1)
        assert st.n_r == 1
        assert st.effective_n == Fraction(5, 2)

    def test_n_identity(self):
        for n in range(1, 7):
            for l in range(n):
                st = QuantumState(n, l, l)
                assert st.n == st.n_r + st.l + 1

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError, match="n must satisfy n >= 1"):
            QuantumState(0, 0, 0)

    def test_rejects_bad_l(self):
        with pytest.raises(ValueError, match="l must satisfy 0 <= l <= n-1"):
            QuantumState(2, 2, 2)

    def test_rejects_inconsistent_ml(self):
        with pytest.raises(ValueError, match=r"m_l"):
            QuantumState(2, 1, 0)

    def test_rejects_bad_spin(self):
        with pytest.raises(ValueError, match="m_s"):
            QuantumState(1, 0, 0, Fraction(1))
        assert QuantumState(1, 0, 0, Fraction(1, 2)).m_s == Fraction(1, 2)
        assert QuantumState(1, 0, 0, Fraction(-1, 2)).m_s == Fraction(-1, 2)

    def test_integer_like_labels_are_stored_as_int(self):
        st = QuantumState(np.int64(3), np.int64(1), np.int64(-1), "1/2")
        assert (st.n, st.l, st.m_l, st.m_s) == (3, 1, -1, Fraction(1, 2))
        assert all(type(v) is int for v in (st.n, st.l, st.m_l))
        assert coefficient_set(np.int64(3), np.int64(1)) == coefficient_set(3, 1)
        assert GreenEvalConfig(l=np.int64(1), level=np.int64(3)) == GreenEvalConfig(l=1, level=3)

    def test_fields_are_read_only(self):
        st = QuantumState(3, 1, -1)
        for name in ("n", "l", "m_l", "m_s"):
            with pytest.raises(AttributeError):
                setattr(st, name, 1)
        assert st == (3, 1, -1, None)

    def test_replace_runs_the_constructor_checks(self):
        for changes, args in (({"l": 3}, (1, 3, 0)), ({"m_l": 1}, (1, 0, 1)), ({"m_s": 1}, (1, 0, 0, 1))):
            with pytest.raises(ValueError) as direct:
                QuantumState(*args)
            with pytest.raises(ValueError) as replaced:
                QuantumState(1, 0, 0)._replace(**changes)
            assert str(replaced.value) == str(direct.value)
        with pytest.raises(ValueError, match="l must satisfy"):
            QuantumState._make((1, 3, 0, None))
        moved = QuantumState(3, 1, 1)._replace(m_l=np.int64(-1), m_s="1/2")
        assert moved == QuantumState(3, 1, -1, Fraction(1, 2)) and type(moved.m_l) is int

    def test_repr_and_pickle(self):
        spin = QuantumState(2, 1, -1, Fraction(1, 2))
        assert repr(QuantumState(1, 0, 0)) == "QuantumState(n=1, l=0, m_l=0, m_s=None)"
        assert repr(spin) == "QuantumState(n=2, l=1, m_l=-1, m_s=Fraction(1, 2))"
        for st in (QuantumState(1, 0, 0), spin):
            back = pickle.loads(pickle.dumps(st))
            assert back == st and type(back) is QuantumState


class TestEnergy0:
    def test_fixed_values(self):
        assert energy0(QuantumState(1, 0, 0), 1) == -2
        assert energy0(QuantumState(2, 0, 0), 1) == Fraction(-2, 9)
        assert energy0(QuantumState(1, 0, 0), 2) == -8

    def test_depends_only_on_n(self):
        for l in range(3):
            assert energy0(QuantumState(3, l, l)) == Fraction(-2, 25)

    def test_memo_sits_behind_the_level_check(self):
        # the memo of -2/q^2 is keyed by the checked n.  lru_cache matches a
        # key of several arguments by equality, so a memo placed in front of
        # the check on (n, l) would answer (2.0, 0) from the entry of (2, 0)
        assert eps0(2) == Fraction(-2, 9)
        assert coefficient_set(2, 0).eps0 == Fraction(-2, 9)
        for call in (lambda: eps0(2.0), lambda: coefficient_set(2.0, 0),
                     lambda: coefficient_set(2.0, 0, "sturmian_sum")):
            with pytest.raises(TypeError, match=NOT_INTEGRAL):
                call()

    def test_memo_is_bounded(self):
        maxsize = coulomb._eps0.cache_info().maxsize
        assert isinstance(maxsize, int) and maxsize >= 80  # every n of an n <= 80 sweep


class TestBoundRadial:
    def test_ground_state_data(self):
        f = bound_radial(QuantumState(1, 0, 0), 1)
        assert f.scale == 2
        assert f.norm_squared == 4
        assert f.poly.degree == 0 and f.poly(Fraction(0)) == 1

    def test_normalization_exact(self):
        # int P^2 dr = normSq * (1/2k) * int x^(2l+1) e^-x L^2 dx = 1
        for n in range(1, 7):
            for l in range(n):
                f = bound_radial(QuantumState(n, l, l), 1)
                spec = Laguerre(n - l - 1, 2 * l)
                integral = f.norm_squared * Fraction(1, 2 * f.scale) * cross_integral(
                    2 * l + 1, spec, spec
                )
                assert integral == 1

    def test_plain_measure_overlap_is_tridiagonal(self):
        # at a common exponential scale the plain-measure overlaps vanish
        # for |i-j| > 1: the x^(2l+1) weight couples nearest neighbours only
        l = 1
        for i in range(8):
            for j in range(8):
                val = cross_integral(2 * l + 1, Laguerre(i, 2 * l), Laguerre(j, 2 * l))
                assert (val == 0) == (abs(i - j) > 1)

    def test_node_counts(self):
        for n in range(1, 5):
            for l in range(n):
                f = bound_radial(QuantumState(n, l, l), 1)
                xs = [i / 100 for i in range(1, 4001)]
                vals = [f.poly(x) for x in xs]
                signs = [v > 0 for v in vals if v != 0]
                flips = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
                assert flips == n - l - 1

    def test_positive_near_origin(self):
        for n in range(1, 5):
            for l in range(n):
                f = bound_radial(QuantumState(n, l, l), 1)
                assert f(1e-6) > 0

    def test_float_evaluation(self):
        f = bound_radial(QuantumState(1, 0, 0), 1)
        # P(r) = 2 * x^(1/2) e^(-x/2) with x = 4r
        r = 0.37
        x = 4 * r
        assert f(r) == pytest.approx(2 * math.sqrt(x) * math.exp(-x / 2), rel=1e-14)


class TestSturmian:
    def test_rejects_nonnegative_energy(self):
        with pytest.raises(ValueError):
            sturmian(0, 0, Fraction(0))
        with pytest.raises(ValueError):
            sturmian(0, 0, Fraction(1, 2))

    def test_eigen_energy_proportionality(self):
        # at E = E0_n the Sturmian is (N_n/Z) times the bound function:
        # same scale, same polynomial, normSq ratio (N_n/Z)^2
        for n in range(1, 7):
            for l in range(n):
                st = QuantumState(n, l, l)
                for Z in (Fraction(1), Fraction(2)):
                    P = bound_radial(st, Z)
                    S = sturmian(st.n_r, l, energy0(st, Z), Z)
                    ratio2 = st.effective_n**2 / Z**2
                    assert S.scale == P.scale
                    assert S.poly == P.poly
                    assert S.norm_squared == P.norm_squared * ratio2

    def test_weighted_orthonormality(self):
        # int (Z/r) S_i S_j dr = delta_ij, exactly, at any rational-square scale
        E = Fraction(-1, 2)  # k = 1
        Z = Fraction(3, 2)
        l = 1
        for i in range(9):
            for j in range(9):
                Si = sturmian(i, l, E, Z)
                Sj = sturmian(j, l, E, Z)
                prod2 = Si.norm_squared * Sj.norm_squared
                root = rational_sqrt(prod2)
                integral2 = prod2 * cross_integral(
                    2 * l, Laguerre(i, 2 * l), Laguerre(j, 2 * l)
                ) ** 2 * Z**2
                if i == j:
                    assert root is not None
                    value = Z * root * cross_integral(2 * l, Laguerre(i, 2 * l), Laguerre(j, 2 * l))
                    assert value == 1
                else:
                    assert integral2 == 0


def _r2_squared_reference(state: QuantumState, n_r_prime: int, Z: Fraction) -> Fraction:
    """The squared element built from the normalized radial functions.

    Both factors share the scale k = Z/N at the eigen-energy, so the element
    is sqrt(normSq_P normSq_S) (1/2k)^3 times the banded third moment.
    """
    bound_sq = bound_radial(state, Z).norm_squared
    stu_sq = sturmian(n_r_prime, state.l, energy0(state, Z), Z).norm_squared
    band = moment3_band(state.n_r, n_r_prime, 2 * state.l)
    return bound_sq * stu_sq * (state.effective_n / (2 * Z)) ** 6 * band * band


class TestR2Element:
    def test_selection_rule_zero(self):
        assert r2_element_squared(QuantumState(1, 0, 0), 4) == 0
        assert r2_element_squared(QuantumState(2, 1, 1), 5) == 0

    def test_brute_force_value(self):
        # independent reconstruction for (n=2, l=0, n_r'=2): both factors
        # share the scale k = Z/N at the eigen-energy, so the integral is
        # sqrt(normSq_P * normSq_S) * (1/2k)^3 * int x^(2l+3) e^-x L L dx
        st = QuantumState(2, 0, 0)
        P = bound_radial(st, 1)
        S = sturmian(2, 0, energy0(st, 1), 1)
        assert P.scale == S.scale
        pref = rational_sqrt(P.norm_squared * S.norm_squared)
        assert pref is not None
        bf = brute_force_integral(3, Laguerre(st.n_r, 0), Laguerre(2, 0))
        expected = pref * Fraction(1, (2 * P.scale) ** 3) * bf
        assert expected == Fraction(-567, 16)
        assert r2_element_squared(st, 2, 1) == expected**2 == Fraction(-567, 16) ** 2

    def test_diagonal_reproduces_quadratic_coefficient(self):
        # S = (N/Z) P at the eigen-energy, so <r^2> = (Z/N) * element and
        # the quadratic coefficient is <r^2>/8: the ground-state chain
        # 3/16 -> 3/8 -> 3/64 ties this module to the perturbation route.
        # The diagonal element is a positive norm, so its root is the element.
        st = QuantumState(1, 0, 0)
        sq = r2_element_squared(st, 0, 1)
        assert sq == Fraction(3, 16) ** 2
        el = rational_sqrt(sq)
        assert el == Fraction(3, 16)
        r2_moment = el / st.effective_n
        assert r2_moment == Fraction(3, 8)
        assert r2_moment / 8 == Fraction(3, 64)

    def test_squared_route_everywhere(self):
        # the element by its definition, over two perm ratios, equals the
        # one built from the normalized radial functions, across and beyond
        # the window
        for Z in (Fraction(1), Fraction(2), Fraction(3, 2)):
            for n in range(1, 9):
                for l in range(n):
                    st = QuantumState(n, l, l)
                    for npr in range(0, st.n_r + 5):
                        sq = r2_element_squared(st, npr, Z)
                        assert sq >= 0
                        assert sq == _r2_squared_reference(st, npr, Z), (Z, n, l, npr)

    def test_irrational_product_raises(self):
        # off the diagonal with l > 0 the normalization product is no
        # rational square, so the signed element is irrational and only
        # its square is an exact rational
        sq = r2_element_squared(QuantumState(2, 1, 1), 1)
        assert sq == Fraction(54675, 64)
        assert rational_sqrt(sq) is None

    def test_z_dependence(self):
        # each element scales as 1/Z^3... squared as 1/Z^6
        st = QuantumState(3, 1, 1)
        for npr in range(0, 6):
            s1 = r2_element_squared(st, npr, 1)
            s2 = r2_element_squared(st, npr, 2)
            assert s1 == s2 * 2**6


class TestRadialFunctionScale:
    def test_scale_property_raises_when_irrational(self):
        f = sturmian(0, 0, Fraction(-1, 3))
        assert rational_sqrt(f.scale_squared) is None
        with pytest.raises(ValueError):
            _ = f.scale
        assert f.scale_float == pytest.approx(math.sqrt(2 / 3), rel=1e-15)

    def test_rational_scale_cases(self):
        f = sturmian(0, 0, Fraction(-1, 2))
        assert f.scale == 1
        assert f.scale_float == 1.0
