"""Tests for the planar Coulomb bound states and Sturmian functions."""

import math
from fractions import Fraction

import pytest

from zeeman2d import coulomb
from zeeman2d.coulomb import (
    QuantumState,
    RadialFunction,
    bound_radial,
    energy0,
    r2_element_squared,
    sturmian,
    sturmian_mu,
    sturmian_mu_squared,
)
from zeeman2d.exactmath import rational_sqrt
from zeeman2d.laguerre import Laguerre, brute_force_integral, cross_integral, moment3_band


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


class TestEnergy0:
    def test_fixed_values(self):
        assert energy0(QuantumState(1, 0, 0), 1) == -2
        assert energy0(QuantumState(2, 0, 0), 1) == Fraction(-2, 9)
        assert energy0(QuantumState(1, 0, 0), 2) == -8

    def test_depends_only_on_n(self):
        for l in range(3):
            assert energy0(QuantumState(3, l, l)) == Fraction(-2, 25)


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

    def test_mu_fixed_values(self):
        E1 = energy0(QuantumState(1, 0, 0))
        assert sturmian_mu_squared(0, 0, E1) == 1
        assert sturmian_mu_squared(1, 0, E1) == 9  # mu = 3
        E2 = energy0(QuantumState(2, 0, 0))
        assert sturmian_mu_squared(2, 1, E2) == Fraction(49, 9)  # mu = 7/3
        assert sturmian_mu(1, 0, E1) == pytest.approx(3.0, rel=1e-15)

    def test_mu_formula(self):
        # mu = (n_r + l + 1/2) k / Z with k = sqrt(-2E)
        E = Fraction(-1, 3)
        for n_r in range(4):
            for l in range(3):
                mu2 = sturmian_mu_squared(n_r, l, E, 2)
                expected = Fraction(2 * (n_r + l) + 1, 2) ** 2 * Fraction(2, 3) / 4
                assert mu2 == expected

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
        # the reduced integer route equals the element built from the
        # normalized radial functions, across and beyond the window
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

    def test_band_not_multiple_of_perm_raises(self, monkeypatch):
        # the reduced term divides B_j by perm(n_r+2l, 2l) and checks the
        # remainder instead of assuming it vanishes
        true_band = coulomb.moment3_band
        monkeypatch.setattr(coulomb, "moment3_band", lambda k, kp, a: true_band(k, kp, a) + 1)
        with pytest.raises(ArithmeticError, match="multiple"):
            r2_element_squared(QuantumState(3, 1, 1), 1)

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
