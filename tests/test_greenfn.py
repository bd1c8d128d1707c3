"""Tests for the Sturmian expansions of the radial Coulomb Green functions."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from zeeman2d.coulomb import QuantumState, bound_radial, energy0, sturmian, sturmian_mu_squared
from zeeman2d.exactmath import RationalPolynomial
from zeeman2d.greenfn import (
    GreenEvalConfig,
    PoleError,
    QuadratureError,
    _laguerre_table,
    _reduced_factors,
    gauss_laguerre,
    green_eval,
    green_reduced_eval,
    projection_defect,
    reduced_double_integral,
    reduced_orthogonality_defect,
)
from zeeman2d.laguerre import Laguerre, laguerre_coeffs
from zeeman2d.perturb import eps4_closed

POINT_PAIRS = [(0.3, 1.7), (0.9, 2.4), (2.2, 0.5), (1.1, 1.1)]
LOW_STATES = [(1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2)]


class TestConfig:
    def test_exactly_one_anchor(self):
        with pytest.raises(ValueError):
            GreenEvalConfig(l=0)
        with pytest.raises(ValueError):
            GreenEvalConfig(l=0, energy=Fraction(-1, 3), level=1)

    def test_energy_must_be_negative(self):
        with pytest.raises(ValueError):
            GreenEvalConfig.at_energy(Fraction(1, 3), l=0)

    def test_level_consistency(self):
        with pytest.raises(ValueError):
            GreenEvalConfig(l=1, level=1)  # n >= l+1 violated

    def test_reduced_kernel_needs_margin(self):
        # truncation below n_r + 4 leaves part of the coupling band missing
        with pytest.raises(ValueError, match="n_r \\+ 4"):
            GreenEvalConfig.for_level(5, 0, truncation=7)
        assert GreenEvalConfig.for_level(5, 0, truncation=8).truncation == 8

    def test_anchor_energy(self):
        cfg = GreenEvalConfig.for_level(2, 1)
        assert cfg.anchor_energy == Fraction(-2, 9)
        assert cfg.scale_squared == Fraction(4, 9)
        assert cfg.scale_float == pytest.approx(2 / 3, rel=1e-15)


class TestResolventKernel:
    def test_symmetry(self):
        cfg = GreenEvalConfig.at_energy(Fraction(-1, 3), l=0, truncation=40)
        for r, rp in POINT_PAIRS:
            assert abs(green_eval(cfg, r, rp) - green_eval(cfg, rp, r)) <= 1e-13

    def test_pole_error_names_resonant_index(self):
        cfg = GreenEvalConfig.at_energy(Fraction(-2, 9), l=0, truncation=30)
        with pytest.raises(PoleError) as err:
            green_eval(cfg, 1.0, 1.0)
        assert err.value.n_r == 1  # -2/9 is the n = 2 level of the l = 0 channel
        assert "n_r = 1" in str(err.value)

    def test_pole_detection_is_exact(self):
        # a nearby-but-unequal rational energy must not trip the scan
        almost = Fraction(-2, 9) * (1 + Fraction(1, 10**12))
        cfg = GreenEvalConfig.at_energy(almost, l=0, truncation=30)
        assert sturmian_mu_squared(1, 0, almost) != 1
        green_eval(cfg, 1.0, 1.0)  # evaluates without raising

    def test_projection_identity(self):
        # int dr' (Z/r') S_m(r') G(E; r, r') = S_m(r) / (mu_m - 1)
        cfg = GreenEvalConfig.at_energy(Fraction(-1, 3), l=0, truncation=40)
        for m in (0, 3, 10):
            for r in (0.5, 1.5):
                assert abs(projection_defect(cfg, m, r)) < 1e-11

    def test_projection_defect_rejects_out_of_band_index(self):
        cfg = GreenEvalConfig.at_energy(Fraction(-1, 3), l=0, truncation=20)
        with pytest.raises(ValueError):
            projection_defect(cfg, 20, 1.0)

    def test_residue_limit_two_sided(self):
        # (E - E0_n) G -> 2 E0_n S(r) S(r') as E -> E0_n from either side
        E1 = energy0(QuantumState(1, 0, 0))
        S = sturmian(0, 0, E1)
        r, rp = 0.7, 1.3
        for sign in (1, -1):
            E = E1 * (1 + sign * Fraction(1, 10**6))
            cfg = GreenEvalConfig.at_energy(E, l=0, truncation=40)
            factor = (float(E) - float(E1)) * green_eval(cfg, r, rp) / (S(r) * S(rp))
            assert factor == pytest.approx(2 * float(E1), rel=1e-6)

    def test_resonance_identity_is_exact(self):
        # (E - E0_n) = E0_n (mu^2 - 1) for the resonant index, exactly
        for n in range(1, 5):
            for l in range(n):
                En = energy0(QuantumState(n, l, l))
                for E in (En * Fraction(10**6 + 1, 10**6), Fraction(-1, 3)):
                    mu2 = sturmian_mu_squared(n - l - 1, l, E)
                    assert E - En == En * (mu2 - 1)

    def test_rejects_bad_radii(self):
        cfg = GreenEvalConfig.at_energy(Fraction(-1, 3), l=0)
        with pytest.raises(ValueError):
            green_eval(cfg, 0.0, 1.0)

    def test_mode_mismatch_rejected(self):
        cfg_level = GreenEvalConfig.for_level(1, 0)
        with pytest.raises(ValueError):
            green_eval(cfg_level, 1.0, 1.0)
        cfg_energy = GreenEvalConfig.at_energy(Fraction(-1, 3), l=0)
        with pytest.raises(ValueError):
            green_reduced_eval(cfg_energy, 1.0, 1.0)


class TestReducedKernel:
    def test_symmetry(self):
        for n, l in LOW_STATES:
            cfg = GreenEvalConfig.for_level(n, l)
            for r, rp in POINT_PAIRS:
                diff = abs(green_reduced_eval(cfg, r, rp) - green_reduced_eval(cfg, rp, r))
                assert diff <= 1e-12

    def test_orthogonality_to_bound_state(self):
        # int dr P0(r) Gtilde(r, r') = 0 for any fixed r'
        for n, l in LOW_STATES:
            cfg = GreenEvalConfig.for_level(n, l)
            for rp in (0.4, 1.1, 2.6):
                assert abs(reduced_orthogonality_defect(cfg, rp)) < 1e-8

    def test_double_integral_reproduces_quartic_coefficient(self):
        # -(Z^6/64) * iint r^2 P0 Gtilde r'^2 P0 = eps4, floating route
        for n, l in LOW_STATES:
            cfg = GreenEvalConfig.for_level(n, l)
            val = -reduced_double_integral(cfg) / 64
            exact = float(eps4_closed(n, l))
            assert val == pytest.approx(exact, rel=1e-8)

    def test_double_integral_z_scaling(self):
        # at charge Z the double integral carries the Z^-6 of eps4's term
        cfg = GreenEvalConfig.for_level(1, 0, Z=2)
        val = -reduced_double_integral(cfg) * 2**6 / 64
        assert val == pytest.approx(float(eps4_closed(1, 0)), rel=1e-8)

    def test_truncation_stability(self):
        # the r^2 weight cuts the series exactly; extra terms change nothing
        for n, l in [(1, 0), (2, 1), (3, 0)]:
            base = GreenEvalConfig.for_level(n, l)
            more = GreenEvalConfig.for_level(n, l, truncation=base.truncation + 15)
            delta = abs(
                reduced_double_integral(base) - reduced_double_integral(more)
            ) / 64
            assert delta < 1e-12

    def test_orthogonality_both_argument_orders(self):
        # by symmetry the defect vanishes with the roles of r, r' swapped;
        # evaluated through the symmetric kernel at swapped points
        cfg = GreenEvalConfig.for_level(2, 0)
        vals = [reduced_orthogonality_defect(cfg, rp) for rp in (0.7, 1.9)]
        assert max(abs(v) for v in vals) < 1e-8


def _exact_factor_polys(n_r: int, l: int) -> tuple[RationalPolynomial, RationalPolynomial]:
    """q = L_{n_r}^{(2l)} and its stripped r d/dr image (l+1/2) q - (x/2) q + x q'."""
    q = laguerre_coeffs(Laguerre(n_r, 2 * l))
    x = RationalPolynomial.identity()
    return q, Fraction(2 * l + 1, 2) * q - Fraction(1, 2) * (x * q) + x * q.derivative()


def _norm_const(n_r: int, l: int, Z: Fraction) -> float:
    """c_{n_r} = sqrt(n_r! / (Z (n_r+2l)!)), the Sturmian normalization."""
    return math.sqrt(float(Fraction(math.factorial(n_r), math.factorial(n_r + 2 * l)) / Z))


class TestSeparableFactors:
    GRID = (0.1, 1.0, 7.5, 30.0)

    @pytest.mark.parametrize("l", range(5))
    def test_resonant_factors_match_exact_polynomials(self, l):
        # s and d come from the recurrence table; the reference evaluates the
        # exact polynomials at the same (binary) points in rational arithmetic
        for n_r in range(11):
            cfg = GreenEvalConfig.for_level(n_r + l + 1, l)
            _, s, d = _reduced_factors(cfg, np.array(self.GRID))
            q, dq = _exact_factor_polys(n_r, l)
            c = _norm_const(n_r, l, cfg.Z)
            for i, x in enumerate(self.GRID):
                point = Fraction(x)
                assert s[i] == pytest.approx(c * float(q(point)), rel=1e-12)
                assert d[i] == pytest.approx(c * float(dq(point)), rel=1e-12)

    @pytest.mark.parametrize("n, l", LOW_STATES)
    def test_contraction_equals_dense_kernel(self, n, l):
        # (w q)^T K (w q) with K the nodes-by-nodes stripped kernel, built
        # from the table rows and the exact derivative polynomial
        cfg = GreenEvalConfig.for_level(n, l)
        n_r = n - l - 1
        x, w = gauss_laguerre(2 * l + 3, cfg.quad_nodes)
        table = _laguerre_table(cfg.truncation - 1, 2 * l, x)
        c = np.array([_norm_const(j, l, cfg.Z) for j in range(cfg.truncation)])
        coupling = np.array(
            [0.0 if j == n_r else (n - 0.5) / (j - n_r) for j in range(cfg.truncation)]
        )
        _, dq = _exact_factor_polys(n_r, l)
        s = c[n_r] * table[n_r]
        d = c[n_r] * np.array([float(dq(float(v))) for v in x])
        kernel = np.einsum("j,ja,jb->ab", coupling * c * c, table, table)
        kernel += 0.5 * np.outer(s, s) + np.outer(d, s) + np.outer(s, d)
        radial = bound_radial(QuantumState(n, l, l), cfg.Z)
        wq = w * table[n_r]
        dense = float(radial.norm_squared) * (2.0 * cfg.scale_float) ** -6 * float(wq @ kernel @ wq)
        assert reduced_double_integral(cfg) == pytest.approx(dense, rel=1e-13)

    def test_public_values_are_python_floats(self):
        level = GreenEvalConfig.for_level(2, 1)
        energy = GreenEvalConfig.at_energy(Fraction(-1, 3), l=0, truncation=20)
        values = [
            green_eval(energy, 0.5, 1.5),
            projection_defect(energy, 3, 1.5),
            green_reduced_eval(level, 0.5, 1.5),
            reduced_double_integral(level),
            reduced_orthogonality_defect(level, 1.1),
        ]
        assert all(type(v) is float for v in values)


class TestSupportedRange:
    @pytest.mark.parametrize("n", [18, 24, 30, 40, 60])
    def test_high_n_double_integral(self, n):
        # the recurrence keeps eps4 at ~1e-13 relative up to n = 60 at the
        # default truncation and nodes; float Horner on the monomial
        # coefficients lost 1e-9 at (18, 0) and 2e-5 at (30, 0)
        for l in sorted({0, 1, n // 2, n - 1}):
            exact = float(eps4_closed(n, l))
            for Z in (Fraction(1), Fraction(3, 2)):
                cfg = GreenEvalConfig.for_level(n, l, Z=Z)
                val = -reduced_double_integral(cfg) * float(Z) ** 6 / 64
                assert val == pytest.approx(exact, rel=1e-11)


class TestQuadrature:
    def test_overflowing_rule_is_typed_error(self):
        # roots_genlaguerre overflows at 400 nodes: the double integral must
        # raise instead of returning NaN, with no warning printed first,
        # while 350 nodes are still finite
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(QuadratureError) as info:
                reduced_double_integral(GreenEvalConfig.for_level(1, 0, quad_nodes=400))
        assert isinstance(info.value, ValueError)
        assert (info.value.alpha, info.value.nodes) == (3, 400)
        assert "x^3" in str(info.value) and "400 nodes" in str(info.value)
        eps4 = -reduced_double_integral(GreenEvalConfig.for_level(1, 0, quad_nodes=350)) / 64
        assert eps4 == pytest.approx(float(eps4_closed(1, 0)), rel=1e-8)

    def test_gauss_laguerre_moments(self):
        # the rule integrates x^alpha e^-x x^m exactly up to high degree
        for alpha in (0, 2, 5):
            x, w = gauss_laguerre(alpha, 60)
            for m in range(0, 12):
                exact = math.factorial(alpha + m)
                got = float((w * x**m).sum())
                assert got == pytest.approx(exact, rel=1e-13)

    @pytest.mark.parametrize("pair", [((1, 0), (2, 0)), ((2, 0), (3, 0)), ((2, 1), (3, 1))])
    def test_mixed_scale_bound_state_overlap(self, pair):
        # floating cross-check of zero overlap between bound states of
        # different n (different exponential scales), out of exact scope:
        # under t = (k1+k2) r the smooth part is polynomial, so the rule
        # with weight t^(2l+1) e^-t is exact up to rounding
        (na, la), (nb, lb) = pair
        assert la == lb
        p1 = bound_radial(QuantumState(na, la, la), 1)
        p2 = bound_radial(QuantumState(nb, lb, lb), 1)
        k1, k2 = float(p1.scale), float(p2.scale)
        ksum = k1 + k2
        const = math.sqrt(float(p1.norm_squared) * float(p2.norm_squared))
        const *= (2 * math.sqrt(k1 * k2) / ksum) ** (2 * la + 1)
        t, w = gauss_laguerre(2 * la + 1, 40)
        x1, x2 = 2 * k1 * t / ksum, 2 * k2 * t / ksum
        vals = [
            float(p1.poly(float(a))) * float(p2.poly(float(b)))
            for a, b in zip(x1, x2)
        ]
        total = const / ksum * float(sum(wi * v for wi, v in zip(w, vals)))
        assert abs(total) < 1e-12
