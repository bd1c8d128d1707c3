"""Tests for the Sturmian expansions of the radial Coulomb Green functions."""

import json
import math
import os
import pickle
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy.special import roots_genlaguerre

from zeeman2d import greenfn
from zeeman2d.coulomb import QuantumState, energy0
from zeeman2d.greenfn import (
    MAX_QUADRATURE_N_R,
    GreenEvalConfig,
    QuadratureError,
    _channel,
    _channel_quadratures,
    _envelope,
    _gauss_laguerre,
    _laguerre_table,
    _reduced_factors,
    green_reduced_eval,
    reduced_double_integral,
    reduced_orthogonality_defect,
)
from zeeman2d.perturb import eps4_closed

from radial_reference import Laguerre, RationalPolynomial, bound_radial, laguerre_coeffs

POINT_PAIRS = [(0.3, 1.7), (0.9, 2.4), (2.2, 0.5), (1.1, 1.1)]
LOW_STATES = [(1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2)]


class TestConfig:
    def test_level_consistency(self):
        with pytest.raises(ValueError):
            GreenEvalConfig(l=1, level=1)  # n >= l+1 violated

    def test_largest_l(self):
        # (2l)! is a finite float up to l = 85; beyond it the configuration
        # is refused with a typed error instead of overflowing later
        for Z in (1, 3):
            cfg = GreenEvalConfig.for_level(86, 85, Z=Z)
            scale = 85.5**2 / Z
            radii = [f * scale for f in (0.01, 0.1, 0.5, 1, 2, 4)]
            assert all(math.isfinite(green_reduced_eval(cfg, r, rp)) for r in radii for rp in radii)
        for n, l in [(87, 86), (120, 100)]:
            with pytest.raises(ValueError, match="MAX_L = 85"):
                GreenEvalConfig.for_level(n, l)

    def test_anchor_energy(self):
        # the scale k of the anchored level solves E_n = -k^2/2; k = Z/N is
        # rational at every level and is rounded once
        assert GreenEvalConfig.for_level(2, 1).scale_float == pytest.approx(2 / 3, rel=1e-15)
        for Z in (Fraction(1), Fraction(3, 2), Fraction(3)):
            for n in range(1, 13):
                for l in range(n):
                    cfg = GreenEvalConfig.for_level(n, l, Z=Z)
                    k = Z / Fraction(2 * n - 1, 2)
                    assert -2 * energy0(QuantumState(n, l, l), Z) == k * k
                    assert cfg.scale_float == float(k)


    def test_record_contract(self):
        cfg = GreenEvalConfig.for_level(250, 1, Z=2)
        assert repr(cfg) == "GreenEvalConfig(l=1, level=250, Z=Fraction(2, 1))"
        with pytest.raises(AttributeError):
            cfg.l = 2
        back = pickle.loads(pickle.dumps(cfg))
        assert back == cfg and type(back) is GreenEvalConfig
        # _replace builds through the constructor: l = 200 passes the level
        # check at n = 250 and fails the MAX_L one, as a direct build does
        with pytest.raises(ValueError) as direct:
            GreenEvalConfig(l=200, level=250, Z=2)
        with pytest.raises(ValueError) as replaced:
            cfg._replace(l=200)
        assert "MAX_L" in str(direct.value) and str(replaced.value) == str(direct.value)
        with pytest.raises(ValueError, match="Z must be positive"):
            cfg._replace(Z=0)

    def test_scale_float_is_computed_once(self):
        cfg = GreenEvalConfig.for_level(3, 1)
        assert "scale_float" not in vars(cfg)
        first = cfg.scale_float
        assert vars(cfg) == {"scale_float": first}
        assert cfg.scale_float is first
        assert pickle.loads(pickle.dumps(cfg)).scale_float == first
        # a replaced config is a new record, which computes its own
        other = cfg._replace(Z=3)
        assert "scale_float" not in vars(other)
        assert other.scale_float == 1.2  # k = 3 / (5/2)


class TestReducedKernel:
    def test_symmetry(self):
        for n, l in LOW_STATES:
            cfg = GreenEvalConfig.for_level(n, l)
            for r, rp in POINT_PAIRS:
                diff = abs(green_reduced_eval(cfg, r, rp) - green_reduced_eval(cfg, rp, r))
                assert diff <= 1e-12

    def test_orthogonality_to_bound_state(self):
        # int dr P0(r) Gtilde(r, r') = 0 for any fixed r'.  Deep inside the
        # centrifugal barrier the envelope scales the defect to nothing at
        # large l, so r' also runs over (N^2/Z) {1/2, 1, 2}, where the bound
        # factor is of order one and a 1e-3 error in the 1/2 s s' term reads
        # at least 7.9e-3 for every state below
        cases = [(n, l, 1) for n, l in LOW_STATES]
        cases += [(12, 11, 1), (30, 15, 1), (60, 30, 1), (60, 59, 1), (24, 0, 2)]
        for n, l, Z in cases:
            cfg = GreenEvalConfig.for_level(n, l, Z=Z)
            scale = (n - 0.5) ** 2 / Z
            for rp in (0.4, 1.1, 2.6, scale / 2, scale, 2 * scale):
                assert abs(reduced_orthogonality_defect(cfg, rp)) < 1e-8, (n, l, Z, rp)

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

    def test_orthogonality_both_argument_orders(self):
        # by symmetry the defect vanishes with the roles of r, r' swapped;
        # evaluated through the symmetric kernel at swapped points
        cfg = GreenEvalConfig.for_level(2, 0)
        vals = [reduced_orthogonality_defect(cfg, rp) for rp in (0.7, 1.9)]
        assert max(abs(v) for v in vals) < 1e-8

    def test_rejects_bad_radii(self):
        cfg = GreenEvalConfig.for_level(2, 1)
        for call in (
            lambda: green_reduced_eval(cfg, 0.0, 1.0),
            lambda: green_reduced_eval(cfg, 1.0, -1.0),
            lambda: reduced_orthogonality_defect(cfg, 0.0),
        ):
            with pytest.raises(ValueError, match="positive"):
                call()


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
        x, w = _gauss_laguerre(2 * l + 3, cfg.nodes)
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
        values = [
            green_reduced_eval(level, 0.5, 1.5),
            reduced_double_integral(level),
            reduced_orthogonality_defect(level, 1.1),
        ]
        assert all(type(v) is float for v in values)


def _two_point_reference(cfg: GreenEvalConfig, r: float, rp: float) -> float:
    """The reduced kernel as evaluated on one 2-point grid holding x and x'.

    The grid's factors are those of the channel at Z = 1; the config's charge
    enters through x = 2kr and the final Z^-1.
    """
    x, env = _envelope(cfg, r)
    xp, envp = _envelope(cfg, rp)
    rows, s, d = _reduced_factors(cfg, np.array([x, xp]))
    n_r = cfg.resonant_n_r
    j = np.arange(cfg.truncation)
    coupling = np.zeros(cfg.truncation)
    coupling[j != n_r] = (cfg.level - 0.5) / (j[j != n_r] - n_r)
    assert np.array_equal(coupling, _channel(cfg.l, n_r)[1])
    form = coupling @ (rows[:, 0] * rows[:, 1]) + 0.5 * s[0] * s[1] + d[0] * s[1] + s[0] * d[1]
    return env * envp * float(form) / float(cfg.Z)


class TestPointPath:
    # single radii run the recurrence on Python floats; the values must be
    # those of the grid evaluation bit for bit, not merely close

    @pytest.mark.parametrize("alpha", [0, 2, 40, 170])
    def test_float_table_equals_grid_column(self, alpha):
        nodes, _ = _gauss_laguerre(alpha, 60)
        # x = 2kr is 32 N at r = 16 N^2 / Z, whatever Z
        far = [32 * (n - 0.5) for n in (1, 5, 20, 60, 80)]
        grid = np.concatenate([nodes, far, [1e-3, 0.5, 7.0]])
        for j_max in (0, 1, 2, 17, 80):
            table = _laguerre_table(j_max, alpha, grid)
            assert table.shape == (j_max + 1, grid.size)
            for i, x in enumerate(grid):
                column = _laguerre_table(j_max, alpha, float(x))
                assert column.shape == (j_max + 1,)
                assert np.array_equal(column, table[:, i]), (j_max, x)

    def test_orthogonality_projection_is_reused_exactly(self):
        radii = (0.4, 1.1, 2.6)
        for n, l, Z in [(1, 0, 1), (3, 1, 2), (12, 5, 3)]:
            shared = GreenEvalConfig.for_level(n, l, Z=Z)
            repeated = [reduced_orthogonality_defect(shared, rp) for rp in radii]
            fresh = [
                reduced_orthogonality_defect(GreenEvalConfig.for_level(n, l, Z=Z), rp) for rp in radii
            ]
            assert repeated == fresh

    def test_point_eval_equals_two_point_grid(self):
        for n, l, Z in [(1, 0, 1), (2, 1, 1), (3, 0, 2), (8, 3, 3), (12, 11, 1), (40, 3, 1)]:
            cfg = GreenEvalConfig.for_level(n, l, Z=Z)
            scale = (n - 0.5) ** 2 / Z
            for r, rp in POINT_PAIRS + [(scale / 2, 2 * scale), (scale, 0.3)]:
                assert green_reduced_eval(cfg, r, rp) == _two_point_reference(cfg, r, rp)

    def test_cached_arrays_are_read_only(self):
        # the channel caches hold O(truncation) floats per channel, never a
        # truncation-by-nodes table; neither they nor a rule can be written
        cfg = GreenEvalConfig.for_level(3, 1)
        before = reduced_double_integral(cfg)
        x, w = _gauss_laguerre(2 * cfg.l + 1, cfg.nodes)
        reduced_orthogonality_defect(cfg, 1.1)
        channel = [*_channel(cfg.l, cfg.resonant_n_r), _channel_quadratures(cfg.l, cfg.resonant_n_r)[1][0]]
        assert all(a.shape == (cfg.truncation,) for a in channel)
        for a in [x, w, *channel]:
            with pytest.raises(ValueError):
                a *= 2
        assert reduced_double_integral(cfg) == before
        assert reduced_double_integral(GreenEvalConfig.for_level(3, 1)) == before


def _radius_at(cfg: GreenEvalConfig, x: float) -> float | None:
    """A radius at which ``cfg`` evaluates exactly ``x`` = 2kr, if one exists.

    Searches the few floats around x / 2k; some x fall between the products
    2k r of adjacent radii, and then there is none.
    """
    lo = hi = x / (2 * cfg.scale_float)
    for _ in range(8):
        for r in (lo, hi):
            if _envelope(cfg, r)[0] == x:
                return r
        lo, hi = math.nextafter(lo, 0), math.nextafter(hi, math.inf)
    return None


CHANNEL_STATES = [(1, 0), (3, 1), (8, 3), (12, 11), (30, 15), (40, 3)]
CHANNEL_CHARGES = [Fraction(1, 3), Fraction(3, 2), Fraction(2), Fraction(3)]


def _count_rules(monkeypatch) -> list[tuple[int, int]]:
    """Record the (alpha, nodes) of every rule the channels build from now on."""
    rules = []

    def counted(alpha: int, nodes: int):
        rules.append((alpha, nodes))
        return _gauss_laguerre(alpha, nodes)

    monkeypatch.setattr(greenfn, "_gauss_laguerre", counted)
    return rules


def _channel_values(cfg: GreenEvalConfig) -> tuple:
    """Every public value of a config: the double integral, defects, point values."""
    scale = (cfg.level - 0.5) ** 2 / float(cfg.Z)
    radii = (0.4, 1.1, 2.6, scale / 2, scale, 2 * scale)
    return (
        reduced_double_integral(cfg),
        [reduced_orthogonality_defect(cfg, rp) for rp in radii],
        [green_reduced_eval(cfg, r, rp) for r, rp in POINT_PAIRS + [(scale, 2 * scale)]],
    )


class TestChannel:
    # everything but Z is the channel (l, n_r), built once at Z = 1; each
    # public value carries its own power of Z

    @pytest.mark.parametrize("n, l", CHANNEL_STATES)
    @pytest.mark.parametrize("Z", CHANNEL_CHARGES)
    def test_z_scaling_identities(self, n, l, Z):
        # at equal x = 2kr the defect scales as Z^(-3/2) and point values as
        # Z^-1; the double integral k^2 (2k)^-6 Z^-2 F as Z^-6
        cfg, unit = GreenEvalConfig.for_level(n, l, Z=Z), GreenEvalConfig.for_level(n, l)
        assert reduced_double_integral(cfg) * float(Z**6) == pytest.approx(
            reduced_double_integral(unit), rel=1e-14, abs=0
        )
        pairs = []
        for x in (0.1, 0.75, 3.0, 7.3, n / 2, 2 * n - 1.0, 4 * n - 2.0):
            r, r_unit = _radius_at(cfg, x), _radius_at(unit, x)
            if r is not None and r_unit is not None:
                pairs.append((r, r_unit))
        assert len(pairs) >= 4
        for (r, r_unit), (rp, rp_unit) in zip(pairs, pairs[1:] + pairs[:1]):
            assert reduced_orthogonality_defect(cfg, rp) == pytest.approx(
                reduced_orthogonality_defect(unit, rp_unit) * float(Z) ** -1.5, rel=1e-14, abs=0
            )
            assert green_reduced_eval(cfg, r, rp) == pytest.approx(
                green_reduced_eval(unit, r_unit, rp_unit) / float(Z), rel=1e-14, abs=0
            )

    def test_unit_charge_values_do_not_depend_on_who_built_the_channel(self):
        # the channel is built at Z = 1 whichever config asks first, so Z = 1
        # values are bit for bit the same after a Z = 3 config built it
        caches = (_channel, _channel_quadratures)
        for n, l in CHANNEL_STATES:
            for cache in caches:
                cache.cache_clear()
            first = _channel_values(GreenEvalConfig.for_level(n, l))
            for cache in caches:
                cache.cache_clear()
            _channel_values(GreenEvalConfig.for_level(n, l, Z=3))
            assert _channel_values(GreenEvalConfig.for_level(n, l)) == first, (n, l)

    def test_point_values_build_no_rule(self, monkeypatch):
        # point values read only the point side: at l = 85, where no rule is
        # finite, and at (190, 0), past the quadratures' range, no rule and
        # no quadrature side is built
        rules = _count_rules(monkeypatch)
        _channel_quadratures.cache_clear()
        for n, l in [(86, 85), (190, 0)]:
            cfg = GreenEvalConfig.for_level(n, l)
            assert math.isfinite(green_reduced_eval(cfg, 1.1, (n - 0.5) ** 2))
        assert rules == []
        assert _channel_quadratures.cache_info().misses == 0


EDGE_RADII = [1e5, 1e20, 1e100, 1e308, math.nan, math.inf]
LEVEL_EDGE_CONFIGS = [(3, 1, 1), (40, 3, 1), (1, 0, 3)]


def _edge_expectation(r: float, call) -> None:
    """A non-finite radius raises ValueError; a far one gives exactly 0.0."""
    if math.isfinite(r):
        value = call()
        assert value == 0.0 and type(value) is float
    else:
        with pytest.raises(ValueError):
            call()


class TestRadiusEdges:
    @pytest.mark.parametrize("r", EDGE_RADII)
    def test_green_reduced_eval(self, r):
        for n, l, Z in LEVEL_EDGE_CONFIGS:
            cfg = GreenEvalConfig.for_level(n, l, Z=Z)
            _edge_expectation(r, lambda: green_reduced_eval(cfg, r, 1.0))
            _edge_expectation(r, lambda: green_reduced_eval(cfg, 1.0, r))

    @pytest.mark.parametrize("r", EDGE_RADII)
    def test_reduced_orthogonality_defect(self, r):
        for n, l, Z in LEVEL_EDGE_CONFIGS:
            cfg = GreenEvalConfig.for_level(n, l, Z=Z)
            _edge_expectation(r, lambda: reduced_orthogonality_defect(cfg, r))

    def test_overflowing_rows_raise(self):
        # at x = 1420 the envelope is subnormal, not 0, while the rows of
        # (400, 0) and (1000, 0) overflow; the float path must not hand back
        # NaN.  The orthogonality check refuses those levels outright.
        for n in (400, 1000):
            cfg = GreenEvalConfig.for_level(n, 0)
            r = 1420 / (2 * cfg.scale_float)
            with pytest.raises(ValueError, match="not finite"):
                green_reduced_eval(cfg, r, 1.0)
            with pytest.raises(ValueError, match="MAX_QUADRATURE_N_R"):
                reduced_orthogonality_defect(cfg, r)
        cfg = GreenEvalConfig.for_level(300, 0)
        assert math.isfinite(green_reduced_eval(cfg, 1420 / (2 * cfg.scale_float), 1.0))


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

    def test_quadrature_range_edge(self):
        # the grid's weight x^(2l+1) needs Gamma(2l+2) finite: the double
        # integral runs at l = 84, and at l = 85 both quadratures raise the
        # typed error instead of an OverflowError
        eps4 = -reduced_double_integral(GreenEvalConfig.for_level(85, 84)) / 64
        assert eps4 == pytest.approx(float(eps4_closed(85, 84)), rel=1e-11)
        cfg = GreenEvalConfig.for_level(86, 85)
        for call in (
            lambda: reduced_double_integral(cfg),
            lambda: reduced_orthogonality_defect(cfg, 85.5**2),
        ):
            with pytest.raises(QuadratureError) as info:
                call()
            assert (info.value.alpha, info.value.nodes) == (171, cfg.nodes)

    @pytest.mark.parametrize("l", [0, 1, 5, 20, 40, 60, 84])
    def test_level_range_edge(self, l):
        # at the last accepted n_r both checks hold to the suite's
        # tolerances; from the next n_r, and at (190, 0), both quadratures
        # refuse the level while point values run
        n = MAX_QUADRATURE_N_R + l + 1
        exact = float(eps4_closed(n, l))
        for Z in (Fraction(1), Fraction(3, 2)):
            cfg = GreenEvalConfig.for_level(n, l, Z=Z)
            val = -reduced_double_integral(cfg) * float(Z) ** 6 / 64
            assert val == pytest.approx(exact, rel=1e-11), Z
            scale = (n - 0.5) ** 2 / float(Z)
            for rp in (0.4, 1.1, 2.6, scale / 2, scale, 2 * scale):
                assert abs(reduced_orthogonality_defect(cfg, rp)) < 1e-8, (Z, rp)
        for n_refused, l_refused in [(n + 1, l), (190, 0)]:
            cfg = GreenEvalConfig.for_level(n_refused, l_refused)
            for call in (
                lambda: reduced_double_integral(cfg),
                lambda: reduced_orthogonality_defect(cfg, 1.1),
            ):
                with pytest.raises(ValueError, match=f"n = {n_refused}, l = {l_refused}") as info:
                    call()
                assert f"MAX_QUADRATURE_N_R = {MAX_QUADRATURE_N_R}" in str(info.value)
                assert not isinstance(info.value, QuadratureError)
            assert math.isfinite(green_reduced_eval(cfg, 1.1, 2.6))

    def test_strided_range(self):
        # every l in steps of 12 at n_r in steps of 31 up to the edge, where
        # the rule has 200 nodes, held at the suite's tolerances
        for l in range(0, 85, 12):
            for n_r in (0, 31, 62, MAX_QUADRATURE_N_R):
                n = n_r + l + 1
                exact = float(eps4_closed(n, l))
                for Z in (Fraction(1), Fraction(3, 2)):
                    cfg = GreenEvalConfig.for_level(n, l, Z=Z)
                    val = -reduced_double_integral(cfg) * float(Z) ** 6 / 64
                    assert val == pytest.approx(exact, rel=1e-11), (n, l, Z)
                    scale = (n - 0.5) ** 2 / float(Z)
                    for rp in (0.4, 1.1, 2.6, scale / 2, scale, 2 * scale):
                        assert abs(reduced_orthogonality_defect(cfg, rp)) < 1e-8, (n, l, Z, rp)
        assert _gauss_laguerre(2 * cfg.l + 1, cfg.nodes)[0].size == cfg.nodes == 200

    def test_far_radius_underflows_to_zero(self):
        # x^(l+1/2) alone overflows a float at l = 85 and r = 50 N^2; the
        # envelope underflows to 0 instead of raising OverflowError
        cfg = GreenEvalConfig.for_level(86, 85)
        assert green_reduced_eval(cfg, 50 * 85.5**2, 85.5**2) == 0.0

    @pytest.mark.parametrize("l", [0, 1, 10, 42, 70, 85])
    def test_envelope_matches_power_form(self, l):
        # the log-space envelope agrees with x^(l+1/2) e^(-x/2) wherever that
        # form is finite, over r in [0.01, 4] N^2/Z; x = 0 gives 0
        for n in (l + 1, l + 3):
            for Z in (1, 3):
                cfg = GreenEvalConfig.for_level(n, l, Z=Z)
                for f in (0.01, 0.1, 0.5, 1, 2, 4):
                    x, env = _envelope(cfg, f * (n - 0.5) ** 2 / Z)
                    try:
                        power = x ** (l + 0.5) * math.exp(-0.5 * x)
                    except OverflowError:
                        continue
                    assert env == pytest.approx(power, rel=1e-13, abs=0)
        assert _envelope(GreenEvalConfig.for_level(l + 1, l), 0.0) == (0.0, 0.0)


class TestQuadrature:
    def test_overflowing_rule_is_typed_error(self):
        # Gamma(alpha + 1) overflows from alpha = 171: the rule raises the
        # typed error instead of OverflowError, with no warning printed
        # first, while a 350-node rule is finite and integrates the weight's
        # moments
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(QuadratureError) as info:
                _gauss_laguerre(171, 200)
            x, w = _gauss_laguerre(1, 350)
        assert isinstance(info.value, ValueError)
        assert (info.value.alpha, info.value.nodes) == (171, 200)
        assert "x^171" in str(info.value) and "200 nodes" in str(info.value)
        for m in range(4):
            assert float(w @ x**m) == pytest.approx(math.factorial(1 + m), rel=1e-12)

    def test_gauss_laguerre_moments(self):
        # the rule integrates x^alpha e^-x x^m exactly up to high degree
        for alpha in (0, 2, 5):
            x, w = _gauss_laguerre(alpha, 60)
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
        t, w = _gauss_laguerre(2 * la + 1, 40)
        x1, x2 = 2 * k1 * t / ksum, 2 * k2 * t / ksum
        vals = [
            float(p1.poly(float(a))) * float(p2.poly(float(b)))
            for a, b in zip(x1, x2)
        ]
        total = const / ksum * float(sum(wi * v for wi, v in zip(w, vals)))
        assert abs(total) < 1e-12

    def test_rule_matches_scipy_reference(self):
        # scipy's roots_genlaguerre, a test-side reference only, builds the
        # same Golub-Welsch rule: the nodes agree bit for bit
        for alpha in range(30):
            for nodes in (1, 2, 3, 5, 10, 40, 60, 200, 350):
                x, w = _gauss_laguerre(alpha, nodes)
                x_ref, w_ref = roots_genlaguerre(nodes, alpha)
                assert np.array_equal(x, x_ref), (alpha, nodes)
                assert np.all(np.abs(w - w_ref) <= 4e-15 * w_ref), (alpha, nodes)

    @pytest.mark.parametrize("alpha", range(26))
    def test_rule_overflows_where_scipy_does(self, alpha):
        # the Newton polish keeps scipy's binomial scale, so the rule stops
        # being finite at the same node count, somewhere in 355..385
        finite = []
        for nodes in range(355, 386):
            with np.errstate(all="ignore"):
                x_ref, w_ref = roots_genlaguerre(nodes, alpha)
            finite.append(bool(np.isfinite(x_ref).all() and np.isfinite(w_ref).all()))
            if finite[-1]:
                _gauss_laguerre(alpha, nodes)
            else:
                with pytest.raises(QuadratureError):
                    _gauss_laguerre(alpha, nodes)
        assert finite[0] and not finite[-1]

    def test_one_rule_per_config(self, monkeypatch):
        # the double integral and the orthogonality check share one grid,
        # on the weight x^(2l+1) e^-x with 2 n_r + 16 nodes; configs that
        # differ only in Z share it, and build one rule, point side and
        # quadrature side
        rules = _count_rules(monkeypatch)
        caches = (_channel, _channel_quadratures)
        for cache in caches:
            cache.cache_clear()
        for Z in (Fraction(1), Fraction(3, 2), Fraction(3)):
            cfg = GreenEvalConfig.for_level(7, 3, Z=Z)
            reduced_double_integral(cfg)
            for rp in (0.4, 1.1, 2.6):
                reduced_orthogonality_defect(cfg, rp)
            green_reduced_eval(cfg, 0.5, 1.5)
        for cache in caches:
            info = cache.cache_info()
            assert (info.misses, info.currsize) == (1, 1), cache
        assert cfg.nodes == 2 * 3 + 16
        assert rules == [(2 * cfg.l + 1, cfg.nodes)]


def _run_isolated(script: str, *args: str, **preset: str) -> str:
    """Run ``script`` with ``args`` in a fresh interpreter whose environment
    holds no BLAS thread variable unless ``preset`` names it; return stdout."""
    env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    env.update(preset, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", script, *args], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


# imports greenfn, after numpy when asked, and prints the BLAS thread
# variables and the number of threads in the process (-1 where /proc is absent)
PIN_PROBE = (
    "import json, os, sys\n"
    "if 'numpy-first' in sys.argv:\n"
    "    import numpy\n"
    "import zeeman2d.greenfn\n"
    "tasks = len(os.listdir('/proc/self/task')) if os.path.isdir('/proc/self/task') else -1\n"
    "print(json.dumps([os.environ.get('OPENBLAS_NUM_THREADS'), os.environ.get('OMP_NUM_THREADS'), tasks]))\n"
)


class TestLayering:
    def test_green_route_never_loads_scipy(self):
        # the rule is built in-house on numpy alone: no scipy module is
        # loaded by a double integral, an orthogonality check or a point value
        script = (
            "import sys\n"
            "from zeeman2d.greenfn import (\n"
            "    GreenEvalConfig, green_reduced_eval, reduced_double_integral,\n"
            "    reduced_orthogonality_defect,\n"
            ")\n"
            "cfg = GreenEvalConfig.for_level(3, 1)\n"
            "reduced_double_integral(cfg)\n"
            "reduced_orthogonality_defect(cfg, 1.1)\n"
            "green_reduced_eval(cfg, 0.5, 1.5)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        assert _run_isolated(script).split() == ["[]"]

    def test_import_pins_blas_before_numpy(self):
        # imported before numpy, greenfn pins OpenBLAS to one thread as
        # validate does; a thread count the user set, or a numpy already
        # loaded, is left alone
        openblas, omp, tasks = json.loads(_run_isolated(PIN_PROBE))
        assert (openblas, omp) == ("1", "1")
        if tasks != -1:
            assert tasks == 1
        assert json.loads(_run_isolated(PIN_PROBE, OPENBLAS_NUM_THREADS="2"))[:2] == ["2", None]
        assert json.loads(_run_isolated(PIN_PROBE, "numpy-first"))[:2] == [None, None]
