"""Tests for the variational Galerkin oracle and the field-series fit."""

import cmath
import collections
import importlib
import json
import math
import os
import pkgutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import zeeman2d
from zeeman2d import oracle
from zeeman2d.coulomb import QuantumState, energy0
from zeeman2d.exactmath import rational_sqrt
from zeeman2d.laguerre import _moment3_factor
from zeeman2d.oracle import (
    ConvergenceError,
    LevelCrossingError,
    _certify,
    _exact_pieces,
    _GENERAL,
    _inverse_iteration,
    _lu_solver,
    _OFFSETS,
    _Pencil,
    _round_bands,
    _UPPER,
    contour_field,
    fit_field_series,
)
from zeeman2d.perturb import coefficient_set, eps2_closed, eps4_closed

from radial_reference import Laguerre, brute_force_integral, cross_integral, moment3_band

BASIS_SMALL = 40


def anchor(n, l, Z=Fraction(1)):
    """The default anchor of level (n, l): its unperturbed energy."""
    return energy0(QuantumState(n, l, l), Z)


def field_grid(state, Z=Fraction(1)):
    """Nine evenly spaced fields from 0 to b_max = Z^2 / (20 (2n-1)^2): a walk through the perturbative window."""
    b_max = Z**2 / (20 * (2 * state.n - 1) ** 2)
    return [b_max * Fraction(i, 8) for i in range(9)]


def _track(pencil, fields, target, seed):
    """Certified (energy, vector, residual) of level ``target`` at each field, in order.

    The walk a fit takes to b_rho, through any fields: ``fields`` starts at
    b = 0, where the iteration starts from the Sturmian e_target with the
    shift ``seed``, and each later field continues from the one before
    (`oracle._continue`).
    """
    x = np.zeros(pencil.overlap.shape[1])
    x[target] = 1.0
    pair, previous, tracked = (seed, x, 0.0), fields[0], []
    for b in fields:
        pair, previous = oracle._continue(pencil, previous, b, pair, target), b
        tracked.append(pair)
    return tracked


def tracked(l, Z, m, reference, b=Fraction(0)):
    """(energy, residual) at field b of the level anchored at ``reference``, tracked from b = 0.

    The reference is the level's exact b = 0 energy -Z^2 / (2 (n_r + l + 1/2)^2),
    so n_r = Z / sqrt(-2 E*) - l - 1/2.
    """
    n_r = Z / rational_sqrt(-2 * reference) - l - Fraction(1, 2)
    assert n_r.denominator == 1 and n_r >= 0
    fields = [Fraction(0), Fraction(b)]
    energy, _, residual = _track(rounded_pencil(l, Z, m, reference), fields, int(n_r), float(reference))[-1]
    return energy, residual


def rounded_pencil(l, Z, m, reference):
    """The `_Pencil` of the rounded bands of `_round_bands`, as a fit builds it."""
    return _Pencil(*_round_bands(l, Z, m, reference))


def exact_pieces(l, Z, m, reference):
    """The four exact bands of `_exact_pieces`, by name."""
    return dict(zip(("weighted_norm", "h0", "overlap", "r2"), _exact_pieces(l, Z, m, reference)))


def entry(band, d, i):
    """Entry (i, i+d) of an exact band (diagonals, denominator) as a Fraction."""
    diagonals, denominator = band
    return Fraction(diagonals[d][i], denominator)


def _diag_dense(band):
    """The symmetric dense matrix held in upper band storage (row 3 - d holds diagonal d), by np.diag.

    The reference of `oracle._dense`, which replaced this construction.
    """
    u, m = band.shape[0] - 1, band.shape[1]
    out = np.diag(band[u])
    for d in range(1, min(u, m - 1) + 1):
        out += np.diag(band[u - d, d:], d) + np.diag(band[u - d, d:], -d)
    return out


def aligned(matrix):
    """The aligned rows of a banded matrix A, by their definition.

    Row j holds diagonal d = (0, 1, -1, 2, -2, 3, -3)[j] aligned to the rows
    of A: its entry i is A[i, i + d], and 0 where i + d lies outside A.
    """
    m = len(matrix)
    out = np.zeros((7, m), matrix.dtype)
    for j, d in enumerate((0, 1, -1, 2, -2, 3, -3)):
        rows = np.arange(max(-d, 0), min(m, m - d))
        out[j, rows] = matrix[rows, rows + d]
    return out


def lapack_storage(matrix, rows):
    """The first ``rows`` rows of LAPACK band storage of A with u = 3, by LAPACK's rule ab[u + i - j, j] = A[i, j].

    Four rows are the upper storage that xPBTRF takes, and seven the general
    storage that ``scipy.linalg.solve_banded((3, 3), ...)`` takes.
    """
    m = len(matrix)
    out = np.zeros((rows, m), matrix.dtype)
    for i in range(m):
        for j in range(m):
            if 0 <= 3 + i - j < rows:
                out[3 + i - j, j] = matrix[i, j]
    return out


def band_matvec(band, x):
    """A @ x for the symmetric A held in aligned rows: the reference band product.

    The seven-slice accumulation whose order (diagonal, then +d before -d
    for d = 1, 2, 3) defines the summation order of the oracle's fused
    product, `_Pencil.products`; row 2d - 1 holds diagonal +d and row 2d
    diagonal -d.  A stack of bands (k, 7, m) times a stack of vectors (k, m)
    gives the k products at once, each element formed in the same order as
    alone.
    """
    y = band[..., 0, :] * x
    for d in range(1, 4):
        y[..., :-d] += band[..., 2 * d - 1, :-d] * x[..., d:]
        y[..., d:] += band[..., 2 * d, d:] * x[..., :-d]
    return y


def iterate(h, o, sigma, x, b):
    """`_inverse_iteration` on the pencil (h, o) of aligned rows, as H0 = h and R = 0 at b = 0."""
    return _inverse_iteration(_Pencil(h, np.zeros_like(h), o).at(Fraction(0)), sigma, x, b)


def exact_entry(bands, b, i, j):
    """(H_ij, O_ij) rebuilt exactly from the band arrays; zero outside the band."""
    lo, d = min(i, j), abs(i - j)
    o_ij = entry(bands["overlap"], d, lo) if d < 2 else Fraction(0)
    h_ij = b * b / 8 * entry(bands["r2"], d, lo) if d < 4 else Fraction(0)
    h_ij += entry(bands["h0"], d, lo) if d < 2 else Fraction(0)
    return h_ij, o_ij


def fraction_bands(l, Z, m, e_star):
    """(H0, R, O) in aligned rows, assembled entry by entry as Fractions and rounded.

    An independent transcription of the closed forms: each entry is built as
    its own Fraction, converted with float(), and scaled by 1/sqrt(W_j); the
    entries of one triangle, in upper band storage, are mirrored into the
    dense matrix, whose aligned rows are taken by their definition.
    """
    k, alpha = rational_sqrt(-2 * e_star), 2 * l
    inv_2k = 1 / (2 * k)
    q = math.factorial(alpha)
    w, h0_diag, o_diag, o_off = [], [], [], []
    for i in range(m):
        o = (2 * i + alpha + 1) * q * inv_2k
        mu = Fraction(2 * (i + l) + 1, 2) * k / Z
        w.append(Z * q)
        h0_diag.append((mu - 1) * Z * q + e_star * o)
        o_diag.append(o)
        o_off.append(-(i + alpha + 1) * q * inv_2k)
        q = q * (i + alpha + 1) // (i + 1)
    o_off.pop()
    r2 = [[inv_2k**3 * moment3_band(i, i + d, alpha) for i in range(m - d)] for d in range(4)]
    scale = 1 / np.sqrt(np.array([float(x) for x in w]))

    def upper(diagonals):
        band = np.zeros((4, m))
        for d, values in enumerate(diagonals):
            band[3 - d, d:] = np.array([float(x) for x in values]) * scale[: m - d] * scale[d:]
        return aligned(_diag_dense(band))

    return upper([h0_diag, [e_star * o for o in o_off]]), upper(r2), upper([o_diag, o_off])


class TestGalerkinConfig:
    """The configuration of the Galerkin problem: anchor, basis margin and reference."""

    def test_defaults_resolve_to_tracked_level(self):
        # at E0 = energy0(state, Z) the Sturmian n_r solves the unperturbed
        # problem: column n_r of H0 - E0 O is exactly zero
        for Z in (Fraction(1), Fraction(2), Fraction(1, 2)):
            for n in range(1, 7):
                for l in range(n):
                    n_r, e0 = n - l - 1, anchor(n, l, Z)
                    bands = exact_pieces(l, Z, n_r + 20, e0)
                    column = [
                        entry(bands["h0"], d, lo) - e0 * entry(bands["overlap"], d, lo)
                        for lo, d in ((n_r - 1, 1), (n_r, 0), (n_r, 1))
                        if lo >= 0
                    ]
                    assert column == [0] * len(column), (n, l, Z)
                    assert rational_sqrt(-2 * e0) == Z / Fraction(2 * n - 1, 2)

    def test_margin_enforced(self):
        with pytest.raises(ValueError, match="n_r \\+ 20"):
            fit_field_series(QuantumState(6, 0, 0), basis_size=24)

    def test_irrational_scale_rejected_lazily(self):
        # at assembly, by `_exact_pieces` and so by `_round_bands`
        with pytest.raises(ValueError, match="rational Sturmian scale"):
            _exact_pieces(0, Fraction(1), BASIS_SMALL, Fraction(-1, 3))
        with pytest.raises(ValueError, match="rational Sturmian scale"):
            _round_bands(0, Fraction(1), BASIS_SMALL, Fraction(-1, 3))

    def test_nonnegative_reference_rejected(self):
        for reference in (Fraction(1, 2), Fraction(0)):
            with pytest.raises(ValueError, match="reference energy must be negative"):
                _exact_pieces(0, Fraction(1), BASIS_SMALL, reference)

    def test_exact_bands_repr(self):
        # (weighted_norm, h0, overlap, r2), each (diagonals, denominator) in plain tuples
        assert repr(_exact_pieces(0, Fraction(1), 2, Fraction(-2))) == (
            "((((1, 1),), 1), "
            "(((-2, 2), (2,)), 4), "
            "(((1, 3), (-1,)), 4), "
            "(((6, 78), (-18,), (), ()), 64))"
        )


class TestExactMatrices:
    def test_band_structure(self):
        # O is stored as two diagonals and R as four; brute force confirms
        # that every entry outside those bands vanishes
        m = BASIS_SMALL
        bands = exact_pieces(0, Fraction(1), m, anchor(1, 0))
        assert [len(d) for d in bands["overlap"][0]] == [m, m - 1]
        assert [len(d) for d in bands["h0"][0]] == [m, m - 1]
        assert [len(d) for d in bands["r2"][0]] == [m, m - 1, m - 2, m - 3]
        assert [len(d) for d in bands["weighted_norm"][0]] == [m]
        for i in range(12):
            for j in range(i + 2, 12):
                assert brute_force_integral(1, Laguerre(i, 0), Laguerre(j, 0)) == 0
            for j in range(i + 4, 12):
                assert brute_force_integral(3, Laguerre(i, 0), Laguerre(j, 0)) == 0

    def test_symmetry_exact(self):
        # the bands hold one triangle; the omitted one, computed with the
        # Laguerre indices swapped, is identical
        reference = anchor(2, 1)
        bands = exact_pieces(1, Fraction(1), BASIS_SMALL, reference)
        inv_2k = 1 / (2 * rational_sqrt(-2 * reference))
        for i in range(BASIS_SMALL - 1):
            swapped = cross_integral(3, Laguerre(i + 1, 2), Laguerre(i, 2))
            assert entry(bands["overlap"], 1, i) == inv_2k * swapped
        for d in range(4):
            for i in range(BASIS_SMALL - d):
                assert entry(bands["r2"], d, i) == inv_2k**3 * moment3_band(i + d, i, 2)

    def test_entries_against_brute_force(self):
        # every entry rebuilt from scratch: in the unnormalized basis
        # f_j = x^(l+1/2) e^(-x/2) L_j(x), with x = 2 k r and k = sqrt(-2E*):
        #   O_ij = (1/2k)   * int x^(2l+1) e^-x L_i L_j dx
        #   W_j  = Z (j+2l)!/j!          (weighted norm, the mu-term metric)
        #   H_ij = (mu_i - 1) W_i delta_ij + E* O_ij + (b^2/8)(1/2k)^3 M3_ij
        l, Z, b = 1, Fraction(2), Fraction(1, 10)
        e_star = anchor(l + 1, l, Z)
        bands = exact_pieces(l, Z, 25, e_star)
        k = rational_sqrt(-2 * e_star)
        two_l = 2 * l
        for i in range(12):
            w_i = Z * Fraction(math.factorial(i + two_l), math.factorial(i))
            assert entry(bands["weighted_norm"], 0, i) == w_i
            for j in range(12):
                H_ij, O_ij = exact_entry(bands, b, i, j)
                o_ij = Fraction(1, 2 * k) * brute_force_integral(
                    two_l + 1, Laguerre(i, two_l), Laguerre(j, two_l)
                )
                assert O_ij == o_ij
                h_ij = e_star * o_ij
                h_ij += (
                    b * b / 8 * Fraction(1, (2 * k) ** 3)
                    * brute_force_integral(two_l + 3, Laguerre(i, two_l), Laguerre(j, two_l))
                )
                if i == j:
                    mu_i = Fraction(2 * (i + l) + 1, 2) * k / Z
                    h_ij += (mu_i - 1) * w_i
                assert H_ij == h_ij

    @pytest.mark.parametrize("l", range(5))
    def test_overlap_closed_form_matches_cross_integral(self, l):
        # alpha = 2l <= 8, i < 40; E* = -1/2 makes 1/(2k) = 1/2
        alpha = 2 * l
        overlap = exact_pieces(l, Fraction(1), 41, Fraction(-1, 2))["overlap"]
        for i in range(40):
            spec = Laguerre(i, alpha)
            assert 2 * entry(overlap, 0, i) == cross_integral(alpha + 1, spec, spec)
            assert 2 * entry(overlap, 1, i) == cross_integral(alpha + 1, spec, Laguerre(i + 1, alpha))

    @pytest.mark.parametrize("m", [40, 240])
    @pytest.mark.parametrize("reference", [None, Fraction(-9, 32)])
    @pytest.mark.parametrize("Z", [Fraction(1), Fraction(2), Fraction(3, 2)])
    @pytest.mark.parametrize("l", [0, 1, 3, 10])
    def test_rounding_matches_per_entry_fractions(self, l, Z, reference, m):
        # one correctly rounded integer division per entry gives the same
        # double as float() of the entry's own Fraction, bit for bit; None
        # is the default anchor, the b = 0 energy of (l + 1, l)
        reference = anchor(l + 1, l, Z) if reference is None else reference
        # all seven aligned rows, the mirrored -d rows and the zeros outside A included
        for rounded, expected in zip(_round_bands(l, Z, m, reference), fraction_bands(l, Z, m, reference)):
            assert rounded.shape == expected.shape == (7, m)
            assert np.array_equal(rounded, expected)

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 40, 960])
    @pytest.mark.parametrize("off_anchor", [False, True])
    @pytest.mark.parametrize("Z", [Fraction(1), Fraction(3, 2)])
    @pytest.mark.parametrize("l", [0, 3, 20])
    def test_r2_matches_moment_factor_per_entry(self, l, Z, off_anchor, m):
        # the difference tables give R's integers exactly: s^3 q_i times
        # _moment3_factor(i, d, 2l), called per entry, with q_i = (i+2l)!/i!;
        # m < 4 checks the tables where the basis is shorter than their seed,
        # the values at i = 0 .. 3
        reference = anchor(l + 3 if off_anchor else l + 1, l, Z)
        k = rational_sqrt(-2 * reference)
        p, s = k.numerator, k.denominator
        alpha = 2 * l
        expected = tuple(
            tuple(s**3 * math.perm(i + alpha, alpha) * _moment3_factor(i, d, alpha) for i in range(m - d))
            for d in range(4)
        )
        assert exact_pieces(l, Z, m, reference)["r2"] == (expected, 8 * p**3)

    def test_denominators_positive(self):
        bands = _exact_pieces(2, Fraction(3, 2), BASIS_SMALL, Fraction(-9, 32))
        assert len(bands) == 4
        for diagonals, denominator in bands:
            assert type(denominator) is int and denominator > 0
            assert all(type(x) is int for diagonal in diagonals for x in diagonal)

    def test_double_range_edge(self):
        # W_j and the band entries grow like (j+2l)!/j!; at basis size 120
        # l = 65 still rounds to finite doubles and l = 66 does not
        finite = _round_bands(65, Fraction(1), 120, anchor(66, 65))
        assert all(np.isfinite(a).all() for a in finite)
        with pytest.raises(ValueError, match=r"l = 66, Z = 1, basis_size = 120"):
            _round_bands(66, Fraction(1), 120, anchor(67, 66))
        with pytest.raises(ValueError, match=r"l = 66, Z = 1, basis_size = 120"):
            fit_field_series(QuantumState(67, 66, 66))

    def test_float_matrices_are_symmetric_and_normalized(self):
        reference = anchor(1, 0)
        pencil = rounded_pencil(0, Fraction(1), BASIS_SMALL, reference).at(Fraction(1, 100) ** 2)
        # the matrices that the aligned rows hold, each row put on its own
        # diagonal, so that symmetry needs row -d to mirror row +d
        m = BASIS_SMALL
        H, O = (
            sum(np.diag(band[j, max(-d, 0) : m - max(d, 0)], d) for j, d in enumerate((0, 1, -1, 2, -2, 3, -3)))
            for band in (pencil.h, pencil.overlap)
        )
        assert np.array_equal(H, H.T)
        assert np.array_equal(O, O.T)
        # normalization is by the weighted norm W_j, under which the plain
        # overlap diagonal becomes (2(j+l)+1)/(2kZ) -- linear growth, which
        # keeps the overlap condition number O(basis_size)
        k = float(rational_sqrt(-2 * reference))
        j = np.arange(BASIS_SMALL)
        expected = (2 * j + 1) / (2 * k)
        assert np.allclose(np.diag(O), expected, rtol=1e-14)


def _storage_cases():
    for m in (1, 2, 3, 4, 40):
        for dtype in (np.float64, np.complex128):
            yield m, dtype


class TestBandStorage:
    """LAPACK's band storages are the row selections `_UPPER` and `_GENERAL` of the aligned rows."""

    @staticmethod
    def _matrix(m, dtype):
        # symmetric, with half-bandwidth 3 and no zero inside the band
        rng = np.random.default_rng(m)
        a = rng.standard_normal((m, m))
        if dtype is np.complex128:
            a = a + 1j * rng.standard_normal((m, m))
        a = a + a.T
        a[abs(np.subtract.outer(np.arange(m), np.arange(m))) > 3] = 0
        return a

    @pytest.mark.parametrize("m,dtype", list(_storage_cases()))
    def test_selections_are_lapack_storage(self, m, dtype):
        matrix = self._matrix(m, dtype)
        band = aligned(matrix)
        assert band[_UPPER].tobytes() == lapack_storage(matrix, 4).tobytes()
        assert band[_GENERAL].tobytes() == lapack_storage(matrix, 7).tobytes()

    @pytest.mark.parametrize("m,dtype", list(_storage_cases()))
    def test_lu_solver_matches_solve_banded(self, m, dtype):
        # solve_banded runs xGBSV, which is xGBTRF then xGBTRS, on the general
        # storage: bit for bit the same solve.  A 1 x 1 matrix it solves by a
        # division of its own, not by LAPACK
        matrix = self._matrix(m, dtype)
        rhs = np.cos(np.arange(m)).astype(dtype)
        y = _lu_solver(aligned(matrix))(rhs)
        assert y.dtype == np.dtype(dtype)
        if m == 1:
            assert y[0] == pytest.approx(rhs[0] / matrix[0, 0], rel=1e-15)
        else:
            assert y.tobytes() == scipy.linalg.solve_banded((3, 3), lapack_storage(matrix, 7), rhs).tobytes()

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 40])
    def test_block_lu_reads_only_the_block(self, k, dtype):
        # the first k columns of the aligned rows of a larger matrix hold, in
        # the rows of diagonals +1 .. +3, the entries that couple the leading
        # k x k block to the columns after it.  They land where the general
        # storage of the block has no entry of it, which xGBTRF and xGBTRS
        # do not read: NaN there leaves the solve solve_banded's on the
        # block, bit for bit
        matrix = self._matrix(k + 8, dtype)
        band = aligned(matrix)[:, :k]
        for d in range(1, 4):
            band[_OFFSETS.index(d), max(k - d, 0) :] = np.nan
        rhs = np.cos(np.arange(k)).astype(dtype)
        y = _lu_solver(band)(rhs)
        block = matrix[:k, :k]
        if k == 1:
            assert y[0] == pytest.approx(rhs[0] / block[0, 0], rel=1e-15)
        else:
            assert y.tobytes() == scipy.linalg.solve_banded((3, 3), lapack_storage(block, 7), rhs).tobytes()


class TestSolveGeneralized:
    def test_one_by_one(self):
        h, o = aligned(np.array([[3.5]])), aligned(np.eye(1))
        value, x, residual = iterate(h, o, 3.0, np.array([1.0]), 0.0)
        assert value == pytest.approx(3.5, abs=0)
        assert residual == 0

    def test_spectrum_head(self):
        for n in range(1, 4):
            energy, _ = tracked(0, Fraction(1), 120, anchor(n, 0))
            assert energy == pytest.approx(float(energy0(QuantumState(n, 0, 0))), abs=1e-10)

    def test_eigenvalues_rise_with_field(self):
        for n in range(1, 6):
            level = (0, Fraction(1), 60, anchor(n, 0))
            assert tracked(*level, Fraction(1, 100))[0] > tracked(*level)[0]

    def test_complex_shift_keeps_its_imaginary_part(self):
        # the factor-once solve of H - sigma O with a complex sigma matches
        # the dense solve, and so does its real part; a real band solves in
        # float64 (the storage of either dtype: TestBandStorage)
        h, _, o = _round_bands(0, Fraction(1), BASIS_SMALL, anchor(1, 0))
        # halfway between the two lowest levels, off the real axis
        sigma = float(energy0(QuantumState(1, 0, 0)) + energy0(QuantumState(2, 0, 0))) / 2 + 0.05j
        rhs = band_matvec(o, np.linspace(1.0, 2.0, BASIS_SMALL))
        for shift, dtype in ((sigma, np.complex128), (sigma.real, np.float64)):
            band = h - shift * o
            y = _lu_solver(band)(rhs)
            assert y.dtype == band.dtype == dtype
            expected = np.linalg.solve(_diag_dense(band[_UPPER]), rhs)
            assert np.linalg.norm(y - expected) <= 1e-12 * np.linalg.norm(expected)

    def test_singular_shift_is_typed_error(self):
        # sigma is exactly an eigenvalue and x is not its eigenvector
        h, o = aligned(np.diag([1.0, 2.0])), aligned(np.eye(2))
        with pytest.raises(ConvergenceError, match="singular"):
            iterate(h, o, 1.0, np.array([1.0, 1.0]), 0.5)

    def test_singular_rayleigh_shift_is_typed_error(self):
        # no sigma given: the shift is the start vector's Rayleigh quotient,
        # (1 + 3) / 2 = 2, exactly the middle eigenvalue, whose eigenvector
        # x is not
        h, o = aligned(np.diag([1.0, 2.0, 3.0])), aligned(np.eye(3))
        with pytest.raises(ConvergenceError, match="singular"):
            iterate(h, o, None, np.array([1.0, 0.0, 1.0]), 0.5)


class _Calls(collections.Counter):
    """The calls of each LAPACK routine, by name; ``orders[name]`` lists the matrix order of each call."""

    def __init__(self):
        super().__init__()
        self.orders = collections.defaultdict(list)


def _lapack_calls(monkeypatch, alter=None):
    """Count the calls of every routine `oracle._lapack_funcs` hands out, by name, and record their orders.

    The order of a call is the number of columns of the band storage it
    takes first, which is n for xGBTRF, xGBTRS, xPBTRF and xPBTRS alike.
    ``alter`` maps a routine name to a function of its return value, which
    replaces what the routine returns.
    """
    calls, alter = _Calls(), alter or {}
    original = oracle._lapack_funcs

    def counted(name, routine):
        def call(*args, **kwargs):
            calls[name] += 1
            calls.orders[name].append(args[0].shape[1])
            out = routine(*args, **kwargs)
            return alter[name](out) if name in alter else out

        return call

    def patched(names, array):
        return [counted(name, routine) for name, routine in zip(names, original(names, array))]

    monkeypatch.setattr(oracle, "_lapack_funcs", patched)
    return calls


def _with_info(info):
    """Replace the trailing info of a LAPACK return tuple."""
    return lambda out: (*out[:-1], info)


class TestFactorOnce:
    def _many_solves(self):
        # a far seed and a shift 0.1 below the ground level: the iteration
        # contracts by about 1/20 per solve, so it takes a dozen solves
        h0, _, o = _round_bands(0, Fraction(1), BASIS_SMALL, anchor(1, 0))
        return h0, o, -2.1, np.linspace(1.0, 2.0, BASIS_SMALL)

    def test_one_factorization_per_call(self, monkeypatch):
        h, o, sigma, x = self._many_solves()
        calls = _lapack_calls(monkeypatch)
        value, _, _ = iterate(h, o, sigma, x, 0.0)
        assert value == pytest.approx(-2.0, abs=1e-12)
        assert calls["gbtrf"] == 1
        assert calls["gbtrs"] >= 10

    def test_converged_seed_factors_nothing(self, monkeypatch):
        # the factorization waits for the first solve, after the convergence check
        h, o = aligned(np.array([[3.5]])), aligned(np.eye(1))
        calls = _lapack_calls(monkeypatch)
        iterate(h, o, 3.0, np.array([1.0]), 0.0)
        assert calls["gbtrf"] == calls["gbtrs"] == 0

    def test_factor_once_matches_refactoring_solves(self):
        # gbtrf then gbtrs is what solve_banded runs as gbsv: bit for bit
        h, o, sigma, _ = self._many_solves()
        band = h - sigma * o
        solve = _lu_solver(band)
        general = lapack_storage(_diag_dense(band[_UPPER]), 7)
        for rhs in (np.linspace(1.0, 2.0, BASIS_SMALL), np.cos(np.arange(BASIS_SMALL))):
            reference = scipy.linalg.solve_banded((3, 3), general, rhs)
            assert np.array_equal(solve(rhs), reference)

    def test_fit_path_avoids_scipy_wrappers(self, monkeypatch):
        # every solve and inertia count of a fit goes to LAPACK directly
        def forbidden(*args, **kwargs):
            raise AssertionError("a refactoring scipy wrapper called on the fit path")

        for name in ("solve_banded", "cholesky_banded", "cho_solve_banded"):
            monkeypatch.setattr(scipy.linalg, name, forbidden)
        fit = fit_field_series(QuantumState(1, 0, 0))
        assert fit.coefficients[2] == pytest.approx(float(eps2_closed(1, 0)), rel=1e-8)

    @pytest.mark.parametrize("routine", ["gbtrf", "gbtrs"])
    def test_illegal_argument_in_solve_raises(self, monkeypatch, routine):
        # info < 0 is a call error, not a singular shift
        h, o, sigma, x = self._many_solves()
        _lapack_calls(monkeypatch, {routine: _with_info(-4)})
        with pytest.raises(ValueError, match=f"argument 4 of LAPACK {routine}"):
            iterate(h, o, sigma, x, 0.0)

    @pytest.mark.parametrize("routine", ["pbtrf", "pbtrs"])
    def test_illegal_argument_in_inertia_count_raises(self, monkeypatch, routine):
        # info < 0 is a call error, not a tail that fails to be positive definite
        pencil = rounded_pencil(0, Fraction(1), BASIS_SMALL, anchor(1, 0)).at(Fraction(0))
        _lapack_calls(monkeypatch, {routine: _with_info(-1)})
        with pytest.raises(ValueError, match=f"argument 1 of LAPACK {routine}"):
            oracle._levels_below(pencil, -2.1, 1)


class TestLapackLoader:
    @pytest.mark.parametrize("sigma", [-0.6, -0.6 + 0.05j], ids=["real", "complex"])
    def test_routines_match_get_lapack_funcs(self, sigma):
        # the directly loaded extension hands out what scipy's own lookup
        # picks for the dtype: the factors and solves agree bit for bit
        h0, _, o = _round_bands(1, Fraction(1), BASIS_SMALL, anchor(2, 1))
        band = h0 - sigma * o
        rhs = np.cos(np.arange(BASIS_SMALL)).astype(band.dtype)
        spd = o[_UPPER].astype(band.dtype)
        # xGBTRF's storage: u = 3 zero rows for the fill-in above the general storage
        general = np.vstack((np.zeros((3, BASIS_SMALL)), band[_GENERAL]))
        results = []
        for lookup in (oracle._lapack_funcs, lambda names, a: scipy.linalg.get_lapack_funcs(names, (a,))):
            gbtrf, gbtrs, pbtrf, pbtrs = lookup(("gbtrf", "gbtrs", "pbtrf", "pbtrs"), band)
            lu, piv, info = gbtrf(general, 3, 3)
            assert info == 0
            chol, info = pbtrf(spd)
            assert info == 0
            results.append((lu, piv, gbtrs(lu, 3, 3, rhs, piv)[0], chol, pbtrs(chol, rhs)[0]))
        assert results[0][2].dtype == band.dtype
        for ours, theirs in zip(*results):
            assert ours.dtype == theirs.dtype
            assert np.array_equal(ours, theirs)

    @pytest.mark.parametrize("dtype", [np.float32, np.complex64, np.int64])
    def test_other_dtype_is_type_error(self, dtype):
        with pytest.raises(TypeError, match="float64 or complex128"):
            oracle._lapack_funcs(("gbtrf",), np.zeros((4, 3), dtype=dtype))


def _fused_cases():
    # m = 960 is the largest oracle_large basis
    for m in (1, 2, 3, 4, 40, 240, 960):
        for dtype in (np.float64, np.complex128):
            for fields in (1, 4):
                yield m, dtype, fields


def _fit_cases():
    # every n <= 4 fit at Z = 1, 2, and the ground state and (4, 0) at m = 960
    for Z in (Fraction(1), Fraction(2)):
        for n in range(1, 5):
            for l in range(n):
                yield QuantumState(n, l, l), Z, oracle.DEFAULT_BASIS_SIZE
    yield QuantumState(1, 0, 0), Fraction(1), 240
    yield QuantumState(1, 0, 0), Fraction(1), 960
    yield QuantumState(4, 0, 0), Fraction(1), 960


class TestFusedProduct:
    """The one-einsum band product of every step keeps the bits of the seven-slice reference."""

    @pytest.mark.parametrize("m,dtype,fields", list(_fused_cases()))
    def test_matches_seven_slice_reference(self, m, dtype, fields):
        # each of the four rows against the reference on its own band and
        # vector, at one field and after the pencil moved through four, also
        # where the band is narrower than the half-bandwidth (m <= 3); the
        # bands are aligned rows of random symmetric matrices.
        # numpy's complex multiply loop fuses multiply and add where the CPU
        # has FMA, and einsum forms the textbook product, so the complex
        # reference runs on Python complex numbers (object arrays), whose
        # products are the textbook ones too: what is checked is the order
        # of the sums
        rng = np.random.default_rng(m)

        def draw(*shape):
            values = rng.standard_normal(shape)
            return values + 1j * rng.standard_normal(shape) if dtype is np.complex128 else values

        def exact(values):
            values = np.asarray(values, dtype)
            return values.astype(object) if dtype is np.complex128 else values

        h0, r2, o = (aligned(_diag_dense(draw(oracle.HALF_BANDWIDTH + 1, m))) for _ in range(3))
        pencil = _Pencil(h0, r2, o)
        for k in range(fields):
            b = Fraction(k + 1, 3)
            assert pencil.at(b * b) is pencil
            h = h0 + float(b * b / 8) * r2
            assert np.array_equal(pencil.h, h)
            for _ in range(2):  # the second call reuses the workspace
                x = draw(m)
                fused = pencil.products(x)
                assert (fused.shape, fused.dtype) == ((4, m), np.dtype(dtype))
                pairs = ((h, x), (o, x), (abs(h), abs(x)), (abs(o), abs(x)))
                for row, (band, vector) in zip(fused, pairs):
                    reference = band_matvec(exact(band), exact(vector)).astype(dtype)
                    assert row.tobytes() == reference.tobytes()

    def test_fits_match_reference_product(self, monkeypatch):
        # the same energies, residuals and coefficients, bit for bit, and the
        # same LAPACK calls as with the reference product patched in; so the
        # saving is call overhead, not fewer or looser solves.  The complex
        # points of the contour take the reference on Python complex numbers,
        # as test_matches_seven_slice_reference does.  The reference runs on
        # all m columns, with x zero past the pencil's block of k rows, and
        # hands out the first min(m, k + 3) rows, past which it is zero
        def reference_products(pencil, x):
            h, o = pencil.h, pencil.overlap
            m, k = o.shape[1], pencil.block
            assert len(x) == k
            x = np.concatenate((x, np.zeros(m - k, x.dtype)))
            bands, vectors = np.array((h, o, abs(h), abs(o))), np.array((x, x, abs(x), abs(x)))
            if bands.dtype == complex:
                products = band_matvec(bands.astype(object), vectors.astype(object)).astype(complex)
            else:
                products = band_matvec(bands, vectors)
            width = min(m, k + oracle.HALF_BANDWIDTH)
            assert not products[:, width:].any()
            return products[:, :width]

        def run(state, Z, m):
            with monkeypatch.context() as patch:
                calls = _lapack_calls(patch)
                fit = fit_field_series(state, Z, m)
            counts = tuple(calls[name] for name in ("gbtrf", "gbtrs", "pbtrf", "pbtrs"))
            return repr((fit.energies, fit.residuals, sorted(fit.coefficients.items()))), counts

        fused = {case: run(*case) for case in _fit_cases()}
        monkeypatch.setattr(_Pencil, "products", reference_products)
        for case, outcome in fused.items():
            assert outcome == run(*case), case
        # gbtrf/gbtrs/pbtrf/pbtrs calls of three of these fits: one factorization
        # at b_rho, at -b_rho^2 and at each of the five complex points, and two
        # inertia counts at each of the two certified fields
        assert fused[QuantumState(1, 0, 0), Fraction(1), 240][1] == (7, 9, 4, 4)
        assert fused[QuantumState(3, 1, 1), Fraction(1), 120][1] == (7, 14, 4, 4)
        assert fused[QuantumState(4, 0, 0), Fraction(1), 960][1] == (7, 14, 4, 4)
        # shifted at the Rayleigh quotient of the vector before, the ground
        # state converges in one solve at b_rho and at each complex point; at
        # b = 0 the Sturmian start vector is already the exact eigenvector,
        # and the step from it to -b_rho^2 takes three
        for m in (240, 960):
            gbtrf, gbtrs, _, _ = fused[QuantumState(1, 0, 0), Fraction(1), m][1]
            assert (gbtrf, gbtrs) == (oracle.CONTOUR_POINTS // 2 + 1, oracle.CONTOUR_POINTS // 2 + 3), m

    def test_lu_takes_the_block_and_inertia_counts_the_whole_basis(self, monkeypatch):
        # where the saving is: at m = 960 the ground state's every LU and
        # solve has the order of its leading block, n_r + BLOCK_MARGIN = 40,
        # while each inertia count factors the tail of the whole basis behind
        # its head of target + 1 = 1 basis function
        calls = _lapack_calls(monkeypatch)
        fit_field_series(QuantumState(1, 0, 0), Fraction(1), 960)
        assert calls.orders["gbtrf"] == [oracle.BLOCK_MARGIN] * 7
        assert calls.orders["gbtrs"] == [oracle.BLOCK_MARGIN] * 9
        assert calls.orders["pbtrf"] == calls.orders["pbtrs"] == [959] * 4


def _block_cases():
    # every n <= 12 state at m = 120, and three at m = 960, for Z = 1, 2
    for Z in (Fraction(1), Fraction(2)):
        for n in range(1, 13):
            for l in range(n):
                yield QuantumState(n, l, l), Z, oracle.DEFAULT_BASIS_SIZE
        for n, l in ((1, 0), (4, 0), (12, 11)):
            yield QuantumState(n, l, l), Z, 960


class TestLeadingBlock:
    """A fit iterates on its leading n_r + BLOCK_MARGIN basis functions and accepts on the whole basis."""

    @staticmethod
    def _outcome(state, Z, m):
        fit = fit_field_series(state, Z, m)
        return repr((fit.energies, fit.residuals, sorted(fit.coefficients.items()), sorted(fit.uncertainties.items())))

    def test_block_gives_the_whole_basis_fit(self, monkeypatch):
        # a margin of at least m makes the block the whole basis, which every
        # LU then factors; the block's fits keep those bits
        blocked = {case: self._outcome(*case) for case in _block_cases()}
        monkeypatch.setattr(oracle, "BLOCK_MARGIN", 960)
        for case, outcome in blocked.items():
            with monkeypatch.context() as patch:
                calls = _lapack_calls(patch)
                assert outcome == self._outcome(*case), case
            assert set(calls.orders["gbtrf"]) == {case[2]}, case

    @pytest.mark.parametrize("n,l", [(1, 0), (3, 1)])
    def test_leaking_block_is_an_error(self, monkeypatch, n, l):
        # a block of n_r + 4 functions cuts the level off: its pairs fail the
        # whole-basis residual test, and the fit returns no number
        monkeypatch.setattr(oracle, "BLOCK_MARGIN", 4)
        with pytest.raises(ConvergenceError):
            fit_field_series(QuantumState(n, l, l))


def _run_isolated(script: str, *sys_path: Path, **preset: str) -> str:
    """Run ``script`` in a fresh interpreter whose environment holds no BLAS
    thread variable unless ``preset`` names it, with ``sys_path`` ahead of
    src; return stdout."""
    env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    env.update(preset, PYTHONPATH=os.pathsep.join(map(str, (*sys_path, Path(__file__).resolve().parents[1] / "src"))))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


# imports the oracle, runs the ground-state fit and prints the scipy modules
# loaded, the BLAS thread variables, the number of threads in the process
# (-1 where /proc is absent) and the modules the fit loaded after the import
PROBE = (
    "import json, os, sys\n"
    "from zeeman2d import oracle\n"
    "from zeeman2d.coulomb import QuantumState\n"
    "imported = set(sys.modules)\n"
    "oracle.fit_field_series(QuantumState(1, 0, 0))\n"
    "tasks = len(os.listdir('/proc/self/task')) if os.path.isdir('/proc/self/task') else -1\n"
    "print(json.dumps([sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'),\n"
    "    os.environ.get('OPENBLAS_NUM_THREADS'), os.environ.get('OMP_NUM_THREADS'), tasks,\n"
    "    sorted(set(sys.modules) - imported)]))\n"
)


class TestLayering:
    def test_fit_loads_only_the_lapack_extension(self):
        # neither the scipy nor the scipy.linalg package code runs: the
        # extension alone is loaded, and registers itself under its own name;
        # the fit then loads no module of its own, numpy.fft among them
        scipy_modules, *_, loaded_by_fit = json.loads(_run_isolated(PROBE))
        assert scipy_modules == ["scipy.linalg._flapack"]
        assert loaded_by_fit == []

    def test_import_pins_blas_before_numpy(self):
        _, openblas, omp, tasks, _ = json.loads(_run_isolated(PROBE))
        assert (openblas, omp) == ("1", "1")
        if tasks != -1:
            assert tasks == 1

    def test_preset_thread_count_wins(self):
        assert json.loads(_run_isolated(PROBE, OPENBLAS_NUM_THREADS="2"))[1:3] == ["2", None]

    @pytest.mark.parametrize("scipy_kind", ["stub", "blocked"])
    def test_missing_extension_is_import_error(self, tmp_path, scipy_kind):
        # a scipy without linalg/_flapack, or none at all, fails the import
        # of the oracle with an ImportError that names the extension
        if scipy_kind == "stub":
            (tmp_path / "scipy" / "linalg").mkdir(parents=True)
            (tmp_path / "scipy" / "__init__.py").write_text("")
        block = "sys.modules['scipy'] = None\n" if scipy_kind == "blocked" else ""
        script = (
            "import sys\n" + block + "try:\n"
            "    import zeeman2d.oracle\n"
            "except ImportError as exc:\n"
            "    print(type(exc).__name__, exc.name, 'scipy.linalg._flapack' in str(exc))\n"
        )
        assert _run_isolated(script, tmp_path).split() == ["ImportError", "scipy.linalg._flapack", "True"]


def _dense_reference_cases():
    for Z in (Fraction(1), Fraction(2)):
        for n in range(1, 6):
            for l in range(n):
                yield Z, QuantumState(n, l, l)


class TestDenseReference:
    @pytest.mark.parametrize("Z,state", list(_dense_reference_cases()))
    def test_tracked_level_matches_dense_eigh(self, Z, state):
        # the float bands expanded to dense matrices and handed to dense
        # eigh on the default grid; default and off-anchor bases
        off_anchor = energy0(QuantumState(state.n + 1, state.l, state.l), Z)
        grid = field_grid(state, Z)
        for reference in (anchor(state.n, state.l, Z), off_anchor):
            pencil = rounded_pencil(state.l, Z, 120, reference)
            O = _diag_dense(pencil.overlap[_UPPER])
            tracked = _track(pencil, grid, state.n_r, float(anchor(state.n, state.l, Z)))
            for b, (energy, _, _) in zip(grid, tracked):
                w = scipy.linalg.eigh(
                    _diag_dense(pencil.at(b * b).h[_UPPER]), O, eigvals_only=True,
                    subset_by_index=[state.n_r, state.n_r],
                )[0]
                assert abs(energy - w) <= 1e-11 * abs(w), (reference, b)


class TestGalerkinLevels:
    @pytest.mark.parametrize("Z", [Fraction(1), Fraction(2)])
    def test_zero_field_reproduces_spectrum(self, Z):
        for n in range(1, 5):
            for l in range(n):
                energy, _ = tracked(l, Z, 120, anchor(n, l, Z))
                exact = float(energy0(QuantumState(n, l, l), Z))
                assert abs(energy - exact) <= 1e-12

    def test_residual_diagnostic(self):
        _, residual = tracked(0, Fraction(1), 60, anchor(1, 0), Fraction(1, 100))
        assert residual <= 1e-10

    def test_convergence_delta(self):
        # the leading 40 basis functions already hold the level to 1e-11
        b = Fraction(1, 100)
        full, leading = (tracked(0, Fraction(1), m, anchor(1, 0), b)[0] for m in (60, 40))
        assert abs(full - leading) < 1e-11

    def test_doubling_the_basis_is_converged(self):
        for n, l in [(1, 0), (3, 0), (3, 2)]:
            b = contour_field(QuantumState(n, l, l)) / 2
            vals = []
            for m in (120, 240):
                vals.append(tracked(l, Fraction(1), m, anchor(n, l), b)[0])
            assert abs(vals[1] - vals[0]) < 1e-11

    def test_variational_monotonicity(self):
        # the tracked eigenvalue never increases as the basis grows
        # (allowing one rounding ulp of slack at this magnitude)
        prev = math.inf
        for m in (60, 80, 100, 120):
            val, _ = tracked(0, Fraction(1), m, anchor(1, 0), Fraction(1, 100))
            assert val <= prev + 5e-15
            prev = val


class TestTracking:
    def test_nearest_tracking_unambiguous(self):
        # every field of the walk passes the inertia certificate for its own
        # level and fails it for the neighbours
        pencil = rounded_pencil(0, Fraction(1), 60, anchor(2, 0))
        grid = field_grid(QuantumState(2, 0, 0))
        for b, (energy, _, _) in zip(grid, _track(pencil, grid, 1, float(anchor(2, 0)))):
            pencil.at(b * b)
            _certify(pencil, energy, 1, float(b))
            for wrong in (0, 2):
                with pytest.raises(LevelCrossingError):
                    _certify(pencil, energy, wrong, float(b))

    def test_crossing_guard(self):
        # asked for level 0 but seeded at level 1: the iteration converges to
        # level 1 and the inertia count catches it
        pencil = rounded_pencil(0, Fraction(1), 60, anchor(3, 0))
        seed = float(anchor(2, 0))
        with pytest.raises(LevelCrossingError) as err:
            _track(pencil, [Fraction(0), Fraction(1, 50)], 0, seed)
        assert err.value.expected == 0
        assert err.value.counts == (1, 2)
        assert err.value.b == 0.0
        assert "lost level 0" in str(err.value)

    def test_long_field_step_is_halved(self):
        # b = 1/100 lies far outside the window of level 4; the step from
        # b = 0 is halved until each piece converges and certifies
        b = Fraction(1, 100)
        level = (0, Fraction(1), 60, anchor(5, 0))
        pencil = rounded_pencil(*level).at(b * b)
        w = scipy.linalg.eigh(_diag_dense(pencil.h[_UPPER]), _diag_dense(pencil.overlap[_UPPER]), eigvals_only=True)
        assert abs(tracked(*level, b)[0] - w[4]) <= 1e-11 * abs(w[4])

    def test_iteration_cap_is_typed_error(self, monkeypatch):
        monkeypatch.setattr(oracle, "MAX_ITERATIONS", 0)
        with pytest.raises(ConvergenceError, match="did not converge") as err:
            fit_field_series(QuantumState(1, 0, 0))
        assert err.value.iterations == 0
        assert err.value.b > 0

    def test_non_finite_is_typed_error(self):
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ConvergenceError, match="non-finite"):
            tracked(0, Fraction(1), BASIS_SMALL, anchor(1, 0), Fraction(10**150))


class TestDense:
    @pytest.mark.parametrize("m", range(1, 9))
    def test_matches_diag_construction(self, m):
        band = np.random.default_rng(m).standard_normal((oracle.HALF_BANDWIDTH + 1, m))
        out, ref = oracle._dense(band), _diag_dense(band)
        assert (out.shape, out.dtype) == (ref.shape, ref.dtype)
        assert out.tobytes() == ref.tobytes()

    def test_fit_inertia_counts_unchanged(self, monkeypatch):
        # every inertia count the certificates of the n <= 6 fits take, and
        # the fitted coefficients, equal those built on the np.diag reference
        def fits():
            counts = []
            levels_below = oracle._levels_below

            def counting(*args):
                counts.append(levels_below(*args))
                return counts[-1]

            with monkeypatch.context() as patch:
                patch.setattr(oracle, "_levels_below", counting)
                coefficients = [
                    fit_field_series(QuantumState(n, l, l)).coefficients for n in range(1, 7) for l in range(n)
                ]
            return counts, coefficients

        counts, coefficients = fits()
        reference_calls = []

        def reference(band):
            reference_calls.append(band.shape)
            return _diag_dense(band)

        monkeypatch.setattr(oracle, "_dense", reference)
        assert fits() == (counts, coefficients)
        assert len(reference_calls) == len(counts) > 21


def _inertia_cases():
    for m in (60, 240):
        for Z in (Fraction(1), Fraction(2)):
            for l in (0, 2):
                for reference in (None, energy0(QuantumState(l + 3, l, l), Z)):
                    yield m, Z, l, reference


class TestInertiaCount:
    @pytest.mark.parametrize("m,Z,l,reference", list(_inertia_cases()))
    def test_count_matches_banded_eigenvalues(self, m, Z, l, reference):
        # the Schur-complement count against the O(m^2) tridiagonal reduction
        # of eigvals_banded, on shifts through and beyond the lowest levels;
        # a head of 1 makes the off-anchor bases double it, and the shift
        # above every level doubles it to the whole matrix
        # None is the default anchor, the b = 0 energy of (l + 1, l)
        reference = anchor(l + 1, l, Z) if reference is None else reference
        pencil = rounded_pencil(l, Z, m, reference)
        O = _diag_dense(pencil.overlap[_UPPER])
        for b in (Fraction(0), contour_field(QuantumState(l + 1, l, l)), Fraction(1, 100)):
            h = pencil.at(b * b).h
            w = scipy.linalg.eigh(_diag_dense(h[_UPPER]), O, eigvals_only=True)
            shifts = [*np.linspace(w[0] - 0.1, (w[12] + w[13]) / 2, 25), *(w[:12] + w[1:13]) / 2, w[-1] + 1.0]
            for sigma in shifts:
                expected = len(
                    scipy.linalg.eigvals_banded(
                        (h - sigma * pencil.overlap)[_UPPER], select="v", select_range=(-np.inf, 0.0)
                    )
                )
                for head in (1, 4):
                    assert oracle._levels_below(pencil, sigma, head) == expected, (b, sigma, head)
            assert oracle._levels_below(pencil, w[-1] + 1.0, 1) == m

    def test_fit_path_avoids_tridiagonal_reduction(self, monkeypatch):
        # the certificates of a fit never fall back on the O(m^2) reduction
        def forbidden(*args, **kwargs):
            raise AssertionError("eigvals_banded called on the fit path")

        monkeypatch.setattr(scipy.linalg, "eigvals_banded", forbidden)
        fit = fit_field_series(QuantumState(1, 0, 0))
        assert fit.coefficients[2] == pytest.approx(float(eps2_closed(1, 0)), rel=1e-8)


def _complex_field_cases():
    for state in (QuantumState(1, 0, 0), QuantumState(3, 1, 1)):
        for theta in (0.5, 1.5, 3.0):
            yield state, theta


class TestComplexField:
    """One inverse iteration serves a real and a complex beta = b^2, on real and complex rows.

    Each case seeds the iteration with the certified real eigenvector at
    beta = b_rho^2 and moves the complex pencil to b_rho^2 e^(i theta).  The
    suite's error::RuntimeWarning filter also catches numpy's ComplexWarning,
    so no norm of the iteration may drop an imaginary part.
    """

    @staticmethod
    def _pencils(state):
        """The real and the complex pencil of ``state`` at m = BASIS_SMALL, and the real eigenpair at b_rho."""
        bands = _round_bands(state.l, Fraction(1), BASIS_SMALL, anchor(state.n, state.l))
        real, complex_rows = _Pencil(*bands), _Pencil(*(band.astype(complex) for band in bands))
        x = np.zeros(BASIS_SMALL)
        x[state.n_r] = 1.0
        grid = (Fraction(0), contour_field(state))
        pair, previous = (float(anchor(state.n, state.l)), x, 0.0), grid[0]
        for b in grid:  # certified at both fields, as a fit walks them
            pair, previous = oracle._continue(real, previous, b, pair, state.n_r), b
        return real, complex_rows, grid[-1], pair

    @pytest.mark.parametrize("state,theta", list(_complex_field_cases()))
    def test_matches_dense_complex_pencil(self, state, theta):
        _, pencil, b_rho, (_, x, _) = self._pencils(state)
        beta = float(b_rho**2) * cmath.exp(1j * theta)
        value, _, _ = _inverse_iteration(pencil.at(beta), None, x, float(b_rho))
        w = scipy.linalg.eigvals(_diag_dense(pencil.h[_UPPER]), _diag_dense(pencil.overlap[_UPPER]))
        nearest = w[np.argmin(abs(w - value))]
        assert abs(value - nearest) <= 1e-13 * abs(nearest)
        # H0, R and O are real, so H(conj beta) = conj H(beta) and E(conj beta) = conj E(beta)
        mirrored, _, _ = _inverse_iteration(pencil.at(beta.conjugate()), None, x, float(b_rho))
        assert abs(mirrored - value.conjugate()) <= 1e-15 * abs(value)

    @pytest.mark.parametrize("state", [QuantumState(1, 0, 0), QuantumState(3, 1, 1)])
    def test_real_beta_on_complex_rows(self, state):
        real, complex_rows, b_rho, (_, x, _) = self._pencils(state)
        on_real, _, _ = _inverse_iteration(real.at(b_rho**2), None, x, float(b_rho))
        on_complex, _, _ = _inverse_iteration(complex_rows.at(b_rho**2), None, x, float(b_rho))
        assert (type(on_real), type(on_complex)) == (float, complex)
        assert abs(on_complex - on_real) <= 2.2e-16 * abs(on_real)
        with pytest.raises(TypeError):
            real.at(1j)

    def test_real_forms_keep_their_bits(self):
        # each dtype-generic form of the iteration gives, on real vectors, the
        # bits of the real-only form it replaced
        rng = np.random.default_rng(7)
        for m in (1, 7, 40, 960):
            v, w = rng.standard_normal((2, m))
            assert math.sqrt(np.vdot(v, v).real) == math.sqrt(v @ v)
            assert np.sqrt(v @ v) == math.sqrt(v @ v)
            assert type((v @ w / (v @ v)).item()) is float
            assert (v @ w / (v @ v)).item() == float(v @ w / (v @ v))
        for beta in (Fraction(1, 400) ** 2, Fraction(1, 3), Fraction(10**40, 7)):
            assert np.float64(beta / 8) == float(beta / 8)

    def test_certificate_refuses_complex_rows(self):
        # a complex-symmetric H - sigma O has no inertia: xPBTRF would read it
        # as Hermitian and count the levels of another matrix
        _, pencil, b_rho, (_, x, _) = self._pencils(QuantumState(2, 0, 0))
        value, _, _ = _inverse_iteration(pencil.at(float(b_rho**2) * cmath.exp(1j)), None, x, float(b_rho))
        with pytest.raises(TypeError, match="real H - sigma O"):
            _certify(pencil, value, 1, float(b_rho))


def eps6(n, l):
    """The sixth-order coefficient of E(b), the b^6 term at Z = 1, in closed form.

    eps6 = q^10 P(n, l^2) / 2^25 with q = 2n - 1, from the hypervirial
    recursion in beta = b^2 (ROADMAP, direction A1); eps6(1, 0) = 17967/2^25.
    """
    q = 2 * n - 1
    body = (
        6120 * n**6 - 18360 * n**5 + 68835 * n**4 - 107070 * n**3 + 115970 * n**2 - 65495 * n + 17967
        - l * l * (5220 * n**4 - 10440 * n**3 + 35130 * n**2 - 29910 * n + 18066) + 231 * l**4 - 132 * l**6
    )
    return Fraction(q**10 * body, 2**25)


def coefficients(n, l):
    """The exact c2, c4 and c6 of E(b) at Z = 1, by the power of b."""
    return {2: eps2_closed(n, l), 4: eps4_closed(n, l), 6: eps6(n, l)}


class TestContourField:
    def test_shape_and_scaling(self):
        # b_max = Z^2 / (20 (2n - 1)^2), taken whole while the window holds
        assert contour_field(QuantumState(1, 0, 0)) == Fraction(1, 20)
        assert contour_field(QuantumState(3, 0, 0)) == Fraction(1, 500)
        # scaled by Z^2, so every charge sees the same reduced field b / Z^2
        assert contour_field(QuantumState(3, 0, 0), Fraction(3)) == Fraction(9, 500)
        assert contour_field(QuantumState(3, 0, 0), Fraction(1, 2)) == Fraction(1, 2000)
        with pytest.raises(ValueError):
            contour_field(QuantumState(1, 0, 0), Fraction(0))

    def test_window_rule(self):
        # b_rho halves b_max until |eps4| b^2 <= |eps2| Z^4 / 100: never for
        # n <= 12, and 1, 2, 3 and 4 times at these levels
        def ratio(state, b, Z=Fraction(1)):
            coefficients = coefficient_set(state.n, state.l)
            return abs(coefficients.eps4) * b * b / (abs(coefficients.eps2) * Z**4)

        halvings = {(20, 19): 1, (40, 39): 2, (80, 0): 3, (121, 0): 4}
        states = [(n, l) for n in range(1, 13) for l in range(n)] + list(halvings)
        for n, l in states:
            state = QuantumState(n, l, l)
            for Z in (Fraction(1), Fraction(2)):
                b_max = Z**2 / (20 * (2 * n - 1) ** 2)
                b = contour_field(state, Z)
                j = halvings.get((n, l), 0)
                assert b == b_max / 2**j, (n, l, Z)
                assert ratio(state, b, Z) <= oracle.WINDOW_FRACTION
                if j:
                    assert ratio(state, 2 * b, Z) > oracle.WINDOW_FRACTION
        # four halvings put (121, 0) back inside the window: its c2 fits to 1e-12
        fit = fit_field_series(QuantumState(121, 0, 0), basis_size=140)
        c2 = float(eps2_closed(121, 0))
        assert fit.fields == (0, Fraction(1, 20 * 241**2 * 16))
        assert abs(fit.coefficients[2] - c2) <= 1e-12 * c2


class TestFieldFit:
    def test_ground_state_quadratic_and_quartic(self):
        fit = fit_field_series(QuantumState(1, 0, 0))
        c2, c4 = float(eps2_closed(1, 0)), float(eps4_closed(1, 0))
        assert fit.coefficients[2] == pytest.approx(c2, rel=1e-11)
        assert fit.coefficients[4] == pytest.approx(c4, rel=1e-8)
        assert fit.coefficients[0] == pytest.approx(-2.0, abs=1e-12)
        assert fit.fields == (0, Fraction(1, 20))

    @pytest.mark.parametrize("n,l", [(n, l) for n in range(1, 5) for l in range(n)])
    def test_default_grid_resolves_table_state(self, n, l):
        # the one contour resolves all three coefficients of every table state
        fit = fit_field_series(QuantumState(n, l, l))
        for (p, exact), tolerance in zip(coefficients(n, l).items(), (1e-11, 1e-8, 1e-4)):
            assert abs(fit.coefficients[p] - float(exact)) <= tolerance * abs(float(exact))

    def test_uncertainty_covers_every_error(self):
        # every n <= 12 state at m = 120: c2, c4 and c6 each lie within their
        # reported uncertainty of the exact value, and c2 and c4 within 1e-11
        # and 1e-8 of it
        for n in range(1, 13):
            for l in range(n):
                fit = fit_field_series(QuantumState(n, l, l))
                errors = {p: abs(fit.coefficients[p] - float(exact)) for p, exact in coefficients(n, l).items()}
                for p, error in errors.items():
                    assert error <= fit.coefficient_uncertainty(p), (n, l, p)
                assert errors[2] <= 1e-11 * float(eps2_closed(n, l)), (n, l)
                assert errors[4] <= 1e-8 * abs(float(eps4_closed(n, l))), (n, l)

    @pytest.mark.parametrize("point", range(1, oracle.CONTOUR_POINTS // 2))
    def test_injected_error_is_seen(self, monkeypatch, point):
        # one complex point of the ground-state contour scaled by 1 + 1e-9:
        # c4 moves by more than three of its unperturbed uncertainties, and
        # the perturbed fit's own uncertainty still covers its error
        state, c4 = QuantumState(1, 0, 0), float(eps4_closed(1, 0))
        clean = fit_field_series(state)
        iterate_once, complex_points = oracle._inverse_iteration, []

        def perturbed(pencil, sigma, x, b):
            value, x, residual = iterate_once(pencil, sigma, x, b)
            if pencil.h.dtype == complex:
                complex_points.append(value)
                if len(complex_points) == point:
                    value *= 1 + 1e-9
            return value, x, residual

        monkeypatch.setattr(oracle, "_inverse_iteration", perturbed)
        fit = fit_field_series(state)
        assert len(complex_points) == oracle.CONTOUR_POINTS // 2 - 1
        assert abs(fit.coefficients[4] - clean.coefficients[4]) > 3 * clean.coefficient_uncertainty(4)
        assert abs(fit.coefficients[4] - c4) <= fit.coefficient_uncertainty(4)
        assert abs(clean.coefficients[4] - c4) <= clean.coefficient_uncertainty(4)

    def test_circular_c2_accuracy_edge(self):
        # the fit_field_series docstring's edge at m = 120: every circular
        # state (n, n - 1) fits c2 within 1e-11 of eps2, and inside its
        # uncertainty, until its bands overflow a double at l = 66
        for n in range(1, 67):
            fit = fit_field_series(QuantumState(n, n - 1, n - 1))
            error = abs(fit.coefficients[2] - float(eps2_closed(n, n - 1)))
            assert error <= 1e-11 * float(eps2_closed(n, n - 1)), n
            assert error <= fit.coefficient_uncertainty(2), n
        with pytest.raises(ValueError, match="l = 66, Z = 1, basis_size = 120 have entries too large for a double"):
            fit_field_series(QuantumState(67, 66, 66))

    @pytest.mark.parametrize("Z", [Fraction(2), Fraction(3), Fraction(1, 2)])
    @pytest.mark.parametrize("n,l", [(1, 0), (3, 1)])
    def test_grid_scales_with_charge(self, n, l, Z):
        # E(Z, b) = Z^2 E(1, b/Z^2): with b_rho scaled by Z^2 every charge
        # resolves c2 Z^2 = eps2, c4 Z^6 = eps4 and c6 Z^10 = eps6 as Z = 1 does
        fit = fit_field_series(QuantumState(n, l, l), Z)
        for (p, exact), tolerance in zip(coefficients(n, l).items(), (1e-11, 1e-8, 1e-4)):
            assert abs(fit.coefficients[p] * Z ** (2 * p - 2) - float(exact)) <= tolerance * abs(float(exact))

    @pytest.mark.parametrize("n,l,Z", [(n, l, 1) for n in range(1, 5) for l in range(n)] + [(3, 1, 2)])
    def test_coefficients_match_least_squares(self, monkeypatch, n, l, Z):
        # on the N roots of unity the powers below N are orthogonal, so the
        # contour's sums are the least-squares cubic in beta through its N
        # points: the fit's coefficients against numpy's lstsq on the points
        # it solved, completed by E(conj beta) = conj E(beta); the reference
        # fits the shifts E - E(0), which lstsq resolves far below the rounding
        # of E itself that the sums carry and the uncertainty allows for
        iterate_once, values = oracle._inverse_iteration, []

        def recording(*args):
            out = iterate_once(*args)
            values.append(out[0])
            return out

        monkeypatch.setattr(oracle, "_inverse_iteration", recording)
        fit = fit_field_series(QuantumState(n, l, l), Fraction(Z))
        N, half = oracle.CONTOUR_POINTS, oracle.CONTOUR_POINTS // 2
        upper = [fit.energies[1], *values[-half:]]  # E_0 .. E_N/2
        points = np.array(upper + [np.conj(e) for e in upper[-2:0:-1]]) - fit.energies[0]
        roots = np.exp(2j * np.pi * np.arange(N) / N)
        cubic = np.linalg.lstsq(np.vander(roots, 4, increasing=True), points, rcond=None)[0]
        rho = float(fit.fields[1]) ** 2
        for k, p in enumerate(oracle.FIT_POWERS[1:], start=1):
            assert abs(fit.coefficients[p] - cubic[k].real / rho**k) <= fit.coefficient_uncertainty(p)

    def test_fit_runs_no_least_squares_solver(self, monkeypatch):
        # the coefficients are explicit sums over the contour's points
        def forbidden(*args, **kwargs):
            raise AssertionError("a least-squares solver ran on the fit path")

        for name in ("lstsq", "pinv", "svd"):
            monkeypatch.setattr(np.linalg, name, forbidden)
        fit = fit_field_series(QuantumState(1, 0, 0))
        assert fit.coefficients[2] == pytest.approx(float(eps2_closed(1, 0)), rel=1e-11)

    def test_uncertainty_and_serialization(self):
        fit = fit_field_series(QuantumState(1, 0, 0))
        # the quartic estimate must sit within its reported uncertainty
        err4 = abs(fit.coefficients[4] - float(eps4_closed(1, 0)))
        assert err4 <= fit.coefficient_uncertainty(4)
        payload = fit.as_dict()
        assert payload["state"] == {"n": 1, "l": 0, "m_l": 0}
        assert payload["coefficients"]["2"] == fit.coefficients[2]
        assert payload["uncertainties"] == {str(p): fit.coefficient_uncertainty(p) for p in oracle.FIT_POWERS}
        assert all(type(value) is float for value in (*fit.energies, *fit.coefficients.values(), *fit.uncertainties.values()))
        # tolerances and verdicts are the CLI's, merged into its report (test_cli)
        assert "tolerances" not in payload and "verdicts" not in payload
        assert payload["grid"] == ["0", "1/20"]
        assert len(payload["energies"]) == len(payload["residuals"]) == 2

    @pytest.mark.parametrize("n,l", [(1, 0), (2, 1), (3, 1), (4, 0)])
    def test_basis_size_does_not_move_the_fit(self, n, l):
        # the docstring's Wigner bound: every allowed size has the exact e_1 .. e_13,
        # so only float rounding and the contour's aliasing remain, and they do not move
        state = QuantumState(n, l, l)
        fits = [fit_field_series(state, basis_size=m) for m in (state.n_r + 20, 120, 240, 480, 960)]
        assert len({repr((fit.energies, fit.coefficients, fit.uncertainties)) for fit in fits}) == 1

    def test_residuals_are_the_tracked_ones(self):
        # the fit keeps |H x - lambda O x| of the certified eigenpair at both fields
        state = QuantumState(2, 1, 1)
        fit = fit_field_series(state)
        pencil = rounded_pencil(1, Fraction(1), fit.basis_size, anchor(2, 1))
        tracked_pairs = _track(pencil, list(fit.fields), 0, float(anchor(2, 1)))
        assert fit.residuals == tuple(residual for _, _, residual in tracked_pairs)
        assert all(0 <= residual <= 1e-13 for residual in fit.residuals)
        assert fit.as_dict()["residuals"] == list(fit.residuals)


MODULES = ["zeeman2d", *sorted(f"zeeman2d.{m.name}" for m in pkgutil.iter_modules(zeeman2d.__path__))]


@pytest.mark.parametrize("name", MODULES)
def test_public_names_resolve(name):
    # every name a module exports exists, so a deletion cannot leave one behind
    module = importlib.import_module(name)
    for public in getattr(module, "__all__", ()):
        assert hasattr(module, public), f"{name}.__all__ names the missing {public}"
