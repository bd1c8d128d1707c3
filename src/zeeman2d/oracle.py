"""Variational cross-check of the perturbative coefficients at finite field.

The full radial Hamiltonian (kinetic + centrifugal + Coulomb + diamagnetic
b^2 r^2 / 8) is projected onto a truncated basis of radial Sturmians held at
a fixed reference energy E* < 0.  Because each basis function solves a pure
Coulomb equation at E*, the kinetic + centrifugal action reduces to
(mu_j Z/r + E*) S_j, and with the weighted orthonormality of the basis every
matrix element becomes an exact rational:

    H_ij = (mu_j - 1) W_j delta_ij + E* O_ij + (b^2/8) R_ij

in the unnormalized basis, where W_j is the (diagonal, rational) weighted
norm, O is the tridiagonal plain overlap and R the seven-banded r^2 moment.
`_exact_pieces` assembles all four bands (W, H0, O, R) in closed form in one
pass over the basis, O(m) entries in all, each band a plain pair of integer
numerators and one denominator.  Floating point enters once per fit, when
`_round_bands` rounds each entry by one correctly rounded integer division
and divides basis function j by sqrt(W_j); that diagonal congruence keeps
the overlap well conditioned and leaves the generalized eigenvalues
unchanged.  H(b) = H0 + (b^2/8) R is then formed in float at each field.

Each field is solved by banded shift-invert inverse iteration (Golub & Van
Loan, Matrix Computations, sec. 8.2), seeded with the eigenpair of the
previous field.  H - sigma O is factored once per field by LAPACK's banded
LU, xGBTRF, and every step is one xGBTRS on those factors (Anderson et al.,
LAPACK Users' Guide, SIAM 1999).  The routines are scipy's f2py wrappers,
taken from its extension module `scipy.linalg._flapack`, which is loaded
from its file without running the `scipy` or `scipy.linalg` package code.
`_lapack_funcs` picks the routines of the band's dtype, so a complex shift
takes the same path.
The four band products of a step (H x, O x, |H| |x| and |O| |x|) are one
einsum over the diagonals of the four bands aligned to their rows, H and O
paired with seven shifted copies of x, |H| and |O| with those of |x|, all
taken from one zero-padded buffer that holds x and |x| once each.  The
seven terms of every element are added in a fixed order: the diagonal,
then diagonal +d before -d for d = 1, 2, 3.  This is the order of the
seven-slice accumulation that the tests keep as the reference, so every
product has its bits (up to the sign of an exact zero).  A fit builds
this workspace, `_Pencil`, once, with the rows of O, |O| and the padding;
each field rewrites only the rows of H and |H|.
Sylvester's law of inertia certifies the level index of every result:
H - sigma O has exactly as many negative eigenvalues as the pencil has
levels below sigma, and a radial channel has no crossings.  The count costs
O(m) (spectrum slicing, Parlett, The Symmetric Eigenvalue Problem, ch. 3):
a banded Cholesky factorization, xPBTRF, shows a trailing block positive
definite, and by Haynsworth's inertia additivity the count is then that of
a small dense Schur complement on the leading block.  The inverse
of that complement is the leading block of (H - sigma O)^-1, so its
eigenvalues lie no closer to zero than the spectrum of H - sigma O: the
certificate keeps its margin of CERTIFICATE_WIDTH |lambda| around sigma.

`fit_field_series` is the one way in.  It holds the Sturmians at the
tracked level's own energy, E* = `energy0(state, Z)`; `_exact_pieces` and
`_round_bands` also take any other E* with a rational sqrt(-2 E*).  It walks
the one field grid, `default_field_grid` (nine fields from 0 to
b_max = Z^2 / (20 (2n-1)^2)), this way and fits an even polynomial in b to
recover the quadratic and quartic coefficients by one fixed projection of
the tracked energies, formed once at import, whose conditioning is the
constant GRID_CONDITIONING; the result keeps the residual of the certified
eigenpair at each field.
"""

from __future__ import annotations

import importlib.util
import math
import operator
import os
from collections import namedtuple
from fractions import Fraction
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder

from . import _single_threaded_blas
from .coulomb import QuantumState, _check_charge, energy0
from .exactmath import rational_sqrt
from .laguerre import _moment3_factor
from .perturb import assemble_energy

_single_threaded_blas()  # before numpy loads, which is when OpenBLAS sizes its pool

import numpy as np  # noqa: E402

__all__ = [
    "FieldFitResult",
    "ConvergenceError",
    "LevelCrossingError",
    "DEFAULT_BASIS_SIZE",
    "fit_field_series",
    "default_field_grid",
]

DEFAULT_BASIS_SIZE = 120
HALF_BANDWIDTH = 3  # R couples |i - j| <= 3; O only |i - j| <= 1
MAX_ITERATIONS = 20
MAX_HALVINGS = 12  # of a field step that fails to converge or certify
# Converged when |H x - lambda O x| <= RESIDUAL_TOL (||H| |x|| + |lambda| ||O| |x||),
# a multiple of the rounding error of the residual itself.
RESIDUAL_TOL = 1e-13
# The inertia certificate counts levels below lambda -+ CERTIFICATE_WIDTH |lambda|:
# far inside the level spacing, yet wide enough that rounding in H - sigma O
# cannot flip a count.
CERTIFICATE_WIDTH = 1e-6


class ConvergenceError(RuntimeError):
    """Inverse iteration gave no finite, converged eigenpair at field b."""

    def __init__(self, b: float, iterations: int, residual: float, reason: str):
        self.b = b
        self.iterations = iterations
        self.residual = residual
        super().__init__(
            f"inverse iteration at b = {b} {reason} after {iterations} solves "
            f"(residual {residual:.3g})"
        )


class LevelCrossingError(RuntimeError):
    """The converged eigenvalue is not the tracked level (inertia count mismatch)."""

    def __init__(self, expected: int, below: int, above: int, b: float):
        self.expected = expected
        self.counts = (below, above)
        self.b = b
        super().__init__(
            f"eigenvalue tracking lost level {expected} at b = {b}: the pencil has "
            f"{below} levels just below the converged value and {above} just above it, "
            f"not {expected} and {expected + 1}; refine the field grid"
        )


def _exact_pieces(l: int, Z: Fraction, basis_size: int, reference: Fraction) -> tuple:
    """Field-independent exact bands in closed form, on integers, in one pass.

    Returns (weighted_norm, h0, overlap, r2), each a pair (diagonals,
    denominator) in which ``diagonals[d][i]`` is the entry (i, i+d) times
    the denominator (> 0): the diagonal W, the diagonal and first
    off-diagonal of H0 = D + E* O, the two diagonals of O and the four of R.
    With alpha = 2l, the running ratio q_i = (i+alpha)!/i! (q_0 = alpha!),
    a_i = 2i+alpha+1, k = sqrt(-2 E*) = p/s and Z = z/zeta in lowest terms:
    W_i = z q_i/zeta, O_ii = a_i q_i s/(2p), O_i,i+1 = -(i+alpha+1) q_i s/(2p),
    H0_ii = (mu_i - 1) W_i + E* O_ii = q_i (a_i p zeta - 4 s z)/(4 s zeta) with
    mu_i = a_i k/(2Z), H0_i,i+1 = E* O_i,i+1 = p (i+alpha+1) q_i/(4s), and
    R_i,i+d = s^3 q_i c/(8 p^3), with c = `laguerre._moment3_factor`(i, d, alpha)
    the third moment over q_i.  Raises ValueError for E* >= 0 and for an
    irrational sqrt(-2 E*), at which exact assembly is impossible.
    """
    if reference >= 0:
        raise ValueError("reference energy must be negative")
    k = rational_sqrt(-2 * reference)
    if k is None:
        raise ValueError("exact assembly needs a rational Sturmian scale sqrt(-2 E*)")
    p, s = k.numerator, k.denominator
    z, zeta = Z.numerator, Z.denominator
    alpha = 2 * l
    p_zeta, four_s_z, s3 = p * zeta, 4 * s * z, s**3
    q = math.factorial(alpha)
    weighted_norm, h0_diag, h0_off, o_diag, o_off = [], [], [], [], []
    r0, r1, r2, r3 = [], [], [], []
    for i in range(basis_size):
        a = 2 * i + alpha + 1
        up = (i + alpha + 1) * q
        weighted_norm.append(z * q)
        h0_diag.append(q * (a * p_zeta - four_s_z))
        h0_off.append(p_zeta * up)
        o_diag.append(a * q * s)
        o_off.append(-up * s)
        sq = s3 * q
        r0.append(sq * _moment3_factor(i, 0, alpha))
        r1.append(sq * _moment3_factor(i, 1, alpha))
        r2.append(sq * _moment3_factor(i, 2, alpha))
        r3.append(sq * _moment3_factor(i, 3, alpha))
        q = up // (i + 1)
    return (
        ((tuple(weighted_norm),), zeta),
        ((tuple(h0_diag), tuple(h0_off[:-1])), 4 * s * zeta),
        ((tuple(o_diag), tuple(o_off[:-1])), 2 * p),
        ((tuple(r0), tuple(r1[:-1]), tuple(r2[:-2]), tuple(r3[:-3])), 8 * p**3),
    )


class FloatBands(namedtuple("FloatBands", "h0 r2 overlap")):
    """Normalized float H0, R and O (numpy arrays) in LAPACK upper band storage.

    Row HALF_BANDWIDTH - d holds diagonal d: ``band[3 - d, j] = A[j - d, j]``.
    Columns 0..m'-1 hold the leading m' x m' block, so slicing them is the
    same problem in the first m' basis functions.
    """

    __slots__ = ()

    def hamiltonian(self, b: Fraction) -> np.ndarray:
        return self.h0 + float(b * b / 8) * self.r2


def _round_bands(l: int, Z: Fraction, basis_size: int, reference: Fraction) -> FloatBands:
    """Round the exact bands once, dividing basis function j by sqrt(W_j).

    Each entry is one correctly rounded integer division num / den.  Raises
    ValueError when an entry or W_j is too large for a double.
    """
    m = basis_size
    try:
        (weighted_norm,), h0, overlap, r2 = [
            [np.array([num / den for num in diagonal]) for diagonal in diagonals]
            for diagonals, den in _exact_pieces(l, Z, m, reference)
        ]
    except OverflowError:
        raise ValueError(
            f"the Galerkin bands at l = {l}, Z = {Z}, basis_size = {m} "
            "have entries too large for a double"
        ) from None
    scale = 1 / np.sqrt(weighted_norm)

    def upper(diagonals: list[np.ndarray]) -> np.ndarray:
        band = np.zeros((HALF_BANDWIDTH + 1, m))
        for d, values in enumerate(diagonals):
            band[HALF_BANDWIDTH - d, d:] = values * scale[: m - d] * scale[d:]
        return band

    return FloatBands(h0=upper(h0), r2=upper(r2), overlap=upper(overlap))


# The order in which every element of a band product adds its seven terms:
# the diagonal, then diagonal +d before -d for d = 1, 2, 3.
_OFFSETS = (0, 1, -1, 2, -2, 3, -3)


def _align(band: np.ndarray, out: np.ndarray) -> None:
    """Write the diagonals of the symmetric A held in upper band storage, aligned to their rows.

    ``out[j, i]`` becomes A[i, i + _OFFSETS[j]]; the entries outside A keep
    the zeros of ``out``.
    """
    u, m = band.shape[0] - 1, band.shape[1]
    out[0] = band[u]
    for d in range(1, u + 1):
        out[2 * d - 1, : max(m - d, 0)] = band[u - d, d:]
        out[2 * d, d:] = band[u - d, d:]


class _Pencil:
    """One fit's pencil (H, O) at its current field, with the workspace of its step products.

    ``_diagonals`` (2, 2, 7, m), of O's dtype, pairs the rows of H and O,
    aligned by `_align`, with x, and those of |H| and |O| with |x|.
    `products` writes x and |x| once each into a (2, m + 6) buffer padded
    with HALF_BANDWIDTH zeros at each end, copies two window views of it
    into the shifted copies x[i + s], |x|[i + s] for s in _OFFSETS, and
    forms the four products by one einsum over the diagonal axis.  einsum
    adds the seven terms of each element in the order of _OFFSETS, the
    order in which the seven-slice accumulation y = A_0 x, y[:-d] +=
    A_+d x[d:], y[d:] += A_-d x[:-d] adds them, so both give the same bits
    wherever their elementwise products agree (the sign of an exactly zero
    element aside).  `at` moves the pencil to a field by rewriting only the
    rows of H and |H|; those of O and |O| and the padding are written once.
    """

    def __init__(self, overlap: np.ndarray):
        u, m, dtype = HALF_BANDWIDTH, overlap.shape[1], overlap.dtype
        self.overlap, self.h = overlap, None
        self._diagonals = np.zeros((2, 2, len(_OFFSETS), m), dtype)
        padded = np.zeros((2, m + 2 * u), dtype)
        self._vectors = padded[:, u : u + m]
        self._shifted = np.empty((2, len(_OFFSETS), m), dtype)
        windows = np.lib.stride_tricks.sliding_window_view(padded, m, axis=-1)  # shifts -3 .. 3
        # shifts 0, -1, -2, -3 at the even rows and +1, +2, +3 at the odd ones
        self._copies = (
            (self._shifted[:, 0::2], windows[:, u::-1]),
            (self._shifted[:, 1::2], windows[:, u + 1 :]),
        )
        _align(overlap, self._diagonals[0, 1])
        np.abs(self._diagonals[0, 1], out=self._diagonals[1, 1])

    def at(self, h: np.ndarray) -> _Pencil:
        self.h = h
        _align(h, self._diagonals[0, 0])
        np.abs(self._diagonals[0, 0], out=self._diagonals[1, 0])
        return self

    def products(self, x: np.ndarray) -> np.ndarray:
        """The rows H x, O x, |H| |x| and |O| |x|, formed together."""
        self._vectors[0] = x
        np.abs(x, out=self._vectors[1])
        for shifted, window in self._copies:
            np.copyto(shifted, window)
        return np.einsum("akji,aji->aki", self._diagonals, self._shifted).reshape(4, -1)


def _load_flapack():
    """scipy's LAPACK extension module, loaded from its file alone (module docstring).

    `importlib.util.find_spec` locates the scipy directory without running
    any scipy code.  Like any single-phase extension, the module registers
    itself in ``sys.modules`` as ``scipy.linalg._flapack``, and loading it
    again returns that same module.  A later ``import scipy.linalg`` uses
    that module too, so scipy's own routines run the same wrappers (only
    the private attribute ``scipy.linalg._flapack`` is then left unset).
    Raises ImportError when scipy or the extension cannot be found.
    """
    name = "scipy.linalg._flapack"
    scipy_spec = importlib.util.find_spec("scipy")
    spec = None
    if scipy_spec is not None and scipy_spec.submodule_search_locations:
        linalg = os.path.join(scipy_spec.submodule_search_locations[0], "linalg")
        spec = FileFinder(linalg, (ExtensionFileLoader, EXTENSION_SUFFIXES)).find_spec(name)
    if spec is None:
        raise ImportError(f"the oracle needs scipy's LAPACK extension {name}, which was not found", name=name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_FLAPACK = _load_flapack()
# the prefixes `scipy.linalg.get_lapack_funcs` picks for these dtypes
_LAPACK_PREFIXES = {np.dtype(np.float64): "d", np.dtype(np.complex128): "z"}


def _lapack_funcs(names: tuple[str, ...], array: np.ndarray) -> list:
    """The LAPACK routines ``names`` (e.g. "gbtrf") for the dtype of ``array``.

    Raises TypeError for a dtype other than float64 or complex128.
    """
    try:
        prefix = _LAPACK_PREFIXES[array.dtype]
    except KeyError:
        raise TypeError(f"the oracle's LAPACK routines take float64 or complex128, not {array.dtype}") from None
    return [getattr(_FLAPACK, prefix + name) for name in names]


def _check_info(routine: str, info: int) -> None:
    """Raise ValueError on a LAPACK argument error (info < 0); info > 0 is the caller's."""
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of LAPACK {routine}")


def _general_storage(band: np.ndarray) -> np.ndarray:
    """The general band storage that xGBTRF factors in place, from upper storage.

    With kl = ku = u it has 3u + 1 rows: row 2u - d holds diagonal d, row
    2u + d diagonal -d, and the first u rows start at zero and take the
    fill-in of the row interchanges.  It is Fortran-ordered, so LAPACK
    factors it without a copy, and keeps the band's dtype, so a complex
    shift H - sigma O keeps its imaginary part.
    """
    u, m = band.shape[0] - 1, band.shape[1]
    full = np.zeros((3 * u + 1, m), dtype=band.dtype, order="F")
    full[u : 2 * u + 1] = band
    for d in range(1, u + 1):
        full[2 * u + d, : max(m - d, 0)] = band[u - d, d:]
    return full


def _lu_solver(band: np.ndarray):
    """Factor the symmetric A held in upper band storage once; return its solve b -> A^-1 b.

    xGBTRF forms the pivoted LU factors and every solve is one xGBTRS on
    them (`scipy.linalg.solve_banded` runs the two together, as xGBSV, and
    so refactors at every call).  Both come from the directly loaded
    extension `scipy.linalg._flapack`, through `_lapack_funcs`, which picks
    the routines of the band's dtype, so a complex shift takes the same
    path.  Raises `np.linalg.LinAlgError` when A is exactly singular.
    """
    u = band.shape[0] - 1
    gbtrf, gbtrs = _lapack_funcs(("gbtrf", "gbtrs"), band)
    lu, piv, info = gbtrf(_general_storage(band), u, u, overwrite_ab=True)
    _check_info("gbtrf", info)
    if info > 0:
        raise np.linalg.LinAlgError("singular matrix")

    def solve(rhs: np.ndarray) -> np.ndarray:
        y, info = gbtrs(lu, u, u, rhs, piv)
        _check_info("gbtrs", info)
        return y

    return solve


def _inverse_iteration(pencil: _Pencil, sigma: float, x: np.ndarray, b: float) -> tuple[float, np.ndarray, float]:
    """(lambda, unit x, residual) of H x = lambda O x nearest sigma, iterating from x.

    Each step solves (H - sigma O) y = O x; lambda is the Rayleigh quotient.
    H - sigma O is factored at most once, at the first solve, and every
    step reuses the factors.  The four band products of a step (H x, O x,
    |H| |x|, |O| |x|) are one einsum in the fit's ``pencil``, whose aligned
    diagonals of H and O meet one copy of x and those of |H| and |O| one
    copy of |x|, each element adding its seven terms in the fixed order of
    _OFFSETS (`_Pencil`).  Every norm is sqrt(v @ v), which is what
    np.linalg.norm computes for a real vector.
    """
    solve = None
    x = x / math.sqrt(x @ x)
    for solves in range(MAX_ITERATIONS + 1):
        hx, ox, abs_hx, abs_ox = pencil.products(x)
        value = float(x @ hx / (x @ ox))
        r = hx - value * ox
        residual = math.sqrt(r @ r)
        if not (math.isfinite(value) and math.isfinite(residual)):
            raise ConvergenceError(b, solves, residual, "produced a non-finite value or vector")
        size = math.sqrt(abs_hx @ abs_hx) + abs(value) * math.sqrt(abs_ox @ abs_ox)
        if residual <= RESIDUAL_TOL * size:
            return value, x, residual
        if solves == MAX_ITERATIONS:
            break
        try:
            if solve is None:
                solve = _lu_solver(pencil.h - sigma * pencil.overlap)
            y = solve(ox)
        except np.linalg.LinAlgError:
            raise ConvergenceError(b, solves, residual, "hit an exactly singular H - sigma O") from None
        x = y / math.sqrt(y @ y)
    raise ConvergenceError(b, MAX_ITERATIONS, residual, "did not converge")


def _dense(band: np.ndarray) -> np.ndarray:
    """The symmetric dense matrix held in upper band storage."""
    u, m = band.shape[0] - 1, band.shape[1]
    out = np.zeros((m, m), dtype=band.dtype)
    flat = out.reshape(-1)
    # entry (i, i + d) sits at flat index i (m + 1) + d, and (i + d, i) at i (m + 1) + d m
    flat[:: m + 1] = band[u]
    for d in range(1, min(u, m - 1) + 1):
        row = band[u - d, d:]
        flat[d : (m - d) * m : m + 1] = row
        flat[d * m :: m + 1] = row
    return out


def _levels_below(h: np.ndarray, overlap: np.ndarray, sigma: float, head: int) -> int:
    """Eigenvalues of the pencil below sigma: by Sylvester, the negative ones of A = H - sigma O.

    Haynsworth's additivity In(A) = In(A22) + In(S), with the Schur complement
    S = A11 - A12 A22^-1 A21 of the trailing block A22 = A[head:, head:], gives
    the count in O(m): a banded Cholesky factorization that succeeds shows A22
    positive definite, so the count is that of the head x head matrix S, which
    differs from A11 only in its last HALF_BANDWIDTH rows and columns.  The head
    is doubled while A22 is not positive definite; at full size A is counted
    directly.  Since S^-1 is the leading block of A^-1, |eig(S)| >= min |eig(A)|:
    the Schur count keeps the distance of sigma from the spectrum.
    """
    a = h - sigma * overlap
    u, m = HALF_BANDWIDTH, a.shape[1]
    pbtrf, pbtrs = _lapack_funcs(("pbtrf", "pbtrs"), a)
    while head < m:
        tail, info = pbtrf(a[:, head:])
        _check_info("pbtrf", info)
        if info > 0:
            head *= 2
            continue
        # A21 is zero outside its first u rows and last u columns
        lead = _dense(a[:, : head + u])
        edge = np.zeros((m - head, min(u, head)))
        edge[: lead.shape[0] - head] = lead[head:, :head][:, -u:]
        schur = lead[:head, :head]
        solved, info = pbtrs(tail, edge)
        _check_info("pbtrs", info)
        schur[-u:, -u:] -= edge.T @ solved
        if head == 1:
            return int(schur[0, 0] < 0)
        return int(np.count_nonzero(np.linalg.eigvalsh(schur) < 0))
    return int(np.count_nonzero(np.linalg.eigvalsh(_dense(a)) < 0))


def _certify(h: np.ndarray, overlap: np.ndarray, value: float, target: int, b: float) -> None:
    """Raise LevelCrossingError unless ``value`` is the level with index ``target``.

    The levels below the target live mostly in the first basis functions, so
    the inertia counts start from a head of target + 1 functions.
    """
    width = CERTIFICATE_WIDTH * abs(value)
    below = _levels_below(h, overlap, value - width, target + 1)
    above = _levels_below(h, overlap, value + width, target + 1)
    if (below, above) != (target, target + 1):
        raise LevelCrossingError(target, below, above, b)


def _continue(
    bands: FloatBands, pencil: _Pencil, start: Fraction, stop: Fraction, pair: tuple, target: int, depth: int = 0
) -> tuple:
    """Certified (energy, vector, residual) of level ``target`` at field ``stop``.

    The iteration is seeded with ``pair``, the certified eigenpair at
    ``start``, and runs on the fit's ``pencil``, moved to ``stop``.  A step
    that fails to converge or to certify is halved, up to MAX_HALVINGS
    times; the failure of the shortest step is raised.
    """
    h = bands.hamiltonian(stop)
    try:
        value, x, residual = _inverse_iteration(pencil.at(h), pair[0], pair[1], float(stop))
        _certify(h, bands.overlap, value, target, float(stop))
        return value, x, residual
    except (ConvergenceError, LevelCrossingError):
        if depth == MAX_HALVINGS or start == stop:
            raise
    mid = (start + stop) / 2
    pair = _continue(bands, pencil, start, mid, pair, target, depth + 1)
    return _continue(bands, pencil, mid, stop, pair, target, depth + 1)


def _track(bands: FloatBands, fields: list[Fraction], target: int, seed: float) -> list[tuple[float, float]]:
    """Certified (energy, residual) of level ``target`` at each field, in order.

    ``fields`` starts at b = 0, where the iteration starts from the Sturmian
    e_target (the exact eigenvector at the default anchor) with the shift
    ``seed``; every later field starts from the eigenpair of the one before.
    The walk runs on one `_Pencil`, created here.
    """
    pencil = _Pencil(bands.overlap)
    x = np.zeros(bands.overlap.shape[1])
    x[target] = 1.0
    pair, previous = (seed, x, 0.0), fields[0]
    tracked = []
    for b in fields:
        pair, previous = _continue(bands, pencil, previous, b, pair, target), b
        tracked.append((pair[0], pair[2]))
    return tracked


_FIELD_STEPS = tuple(Fraction(i, 8) for i in range(9))  # b / b_max on every grid
FIT_POWERS = (0, 2, 4, 6)
# Column p scaled by b_max^p is (i/8)^p on every grid: one full-rank design, whose
# pseudo-inverse is formed once (Golub & Van Loan, Matrix Computations, sec. 5.5).
_DESIGN = np.array([[float(step**p) for p in FIT_POWERS] for step in _FIELD_STEPS])
_PROJECTOR = np.linalg.pinv(_DESIGN)
GRID_CONDITIONING = float(np.linalg.cond(_DESIGN))


def default_field_grid(state: QuantumState, Z: Fraction = Fraction(1)) -> list[Fraction]:
    """Nine evenly spaced fields 0 .. b_max with b_max = Z^2 / (20 (2n-1)^2).

    E(Z, b) = Z^2 E(1, b / Z^2), so scaling b_max by Z^2 puts every charge
    on the same grid in reduced units.  At this extent eps2 b^2 / |eps0 Z^4|
    does not depend on n, so the quadratic signal stands equally far above
    the eigensolver noise for every level, and the quartic term is resolved
    too.  The grid stays well inside the perturbative window
    |eps4 b^4| < |eps2 b^2|: at b_max the ratio is 1.3e-4 for n = 1 and
    grows like n^2, to below 1e-2 at n = 12.
    """
    b_max = Fraction(Z) ** 2 / (20 * (2 * state.n - 1) ** 2)
    return [b_max * step for step in _FIELD_STEPS]


class FieldFitResult(
    namedtuple("FieldFitResult", "state Z basis_size fields energies residuals coefficients noise_floor")
):
    """Even-power fit of the tracked level's field dependence.

    ``fields``, ``energies`` and ``residuals`` are tuples, and
    ``coefficients`` maps each of `FIT_POWERS` to a float.  ``residuals``
    holds |H x - lambda O x| of the converged eigenpair at each field, in
    the order of ``fields``.  Every fit has the conditioning GRID_CONDITIONING.
    """

    __slots__ = ()

    def coefficient_uncertainty(self, power: int) -> float:
        """Crude one-sigma noise propagation: the projector row's norm over b_max^power.

        Only the rms residual is propagated, not the bias that the truncated
        b^8 tail leaves in the fitted coefficients.  For n >= 2 on the
        default grid this understates the c4 error about 10x: at (4, 0) the
        c4 error is 2.3e-5 of |c4| and the reported uncertainty 2.2e-6.
        """
        row = _PROJECTOR[FIT_POWERS.index(power)]
        return float(np.linalg.norm(row)) / float(self.fields[-1]) ** power * self.noise_floor

    def as_dict(self) -> dict:
        return {
            "state": {"n": self.state.n, "l": self.state.l, "m_l": self.state.m_l},
            "Z": str(self.Z),
            "basis_size": self.basis_size,
            "grid": [str(b) for b in self.fields],
            "energies": list(self.energies),
            "residuals": list(self.residuals),
            "coefficients": {str(p): self.coefficients[p] for p in FIT_POWERS},
            "uncertainties": {str(p): self.coefficient_uncertainty(p) for p in FIT_POWERS},
            "conditioning": GRID_CONDITIONING,
        }


def fit_field_series(
    state: QuantumState,
    Z: Fraction = Fraction(1),
    basis_size: int = DEFAULT_BASIS_SIZE,
) -> FieldFitResult:
    """Fit E(b) = c0 + c2 b^2 + c4 b^4 + c6 b^6 on ``default_field_grid(state, Z)``.

    The level is tracked outward from b = 0 on Sturmians held at its own
    energy E* = ``energy0(state, Z)``, where it is exact.  The fit is one
    fixed projection: `_PROJECTOR` maps E(b) - E(0) to the coefficients of
    (b/b_max)^p, and coefficient p is then divided by b_max^p.  c6 absorbs
    the first neglected order, so the window choice does not bias c4.

    The basis size does not move the low orders.  At the anchor H0 - E* O
    is the diagonal (mu_i - 1) W_i, zero only at n_r, O is tridiagonal and
    R seven-banded, so the Rayleigh-Schrodinger vector x_k of order
    (b^2/8)^k is supported on n_r +- 3k.  By Wigner's 2n+1 rule the energy
    coefficient e_k needs only x_0 .. x_floor(k/2), so the truncated
    pencil's e_k equals the complete basis's while n_r + 3 floor(k/2) <
    basis_size: e_1 .. e_13, through b^26, at every allowed size.
    Raises ValueError, before any assembly, for Z <= 0, for a ``basis_size``
    below n_r + 20 (a float raises TypeError) and when b_max lies outside
    the perturbative window |eps4 b^4| < |eps2 b^2|; the ratio grows with b,
    so the other fields then lie inside it too.
    """
    Z = _check_charge(Z)
    basis_size = operator.index(basis_size)
    if basis_size < state.n_r + 20:
        raise ValueError(f"basis_size must be at least n_r + 20 = {state.n_r + 20}")
    grid = default_field_grid(state, Z)
    if assemble_energy(state, Z, grid[-1]).regime_warning:
        raise ValueError(
            f"b_max = {grid[-1]} of the n = {state.n} field grid lies outside the perturbative window"
        )
    anchor = energy0(state, Z)
    tracked = _track(_round_bands(state.l, Z, basis_size, anchor), grid, state.n_r, float(anchor))
    energies, residuals = zip(*tracked)
    shifts = np.array(energies) - energies[0]
    scaled = _PROJECTOR @ shifts
    b_max = float(grid[-1])
    coefficients = {p: float(c) / b_max**p for p, c in zip(FIT_POWERS, scaled)}
    coefficients[0] += energies[0]
    rms = math.sqrt(float(np.mean((_DESIGN @ scaled - shifts) ** 2)))
    return FieldFitResult(
        state=state,
        Z=Z,
        basis_size=basis_size,
        fields=tuple(grid),
        energies=energies,
        residuals=residuals,
        coefficients=coefficients,
        noise_floor=max(1e-15 * max(map(abs, energies)), rms),
    )
