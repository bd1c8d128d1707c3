"""Variational cross-check of the perturbative coefficients at finite field.

The full radial Hamiltonian (kinetic + centrifugal + Coulomb + diamagnetic
b^2 r^2 / 8) is projected onto a truncated basis of radial Sturmians held at
a fixed reference energy E* < 0.  Because each basis function solves a pure
Coulomb equation at E*, the kinetic + centrifugal action reduces to
(mu_j Z/r + E*) S_j, and with the weighted orthonormality of the basis every
matrix element becomes an exact rational:

    H_ij = (mu_j - 1) W_j delta_ij + E* O_ij + (beta/8) R_ij,   beta = b^2

in the unnormalized basis, where W_j is the (diagonal, rational) weighted
norm, O is the tridiagonal plain overlap and R the seven-banded r^2 moment.
`_exact_pieces` assembles all four bands (W, H0, O, R) in closed form, in
one pass over the basis that carries (i+2l)!/i! as a running ratio, O(m)
entries in all, each band a plain pair of integer numerators and one
denominator.  Floating point enters once per fit, when `_round_bands`
rounds each entry by one correctly rounded integer division and divides
basis function j by sqrt(W_j); that diagonal congruence keeps the overlap
well conditioned and leaves the generalized eigenvalues unchanged.  The
float bands have one layout, their diagonals aligned to their rows:
``band[j, i] = A[i, i + _OFFSETS[j]]``, zero outside A, each rounded entry
written to its +d row and its mirrored -d row.  LAPACK's band storages
are row selections of it (`_UPPER`, `_GENERAL`).
H(beta) = H0 + (beta/8) R is formed at each beta in those rows, in their dtype.

Each field is solved by banded shift-invert inverse iteration (Golub & Van
Loan, Matrix Computations, sec. 8.2), seeded with the eigenvector of the
previous field.  The shift sigma is that vector's Rayleigh quotient at the
new field, which is the new eigenvalue up to O(db^2) in the field step db,
so one step usually converges; only at b = 0 is the shift the level's known
energy, since the start vector there, the Sturmian e_target, is far from
the level on a basis held at another E*.  The Sturmian basis keeps the
level local, so each field works on the leading k = min(m, n_r +
BLOCK_MARGIN) basis functions: LAPACK's banded LU, xGBTRF, factors the
k x k leading block of H - sigma O once per field, and every step is one
xGBTRS on those factors (Anderson et al., LAPACK Users' Guide, SIAM 1999).
The iterate is zero past row k, so H x, O x, |H| |x| and |O| |x| are zero
past row k + 3, and a step's values over the first min(m, k + 3) rows are
the whole-basis ones: every pair passes the whole-basis residual test or
is a ConvergenceError.  The routines are scipy's f2py wrappers, taken from
its extension module `scipy.linalg._flapack`, which is loaded from its
file without running the `scipy` or `scipy.linalg` package code.
`_lapack_funcs` picks the routines of the band's dtype, so one iteration
serves a real beta on float rows and a complex beta or shift on complex ones.
The four band products of a step (H x, O x, |H| |x| and |O| |x|) are one
einsum on those rows, over the diagonals of the four bands aligned to their
rows, H and O paired with seven shifted copies of x, |H| and |O| with those
of |x|, all taken from one zero-padded buffer that holds x and |x| once
each.  The seven terms of every element are added in a fixed order: the
diagonal, then diagonal +d before -d for d = 1, 2, 3.  This is the order of
the seven-slice accumulation that the tests keep as the reference, so
every product has its bits (up to the sign of an exact zero).  A fit builds
this workspace, `_Pencil`, once, with the rows of O, |O| and the padding;
each field rewrites only the rows of H and |H|.
On a real pencil, Sylvester's law of inertia certifies every level index on
the whole basis: the m-row H - sigma O has exactly as many negative
eigenvalues as the pencil has levels below sigma, and a radial channel has
no crossings.  The count costs O(m) (spectrum slicing, Parlett, The
Symmetric Eigenvalue Problem, ch. 3): a banded Cholesky factorization,
xPBTRF, shows a trailing block positive definite, and by Haynsworth's
inertia additivity the count is then that of a small dense Schur
complement on the leading block.  The inverse of that complement is the
leading block of (H - sigma O)^-1, so its eigenvalues lie no closer to zero
than the spectrum of H - sigma O: the certificate keeps its margin of
CERTIFICATE_WIDTH |lambda| around sigma.

`fit_field_series` is the one way in.  It holds the Sturmians at the
tracked level's own energy, E* = `energy0(state, Z)`; `_exact_pieces` and
`_round_bands` also take any other E* with a rational sqrt(-2 E*).  It
certifies the level at b = 0 and at the one field `contour_field` gives,
b_rho, then solves it at twelve points on the circle |beta| = b_rho^2, and
reads the coefficients off them by the trapezoidal rule for the Cauchy
integral, as explicit sums; the result keeps the residual of the certified
eigenpair at both fields.
"""

from __future__ import annotations

import cmath
import importlib.util
import itertools
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
from .perturb import coefficient_set

_single_threaded_blas()  # before numpy loads, which is when OpenBLAS sizes its pool

import numpy as np  # noqa: E402

__all__ = [
    "FieldFitResult",
    "ConvergenceError",
    "LevelCrossingError",
    "DEFAULT_BASIS_SIZE",
    "fit_field_series",
    "contour_field",
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
# A fit iterates on the leading n_r + BLOCK_MARGIN basis functions.  At b_rho
# every component of the tracked eigenvector above 2^-60 lies within n_r + 22
# rows, for every n <= 12 state and for (20, .), (30, .), (40, .), (60, 59)
# and (80, 0) at Z = 1, 3/2.  From a margin of 30 on, the n <= 8 fits keep the
# bits of the whole-basis iteration; at 4 or 8 the residual test refuses them.
BLOCK_MARGIN = 40


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
            f"not {expected} and {expected + 1}"
        )


def _exact_pieces(l: int, Z: Fraction, basis_size: int, reference: Fraction) -> tuple:
    """Field-independent exact bands in closed form, on integers.

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
    the third moment over q_i.  That factor is a cubic in i, so each of R's
    diagonals takes it from a difference table (`_cubic_run`) seeded with
    its values at i = 0 .. 3, whatever the basis size: the formula keeps its
    one home in `laguerre`, and each row adds integers instead of calling it.
    Raises ValueError for E* >= 0 and for an irrational sqrt(-2 E*), at
    which exact assembly is impossible.
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
    weighted_norm, h0_diag, h0_off, o_diag, o_off, s3_q = [], [], [], [], [], []
    for i in range(basis_size):
        a = 2 * i + alpha + 1
        up = (i + alpha + 1) * q
        weighted_norm.append(z * q)
        h0_diag.append(q * (a * p_zeta - four_s_z))
        h0_off.append(p_zeta * up)
        o_diag.append(a * q * s)
        o_off.append(-up * s)
        s3_q.append(s3 * q)
        q = up // (i + 1)
    r2 = []
    for d in range(HALF_BANDWIDTH + 1):
        factors = _cubic_run([_moment3_factor(i, d, alpha) for i in range(4)])
        r2.append(tuple(map(operator.mul, s3_q[: max(basis_size - d, 0)], factors)))
    return (
        ((tuple(weighted_norm),), zeta),
        ((tuple(h0_diag), tuple(h0_off[:-1])), 4 * s * zeta),
        ((tuple(o_diag), tuple(o_off[:-1])), 2 * p),
        (tuple(r2), 8 * p**3),
    )


def _cubic_run(values: list[int]):
    """The values at i = 0, 1, 2, ... of the cubic in i that takes ``values`` at i = 0 .. 3.

    An endless iterator, by forward differences: the third difference is
    constant, and each lower one is the running sum of the one above it,
    started at its value at i = 0.
    """
    f0, f1, f2, f3 = values
    run = itertools.repeat(f3 - 3 * f2 + 3 * f1 - f0)
    for start in (f2 - 2 * f1 + f0, f1 - f0, f0):
        run = itertools.accumulate(run, initial=start)
    return run


# The order in which every element of a band product adds its seven terms:
# the diagonal, then diagonal +d before -d for d = 1, 2, 3.  Row j of an
# aligned band holds diagonal _OFFSETS[j]: ``band[j, i] = A[i, i + _OFFSETS[j]]``.
_OFFSETS = (0, 1, -1, 2, -2, 3, -3)
# LAPACK's band storages as rows of an aligned band.  Row u + k of the general
# storage (kl = ku = u) and row k of the upper storage hold, at column j,
# A[j + k - u, j] = A[j, j + k - u]: the aligned row of offset k - u.
_GENERAL = [_OFFSETS.index(d) for d in range(-HALF_BANDWIDTH, HALF_BANDWIDTH + 1)]
_UPPER = slice(2 * HALF_BANDWIDTH, None, -2)  # the rows _GENERAL[: HALF_BANDWIDTH + 1], as a view


def _round_bands(l: int, Z: Fraction, basis_size: int, reference: Fraction) -> tuple:
    """Round the exact bands once into aligned rows (H0, R, O), dividing basis function j by sqrt(W_j).

    Each entry is one correctly rounded integer division num / den, scaled
    once and written to the rows of both diagonals +d and -d.  Raises
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

    def aligned(diagonals: list[np.ndarray]) -> np.ndarray:
        band = np.zeros((len(_OFFSETS), m))
        for d, values in enumerate(diagonals):
            entries = values * scale[: m - d] * scale[d:]
            band[_OFFSETS.index(d), : max(m - d, 0)] = band[_OFFSETS.index(-d), d:] = entries
        return band

    return aligned(h0), aligned(r2), aligned(overlap)


class _Pencil:
    """One fit's pencil (H, O) at its current field, with the workspace of its step products.

    It takes the aligned rows of H0, R and O from `_round_bands`, over m
    basis functions, and the size k of the leading block that the iteration
    works on, ``block`` (all m when None).  One (2, 2, 7, m) array, of O's
    dtype, pairs the rows of H and O (``h`` and ``overlap``) with x, and
    those of |H| and |O| with |x|; ``_leading`` is its first w = min(m,
    k + 3) columns.  `at` moves the pencil to beta = b^2: H = H0 + (beta/8) R
    in the rows' own scalar type, and |H| on the first w columns; those of O
    and |O| and the padding are written once.  `shifted` hands out the
    aligned rows of H - sigma O on the block's columns.  `products` takes x
    on the block, zero past it, and gives the first w rows of the products,
    which are zero past them.  It writes x and |x| once each into a
    (2, w + 6) zero-padded buffer, copies two window views of it into the
    shifted copies x[i + s], |x|[i + s] for s in _OFFSETS, and forms the four
    products by one einsum over the diagonal axis.  einsum adds the seven
    terms of each element in the order of _OFFSETS, the order in which the
    seven-slice accumulation y = A_0 x, y[:-d] += A_+d x[d:], y[d:] +=
    A_-d x[:-d] adds them, so both give the same bits wherever their
    elementwise products agree (the sign of an exactly zero element aside).
    """

    def __init__(self, h0: np.ndarray, r2: np.ndarray, overlap: np.ndarray, block: int | None = None):
        u, m, dtype = HALF_BANDWIDTH, overlap.shape[1], overlap.dtype
        self.block = m if block is None else min(block, m)
        width = min(m, self.block + u)
        self._h0, self._r2 = h0, r2
        diagonals = np.zeros((2, 2, len(_OFFSETS), m), dtype)
        self.h, self.overlap = diagonals[0]
        self.overlap[...] = overlap
        self._leading = diagonals[..., :width]
        np.abs(self._leading[0, 1], out=self._leading[1, 1])
        padded = np.zeros((2, width + 2 * u), dtype)
        self._vectors = padded[:, u : u + self.block]
        self._copied = np.empty((2, len(_OFFSETS), width), dtype)
        windows = np.lib.stride_tricks.sliding_window_view(padded, width, axis=-1)  # shifts -3 .. 3
        # shifts 0, -1, -2, -3 at the even rows and +1, +2, +3 at the odd ones
        self._copies = (
            (self._copied[:, 0::2], windows[:, u::-1]),
            (self._copied[:, 1::2], windows[:, u + 1 :]),
        )

    def at(self, beta: Fraction | complex) -> _Pencil:
        np.multiply(self._r2, self.h.dtype.type(beta / 8), out=self.h)
        np.add(self._h0, self.h, out=self.h)
        np.abs(self._leading[0, 0], out=self._leading[1, 0])
        return self

    def shifted(self, sigma: complex) -> np.ndarray:
        """The aligned rows of H - sigma O on the leading block's columns."""
        k = self.block
        return self.h[:, :k] - sigma * self.overlap[:, :k]

    def products(self, x: np.ndarray) -> np.ndarray:
        """The rows H x, O x, |H| |x| and |O| |x| on the first w columns, formed together."""
        self._vectors[0] = x
        np.abs(x, out=self._vectors[1])
        for copied, window in self._copies:
            np.copyto(copied, window)
        return np.einsum("akji,aji->aki", self._leading, self._copied).reshape(4, -1)


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


def _lu_solver(band: np.ndarray):
    """Factor the symmetric A held in aligned rows once; return its solve b -> A^-1 b.

    A is the matrix of the n columns of ``band``.  xGBTRF factors A in place
    in general band storage, which with kl = ku = u has 3u + 1 rows: the
    first u start at zero and take the fill-in of the row interchanges, and
    rows u .. 3u are the rows `_GENERAL` of ``band``.  Past the last row of
    A these hold the entries of ``band`` past its last column: zero for a
    whole basis, a leading block's coupling to the columns after it, and
    never read (LAPACK's dgbtrf, Further Details: such elements "are not
    used by the routine").  That storage is Fortran-ordered, so LAPACK
    factors it without a copy, and keeps the band's dtype, so a complex
    shift H - sigma O keeps its imaginary part.  Every solve is one xGBTRS
    on the factors (`scipy.linalg.solve_banded` runs the two together, as
    xGBSV, and so refactors at every call).  Both come from the directly
    loaded extension `scipy.linalg._flapack`, through `_lapack_funcs`, which
    picks the routines of the band's dtype.  Raises `np.linalg.LinAlgError`
    when A is exactly singular.
    """
    u = HALF_BANDWIDTH
    gbtrf, gbtrs = _lapack_funcs(("gbtrf", "gbtrs"), band)
    general = np.zeros((3 * u + 1, band.shape[1]), dtype=band.dtype, order="F")
    general[u:] = band[_GENERAL]
    lu, piv, info = gbtrf(general, u, u, overwrite_ab=True)
    _check_info("gbtrf", info)
    if info > 0:
        raise np.linalg.LinAlgError("singular matrix")

    def solve(rhs: np.ndarray) -> np.ndarray:
        y, info = gbtrs(lu, u, u, rhs, piv)
        _check_info("gbtrs", info)
        return y

    return solve


def _inverse_iteration(
    pencil: _Pencil, sigma: complex | None, x: np.ndarray, b: float
) -> tuple[complex, np.ndarray, float]:
    """(lambda, unit x, residual) of H x = lambda O x nearest the shift, iterating from x.

    x lives on the pencil's leading block of k basis functions, and is zero
    past it.  Each step solves the k x k leading block of (H - sigma O) y =
    O x; lambda is the Rayleigh quotient.  The products, lambda, the
    residual and the size are the whole-basis values (module docstring).
    The block of H - sigma O is factored at most once, at the first solve,
    and every step reuses the factors.  A ``sigma`` of None shifts at the
    Rayleigh quotient of the start vector, which the first step's products
    already give: for the eigenvector of a nearby field it is the new
    eigenvalue to second order in the field step.  A shift exactly at an
    eigenvalue, with x not its eigenvector, is a typed ConvergenceError.
    The four band products of a step (H x, O x, |H| |x|, |O| |x|) are one
    einsum in the fit's ``pencil``, whose aligned diagonals of H and O meet
    one copy of x and those of |H| and |O| one copy of |x|, each element
    adding its seven terms in the fixed order of _OFFSETS (`_Pencil`).  Real
    and complex rows share it: lambda is a float or a complex, x is scaled
    by the unconjugated sqrt(x @ x), and the residual and the size are the
    norms sqrt(v^H v); for a real vector each is sqrt(v @ v), which is what
    np.linalg.norm computes.
    """
    solve, k = None, pencil.block
    x = x / np.sqrt(x @ x)
    for solves in range(MAX_ITERATIONS + 1):
        hx, ox, abs_hx, abs_ox = pencil.products(x)
        value = (x @ hx[:k] / (x @ ox[:k])).item()
        r = hx - value * ox
        residual = math.sqrt(np.vdot(r, r).real)
        if not (cmath.isfinite(value) and math.isfinite(residual)):
            raise ConvergenceError(b, solves, residual, "produced a non-finite value or vector")
        size = math.sqrt(np.vdot(abs_hx, abs_hx).real) + abs(value) * math.sqrt(np.vdot(abs_ox, abs_ox).real)
        if residual <= RESIDUAL_TOL * size:
            return value, x, residual
        if solves == MAX_ITERATIONS:
            break
        try:
            if solve is None:
                solve = _lu_solver(pencil.shifted(value if sigma is None else sigma))
            y = solve(ox[:k])
        except np.linalg.LinAlgError:
            raise ConvergenceError(b, solves, residual, "hit an exactly singular H - sigma O") from None
        x = y / np.sqrt(y @ y)
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


def _levels_below(pencil: _Pencil, sigma: float, head: int) -> int:
    """Eigenvalues of the pencil below sigma: by Sylvester, the negative ones of A = H - sigma O.

    Haynsworth's additivity In(A) = In(A22) + In(S), with the Schur complement
    S = A11 - A12 A22^-1 A21 of the trailing block A22 = A[head:, head:], gives
    the count in O(m): a banded Cholesky factorization that succeeds shows A22
    positive definite, so the count is that of the head x head matrix S, which
    differs from A11 only in its last HALF_BANDWIDTH rows and columns.  The head
    is doubled while A22 is not positive definite; at full size A is counted
    directly.  Since S^-1 is the leading block of A^-1, |eig(S)| >= min |eig(A)|:
    the Schur count keeps the distance of sigma from the spectrum.  xPBTRF and
    `_dense` take A in upper band storage, formed from the views `_UPPER` of
    the pencil's whole-basis rows of H and O, whose leading columns hold the
    leading blocks.
    """
    a = pencil.h[_UPPER] - sigma * pencil.overlap[_UPPER]
    if a.dtype != np.float64:
        raise TypeError(f"Sylvester's inertia count needs a real H - sigma O, not {a.dtype}")
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


def _certify(pencil: _Pencil, value: float, target: int, b: float) -> None:
    """Raise LevelCrossingError unless ``value`` is the level of ``pencil`` with index ``target``.

    The levels below the target live mostly in the first basis functions, so
    the inertia counts start from a head of target + 1 functions.
    """
    width = CERTIFICATE_WIDTH * abs(value)
    below = _levels_below(pencil, value - width, target + 1)
    above = _levels_below(pencil, value + width, target + 1)
    if (below, above) != (target, target + 1):
        raise LevelCrossingError(target, below, above, b)


def _continue(pencil: _Pencil, start: Fraction, stop: Fraction, pair: tuple, target: int, depth: int = 0) -> tuple:
    """Certified (energy, vector, residual) of level ``target`` at field ``stop``.

    The iteration is seeded with ``pair``, the certified eigenpair at
    ``start``, and runs on the fit's ``pencil``, moved to ``stop``.  A step
    (start < stop) shifts at the Rayleigh quotient of the seed's vector at
    ``stop``; only the call at b = 0 (start == stop) shifts at the seed's
    energy.  A step that fails to converge or to certify is halved, up to
    MAX_HALVINGS times; the failure of the shortest step is raised.
    """
    try:
        shift = pair[0] if start == stop else None
        value, x, residual = _inverse_iteration(pencil.at(stop * stop), shift, pair[1], float(stop))
        _certify(pencil, value, target, float(stop))
        return value, x, residual
    except (ConvergenceError, LevelCrossingError):
        if depth == MAX_HALVINGS or start == stop:
            raise
    mid = (start + stop) / 2
    pair = _continue(pencil, start, mid, pair, target, depth + 1)
    return _continue(pencil, mid, stop, pair, target, depth + 1)


CONTOUR_POINTS = 12  # N: the contour's points beta_j = rho e^(2 pi i j / N)
WINDOW_FRACTION = Fraction(1, 100)  # the most |eps4 b^4| / |eps2 b^2| may reach at b_rho
FIT_POWERS = (0, 2, 4, 6)  # the powers of b whose coefficients a fit reports
_ROOTS = tuple(cmath.exp(2j * math.pi * j / CONTOUR_POINTS) for j in range(CONTOUR_POINTS))


def contour_field(state: QuantumState, Z: Fraction = Fraction(1)) -> Fraction:
    """The contour's field b_rho = b_max / 2^j, with b_max = Z^2 / (20 (2n-1)^2).

    j >= 0 is the smallest with |eps4| b^2 <= WINDOW_FRACTION |eps2| Z^4: the
    quartic term at most 1/100 of the quadratic one, decided in exact
    rationals.  E(Z, b) = Z^2 E(1, b / Z^2), so every charge sees the same
    reduced field.  The ratio at b_max grows like n^2 from 1.3e-4 at n = 1:
    j = 0 for every n <= 12, and j = 1, 2, 3, 4 at (20, 19), (40, 39),
    (80, 0) and (121, 0).
    """
    Z = _check_charge(Z)
    coefficients = coefficient_set(state.n, state.l)
    b = Z**2 / (20 * (2 * state.n - 1) ** 2)
    while abs(coefficients.eps4) * b * b > WINDOW_FRACTION * abs(coefficients.eps2) * Z**4:
        b /= 2
    return b


class FieldFitResult(
    namedtuple("FieldFitResult", "state Z basis_size fields energies residuals coefficients uncertainties")
):
    """The tracked level's coefficients in b, read off one contour in beta = b^2.

    ``fields`` are b = 0 and b_rho; ``energies`` and ``residuals`` hold the
    certified eigenvalue and |H x - lambda O x| at each.  ``coefficients``
    and ``uncertainties`` map each of `FIT_POWERS` to a float.
    """

    __slots__ = ()

    def coefficient_uncertainty(self, power: int) -> float:
        """The bound on the error of coefficient ``power`` (`fit_field_series`)."""
        return self.uncertainties[power]

    def as_dict(self) -> dict:
        return {
            "state": {"n": self.state.n, "l": self.state.l, "m_l": self.state.m_l},
            "Z": str(self.Z),
            "basis_size": self.basis_size,
            "grid": [str(b) for b in self.fields],
            "energies": list(self.energies),
            "residuals": list(self.residuals),
            "coefficients": {str(p): self.coefficients[p] for p in FIT_POWERS},
            "uncertainties": {str(p): self.uncertainties[p] for p in FIT_POWERS},
        }


def fit_field_series(
    state: QuantumState,
    Z: Fraction = Fraction(1),
    basis_size: int = DEFAULT_BASIS_SIZE,
) -> FieldFitResult:
    """c0, c2, c4 and c6 of E(b) = sum c_p b^p, by the Cauchy integral in beta = b^2.

    The level is tracked outward from b = 0 on Sturmians held at its own
    energy E* = ``energy0(state, Z)``, where it is exact, and certified at
    b = 0 and at b_rho = `contour_field(state, Z)`.  It is analytic in beta
    near 0, so c_2k is the Cauchy integral of E / beta^(k+1) on |beta| = rho
    = b_rho^2, which the trapezoidal rule on the N = CONTOUR_POINTS points
    beta_j = rho e^(2 pi i j / N) takes to within c_2(k+N) rho^N (Lyness &
    Moler, SIAM J. Numer. Anal. 4 (1967) 202; Trefethen & Weideman, SIAM
    Rev. 56 (2014) 385).  The bands are real, so E(conj beta) = conj E(beta):

        c_2k = [E_0 + (-1)^k E_(N/2) + 2 sum_(j=1..N/2-1) Re(E_j e^(-2 pi i jk/N))] / (N rho^k)

    with E_j = E(beta_j).  E_0 is the certified E(rho); E_(N/2) = E(-rho) is
    solved on the real pencil from the b = 0 vector, and E_1 .. E_(N/2-1) on
    one complex pencil, each from the vector of the point before, shifted
    at its Rayleigh quotient.  c0 is E(0).  The uncertainty of c_2k is the
    difference from the same sum over the N/2 even points, which aliases
    c_2(k+N/2) rho^(N/2), plus the rounding 2^-52 |E(0)|, both over rho^k.

    The basis size does not move the low orders.  At the anchor H0 - E* O
    is the diagonal (mu_i - 1) W_i, zero only at n_r, O is tridiagonal and
    R seven-banded, so the Rayleigh-Schrodinger vector x_k of order
    (b^2/8)^k is supported on n_r +- 3k.  By Wigner's 2n+1 rule the energy
    coefficient e_k needs only x_0 .. x_floor(k/2), so the truncated
    pencil's e_k equals the complete basis's while n_r + 3 floor(k/2) <
    basis_size: e_1 .. e_13, through b^26, at every allowed size.  Each
    field iterates on the leading n_r + BLOCK_MARGIN basis functions and is
    accepted and certified on all of them, so every basis_size >= n_r + 43
    iterates on the same block.

    At m = 120 the circular states (n, n - 1) fit c2 within 1e-11 of eps2
    up to (66, 65); from l = 66 on `_round_bands` raises ValueError, as a
    band entry overflows a double.  Raises ValueError, before any assembly,
    for Z <= 0 and for a ``basis_size`` below n_r + 20 (a float raises
    TypeError).
    """
    Z = _check_charge(Z)
    basis_size = operator.index(basis_size)
    if basis_size < state.n_r + 20:
        raise ValueError(f"basis_size must be at least n_r + 20 = {state.n_r + 20}")
    b_rho = contour_field(state, Z)
    rho, half, b = b_rho * b_rho, CONTOUR_POINTS // 2, float(b_rho)
    anchor = energy0(state, Z)
    bands = _round_bands(state.l, Z, basis_size, anchor)
    block = min(basis_size, state.n_r + BLOCK_MARGIN)
    real, start = _Pencil(*bands, block), np.zeros(block)
    start[state.n_r] = 1.0  # the Sturmian e_(n_r): the exact eigenvector at b = 0
    zero = _continue(real, Fraction(0), Fraction(0), (float(anchor), start, 0.0), state.n_r)
    top = _continue(real, Fraction(0), b_rho, zero, state.n_r)
    values, x = [top[0]], top[1]
    complex_rows = _Pencil(*(band[:, : block + HALF_BANDWIDTH].astype(complex) for band in bands), block)
    for j in range(1, half):
        value, x, _ = _inverse_iteration(complex_rows.at(float(rho) * _ROOTS[j]), None, x, b)
        values.append(value)
    values.append(_inverse_iteration(real.at(-rho), None, zero[1], b)[0])

    def sums(stride: int) -> list[float]:  # rho^k c_2k from the points j = 0, stride, 2 stride, ...
        return [
            (values[0] + (-1) ** k * values[half]
             + 2 * sum((values[j] * _ROOTS[-j * k % CONTOUR_POINTS]).real for j in range(stride, half, stride)))
            * stride / CONTOUR_POINTS
            for k in range(len(FIT_POWERS))
        ]

    coefficients, uncertainties = {}, {}
    for k, (p, full, even) in enumerate(zip(FIT_POWERS, sums(1), sums(2))):
        scale = float(rho**k)
        coefficients[p] = full / scale
        uncertainties[p] = (abs(full - even) + 2**-52 * abs(zero[0])) / scale
    coefficients[0] = zero[0]
    return FieldFitResult(
        state=state,
        Z=Z,
        basis_size=basis_size,
        fields=(Fraction(0), b_rho),
        energies=(zero[0], top[0]),
        residuals=(zero[2], top[2]),
        coefficients=coefficients,
        uncertainties=uncertainties,
    )
