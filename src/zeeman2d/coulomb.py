"""Zeroth-order planar Coulomb levels and the exact r^2 couplings of the window sum.

Canonical units throughout: hbar = m_e = e = 1/(4 pi eps0) = 1, so lengths
are Bohr radii, energies are Hartree, and the magnetic field unit B0 is 1.

At the level energy the Sturmian of level n is the bound state rescaled by
N/Z (N = n - 1/2), which is what makes the window sums exact.  Only squared
r^2 couplings are formed, in which the normalization roots cancel, so they
stay in the integers.  `_window_terms` is the one home of the window term:
it builds every term from `laguerre._moment3_factor` and ratios of a few
consecutive integers, and forms no factorial.  The squared coupling of the
bound state to the Sturmian n_r' is N^4 T_(n_r') / (64 Z^6), with T the
window term.

The module is also the one home of the input checks that every entry point
of the package shares (level labels, spin projection, charge) and of the
zeroth-order coefficient -2/q^2 (q = 2n - 1), which `energy0` scales by Z^2.
Its core `_eps0` keeps a bounded memo per n (`functools.lru_cache`, 256
entries); it takes only an n that `_check_level` has already made an `int`,
so no input reaches the memo unchecked.

`QuantumState`, like every record of the package, is an immutable named
tuple (`collections.namedtuple`): assigning to a field raises
`AttributeError`; it indexes, iterates and compares as a tuple; and
`_replace` (through `_make`) re-runs the checks of the constructor.  The
exact layers (`exactmath`, `laguerre`, `coulomb`, `perturb`, `reference`)
load no numpy, no scipy and no `inspect`.
"""

from __future__ import annotations

import functools
import operator
from collections import namedtuple
from fractions import Fraction

from .laguerre import _moment3_factor

__all__ = [
    "QuantumState",
    "eps0",
    "energy0",
]

HALF = Fraction(1, 2)


def _check_level(n: int, l: int) -> tuple[int, int]:
    """The one check of level labels: integral (`operator.index`), n >= 1, 0 <= l <= n-1."""
    n, l = operator.index(n), operator.index(l)
    if n < 1:
        raise ValueError("n must satisfy n >= 1")
    if not 0 <= l <= n - 1:
        raise ValueError("l must satisfy 0 <= l <= n-1")
    return n, l


def _check_spin(m_s) -> Fraction:
    """The one check of a spin projection: m_s = +-1/2, as a `Fraction`."""
    m_s = Fraction(m_s)
    if abs(m_s) != HALF:
        raise ValueError("m_s must be +1/2 or -1/2")
    return m_s


def _check_charge(Z) -> Fraction:
    """The one check of a nuclear charge: Z > 0, as a `Fraction`."""
    Z = Fraction(Z)
    if Z <= 0:
        raise ValueError("Z must be positive")
    return Z


class QuantumState(namedtuple("QuantumState", "n l m_l m_s")):
    """Bound-state labels (n, l, m_l) plus an optional spin projection.

    l counts radial symmetry: 0 <= l <= n-1 and |m_l| = l (the planar atom
    has a single angular quantum number; l is its magnitude).  m_s, when
    present, must be +-1/2.  The labels are taken through `operator.index`,
    so a float raises `TypeError` and every label is stored as an `int`.
    Like every record of the package it is an immutable named tuple, and
    `_replace` builds through the same checks.
    """

    __slots__ = ()

    def __new__(cls, n: int, l: int, m_l: int, m_s: Fraction | None = None) -> "QuantumState":
        n, l = _check_level(n, l)
        m_l = operator.index(m_l)
        if abs(m_l) != l:
            raise ValueError("m_l must satisfy |m_l| = l")
        m_s = None if m_s is None else _check_spin(m_s)
        return tuple.__new__(cls, (n, l, m_l, m_s))

    @classmethod
    def _make(cls, iterable) -> "QuantumState":
        return cls(*iterable)

    @property
    def n_r(self) -> int:
        """Radial node count n - l - 1."""
        return self.n - self.l - 1

    @property
    def effective_n(self) -> Fraction:
        """Half-integer effective principal number N = n - 1/2."""
        return Fraction(2 * self.n - 1, 2)


def eps0(n: int) -> Fraction:
    """Zeroth order: -1/(2 N^2) = -2/q^2 with q = 2n - 1."""
    n, _ = _check_level(n, 0)
    return _eps0(n)


@functools.lru_cache(maxsize=256)
def _eps0(n: int) -> Fraction:
    """The unchecked core of `eps0`, the one home of -2/q^2, memoized per checked n."""
    q = 2 * n - 1
    return Fraction(-2, q * q)


def energy0(state: QuantumState, Z: Fraction = Fraction(1)) -> Fraction:
    """Unperturbed level energy eps0(n) Z^2 = -Z^2 / (2 N^2) in Hartree."""
    Z = _check_charge(Z)
    return eps0(state.n) * Z * Z


def _window_terms(n_r: int, alpha: int) -> tuple[tuple[int, ...], int]:
    """The window terms T_j = B_j^2 / (P_{n_r} P_j), j = n_r - 3 .. n_r + 3, over one denominator.

    Here P_i = perm(i+alpha, alpha), and B_j, the third moment M(n_r, j) of
    `laguerre`, is c_j P_lo with c_j = `_moment3_factor`(lo, |j - n_r|, alpha)
    and lo = min(j, n_r).  Above the level, j = n_r + d,

        T_j = c_j^2 V'_d / V_d,  V'_d = prod(n_r+1..j),  V_d = prod(n_r+alpha+1..j+alpha).

    Below it, j = n_r - d, B_j = s_j P_{n_r} with s_j = c_j U_d / L_d,
    U_d = prod(j+1..n_r) and L_d = prod(j+alpha+1..n_r+alpha), an exact
    integer whose remainder is checked, not assumed; then T_j = s_j^2 L_d / U_d.
    The denominators of each side nest, V_1 | V_2 | V_3 and U_1 | U_2 | U_3,
    so with m = min(n_r, 3) every term is an integer over D = V_3 U_m.
    Returns ((T_{n_r-3} D, ..., T_{n_r+3} D), D), not reduced, with 0 for
    j < 0.  Each ratio grows by one integer a step, so no factorial is formed.
    """
    # below the level; U grows by j + 1 at each step, and the terms already
    # formed over the smaller U grow with it
    t1 = t2 = t3 = 0
    u = low = 1
    for d in range(1, min(n_r, 3) + 1):
        j = n_r - d
        u *= j + 1
        low *= j + alpha + 1
        s, rest = divmod(_moment3_factor(j, d, alpha) * u, low)
        if rest:
            raise ArithmeticError(
                f"the third moment M({n_r}, {j}) at alpha = {alpha} is not a multiple of perm({n_r + alpha}, {alpha})"
            )
        t = s * s * low
        if d == 1:
            t1 = t
        elif d == 2:
            t1, t2 = t1 * (j + 1), t
        else:
            t1, t2, t3 = t1 * (j + 1), t2 * (j + 1), t
    # above the level, over V_3: T_(n_r+d) V_3 = c^2 prod(n_r+1..n_r+d) prod(n_r+alpha+d+1..n_r+alpha+3)
    top = n_r + alpha
    w3 = top + 3
    w2 = (top + 2) * w3
    v = (top + 1) * w2
    u1 = n_r + 1
    u2 = u1 * (n_r + 2)
    c0, c1 = _moment3_factor(n_r, 0, alpha), _moment3_factor(n_r, 1, alpha)
    c2, c3 = _moment3_factor(n_r, 2, alpha), _moment3_factor(n_r, 3, alpha)
    return (
        t3 * v,
        t2 * v,
        t1 * v,
        c0 * c0 * v * u,
        c1 * c1 * u1 * w2 * u,
        c2 * c2 * u2 * w3 * u,
        c3 * c3 * u2 * (n_r + 3) * u,
    ), v * u
