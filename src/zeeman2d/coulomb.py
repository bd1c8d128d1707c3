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
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
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


@dataclass(frozen=True)
class QuantumState:
    """Bound-state labels (n, l, m_l) plus an optional spin projection.

    l counts radial symmetry: 0 <= l <= n-1 and |m_l| = l (the planar atom
    has a single angular quantum number; l is its magnitude).  m_s, when
    present, must be +-1/2.  The labels are taken through `operator.index`,
    so a float raises `TypeError` and every label is stored as an `int`.
    """

    n: int
    l: int
    m_l: int
    m_s: Fraction | None = None

    def __post_init__(self) -> None:
        n, l = _check_level(self.n, self.l)
        m_l = operator.index(self.m_l)
        if abs(m_l) != l:
            raise ValueError("m_l must satisfy |m_l| = l")
        m_s = None if self.m_s is None else _check_spin(self.m_s)
        for name, value in (("n", n), ("l", l), ("m_l", m_l), ("m_s", m_s)):
            object.__setattr__(self, name, value)

    @property
    def n_r(self) -> int:
        """Radial node count n - l - 1."""
        return self.n - self.l - 1

    @property
    def effective_n(self) -> Fraction:
        """Half-integer effective principal number N = n - 1/2."""
        return Fraction(2 * self.n - 1, 2)


def eps0(n: int) -> Fraction:
    """Zeroth order: -1/(2 N^2) = -2/q^2 with q = 2n - 1, the one home of the formula."""
    n, _ = _check_level(n, 0)
    q = 2 * n - 1
    return Fraction(-2, q * q)


def energy0(state: QuantumState, Z: Fraction = Fraction(1)) -> Fraction:
    """Unperturbed level energy eps0(n) Z^2 = -Z^2 / (2 N^2) in Hartree."""
    Z = _check_charge(Z)
    return eps0(state.n) * Z * Z


def _window_terms(n_r: int, alpha: int) -> dict[int, tuple[int, int]]:
    """T_j = B_j^2 / (P_{n_r} P_j) for every j with |j - n_r| <= 3, as integer pairs (num, den).

    Here P_i = perm(i+alpha, alpha), and B_j, the third moment M(n_r, j) of
    `laguerre`, is c_j P_lo with c_j = `_moment3_factor`(lo, |j - n_r|, alpha)
    and lo = min(j, n_r).  Writing B_j = s_j P_{n_r}, s_j is c_j itself for
    j >= n_r, and c_j prod(j+1..n_r) / prod(j+alpha+1..n_r+alpha) for
    j < n_r, an exact integer whose remainder is checked, not assumed.  Then
    T_j = s_j^2 P_{n_r}/P_j, where P_{n_r}/P_j is that same ratio of at most
    three consecutive integers on each side.  One running product per side
    of n_r extends the ratio by one integer a step, so no factorial is
    formed.  The pairs are not reduced.
    """
    terms = {}
    num = den = 1
    for d in range(4):
        if d:
            num *= n_r + d
            den *= n_r + d + alpha
        c = _moment3_factor(n_r, d, alpha)
        terms[n_r + d] = c * c * num, den
    num = den = 1
    for d in range(1, min(n_r, 3) + 1):
        j = n_r - d
        num *= j + 1
        den *= j + alpha + 1
        s, rest = divmod(_moment3_factor(j, d, alpha) * num, den)
        if rest:
            raise ArithmeticError(
                f"the third moment M({n_r}, {j}) at alpha = {alpha} is not a multiple of perm({n_r + alpha}, {alpha})"
            )
        terms[j] = s * s * den, num
    return terms
