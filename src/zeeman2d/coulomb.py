"""Zeroth-order planar Coulomb levels and the exact r^2 couplings of the window sum.

Canonical units throughout: hbar = m_e = e = 1/(4 pi eps0) = 1, so lengths
are Bohr radii, energies are Hartree, and the magnetic field unit B0 is 1.

At the level energy the Sturmian of level n is the bound state rescaled by
N/Z (N = n - 1/2), which is what makes the window sums exact.  Only squared
r^2 couplings are formed, in which the normalization roots cancel, so they
stay in the integers (`_r2_term_ratio`) and rationals (`r2_element_squared`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .laguerre import moment3_band

__all__ = [
    "QuantumState",
    "energy0",
    "r2_element_squared",
]

HALF = Fraction(1, 2)


@dataclass(frozen=True)
class QuantumState:
    """Bound-state labels (n, l, m_l) plus an optional spin projection.

    l counts radial symmetry: 0 <= l <= n-1 and |m_l| = l (the planar atom
    has a single angular quantum number; l is its magnitude).  m_s, when
    present, must be +-1/2.
    """

    n: int
    l: int
    m_l: int
    m_s: Fraction | None = None

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must satisfy n >= 1")
        if not 0 <= self.l <= self.n - 1:
            raise ValueError("l must satisfy 0 <= l <= n-1")
        if abs(self.m_l) != self.l:
            raise ValueError("m_l must satisfy |m_l| = l")
        if self.m_s is not None:
            ms = Fraction(self.m_s)
            if abs(ms) != HALF:
                raise ValueError("m_s must be +1/2 or -1/2")
            object.__setattr__(self, "m_s", ms)

    @property
    def n_r(self) -> int:
        """Radial node count n - l - 1."""
        return self.n - self.l - 1

    @property
    def effective_n(self) -> Fraction:
        """Half-integer effective principal number N = n - 1/2."""
        return Fraction(2 * self.n - 1, 2)


def energy0(state: QuantumState, Z: Fraction = Fraction(1)) -> Fraction:
    """Unperturbed level energy -Z^2 / (2 N^2) in Hartree."""
    Z = Fraction(Z)
    n_eff = state.effective_n
    return -(Z * Z) / (2 * n_eff * n_eff)


def _r2_term_ratio(n_r: int, j: int, alpha: int, perm_nr: int) -> tuple[int, int]:
    """B_j^2 / (perm(n_r+alpha, alpha) perm(j+alpha, alpha)) as integers (num, den).

    ``perm_nr`` is perm(n_r+alpha, alpha), passed in so a window sum forms it
    once.  B_j = moment3_band(n_r, j, alpha) is an exact multiple s_j P of
    P = perm_nr, and P / perm(j+alpha, alpha) is a ratio of at most three
    consecutive integers on each side, so the term is s_j^2 times that short
    ratio and never forms the factorials themselves.  The pair is not reduced.
    """
    band = moment3_band(n_r, j, alpha)
    if band == 0:
        return 0, 1
    s, rest = divmod(band, perm_nr)
    if rest:
        raise ArithmeticError(
            f"moment3_band({n_r}, {j}, {alpha}) is not a multiple of perm({n_r + alpha}, {alpha})"
        )
    if j >= n_r:
        num = math.prod(range(n_r + 1, j + 1))
        den = math.prod(range(n_r + alpha + 1, j + alpha + 1))
    else:
        num = math.prod(range(j + alpha + 1, n_r + alpha + 1))
        den = math.prod(range(j + 1, n_r + 1))
    return s * s * num, den


def r2_element_squared(state: QuantumState, n_r_prime: int, Z: Fraction = Fraction(1)) -> Fraction:
    """Exact square of integral r^2 P0_{nl} S_{n_r' l} dr at the level energy.

    This squared form is the only one the fourth-order window sum needs, and
    it is always rational (the normalization roots cancel against each
    other): N^4 B^2 / (64 Z^6 perm(n_r+2l, 2l) perm(n_r'+2l, 2l)).  Zero
    whenever |n_r' - n_r| > 3.
    """
    if n_r_prime < 0:
        raise ValueError("n_r_prime must be non-negative")
    n_r, alpha = state.n_r, 2 * state.l
    term = Fraction(*_r2_term_ratio(n_r, n_r_prime, alpha, math.perm(n_r + alpha, alpha)))
    return state.effective_n**4 / (64 * Fraction(Z) ** 6) * term
