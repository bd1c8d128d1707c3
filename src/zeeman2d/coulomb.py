"""Zeroth-order planar Coulomb bound states and the matching Sturmian basis.

Canonical units throughout: hbar = m_e = e = 1/(4 pi eps0) = 1, so lengths
are Bohr radii, energies are Hartree, and the magnetic field unit B0 is 1.

A radial function is stored in the factored form

    f(r) = sqrt(norm_squared) * x^(l+1/2) * exp(-x/2) * poly(x),   x = 2*scale*r,

which keeps normalizations and matrix elements inside the rationals:
downstream observables only ever consume ``norm_squared`` itself or products
in which the square roots cancel pairwise.  The bound state of level n has
scale Z/N (N = n - 1/2); the Sturmian of the same level is the same function
rescaled by N/Z, which is what makes the perturbative window sums exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .exactmath import RationalPolynomial, rational_sqrt
from .laguerre import Laguerre, laguerre_coeffs, moment3_band

__all__ = [
    "QuantumState",
    "RadialFunction",
    "energy0",
    "bound_radial",
    "sturmian",
    "sturmian_mu",
    "sturmian_mu_squared",
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


@dataclass(frozen=True)
class RadialFunction:
    """One radial factor in the form sqrt(norm_squared) x^(l+1/2) e^(-x/2) poly(x).

    ``scale_squared`` is kept exact so a function can be anchored at any
    rational energy; the decay rate itself materializes as a float only at
    evaluation time (and exactly, via ``scale``, when it happens to be
    rational, which covers every bound level).
    """

    l: int
    scale_squared: Fraction
    norm_squared: Fraction
    poly: RationalPolynomial

    def __post_init__(self) -> None:
        if self.scale_squared <= 0:
            raise ValueError("scale_squared must be positive")
        if self.norm_squared <= 0:
            raise ValueError("norm_squared must be positive")

    @property
    def scale(self) -> Fraction:
        root = rational_sqrt(self.scale_squared)
        if root is None:
            raise ValueError("decay rate is irrational for this anchor energy")
        return root

    @property
    def scale_float(self) -> float:
        return math.sqrt(float(self.scale_squared))

    def __call__(self, r: float) -> float:
        x = 2.0 * self.scale_float * r
        if x == 0.0:
            return 0.0
        value = self.poly(float(x))
        return math.sqrt(float(self.norm_squared)) * x ** (self.l + 0.5) * math.exp(-0.5 * x) * value


def energy0(state: QuantumState, Z: Fraction = Fraction(1)) -> Fraction:
    """Unperturbed level energy -Z^2 / (2 N^2) in Hartree."""
    Z = Fraction(Z)
    n_eff = state.effective_n
    return -(Z * Z) / (2 * n_eff * n_eff)


def bound_radial(state: QuantumState, Z: Fraction = Fraction(1)) -> RadialFunction:
    """Normalized bound radial factor of the level (n, l)."""
    Z = Fraction(Z)
    if Z <= 0:
        raise ValueError("Z must be positive")
    n_r, l = state.n_r, state.l
    n_eff = state.effective_n
    norm_sq = Z * Fraction(math.factorial(n_r), math.factorial(n_r + 2 * l)) / (n_eff * n_eff)
    scale = Z / n_eff
    return RadialFunction(
        l=l,
        scale_squared=scale * scale,
        norm_squared=norm_sq,
        poly=laguerre_coeffs(Laguerre(n_r, 2 * l)),
    )


def sturmian(n_r: int, l: int, E: Fraction, Z: Fraction = Fraction(1)) -> RadialFunction:
    """Coulomb Sturmian basis function anchored at energy E < 0.

    All Sturmians of a channel share the one decay rate k = sqrt(-2E); the
    index n_r only changes the polynomial degree and the normalization,
    which is unit under the weight Z/r.
    """
    if n_r < 0:
        raise ValueError("n_r must be non-negative")
    if l < 0:
        raise ValueError("l must be non-negative")
    E = Fraction(E)
    if E >= 0:
        raise ValueError("anchor energy must be negative")
    Z = Fraction(Z)
    if Z <= 0:
        raise ValueError("Z must be positive")
    norm_sq = Fraction(math.factorial(n_r), math.factorial(n_r + 2 * l)) / Z
    return RadialFunction(
        l=l,
        scale_squared=-2 * E,
        norm_squared=norm_sq,
        poly=laguerre_coeffs(Laguerre(n_r, 2 * l)),
    )


def sturmian_mu_squared(n_r: int, l: int, E: Fraction, Z: Fraction = Fraction(1)) -> Fraction:
    """Exact square of the Sturmian eigenvalue mu = (n_r+l+1/2) k / Z.

    mu is generally irrational, but mu^2 is rational for rational E, and
    mu == 1 iff mu^2 == 1, so pole detection can stay exact.
    """
    E = Fraction(E)
    if E >= 0:
        raise ValueError("anchor energy must be negative")
    Z = Fraction(Z)
    order = Fraction(2 * (n_r + l) + 1, 2)
    return order * order * (-2 * E) / (Z * Z)


def sturmian_mu(n_r: int, l: int, E: Fraction, Z: Fraction = Fraction(1)) -> float:
    """Floating Sturmian eigenvalue; equals (n_r+l+1/2)/N at E = energy0."""
    return math.sqrt(float(sturmian_mu_squared(n_r, l, E, Z)))


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


def _reduced_r2_term(n_r: int, j: int, alpha: int) -> Fraction:
    """`_r2_term_ratio` in lowest terms."""
    return Fraction(*_r2_term_ratio(n_r, j, alpha, math.perm(n_r + alpha, alpha)))


def r2_element_squared(state: QuantumState, n_r_prime: int, Z: Fraction = Fraction(1)) -> Fraction:
    """Exact square of integral r^2 P0_{nl} S_{n_r' l} dr at the level energy.

    This squared form is the only one the fourth-order window sum needs, and
    it is always rational (the normalization roots cancel against each
    other): N^4 B^2 / (64 Z^6 perm(n_r+2l, 2l) perm(n_r'+2l, 2l)).  Zero
    whenever |n_r' - n_r| > 3.
    """
    if n_r_prime < 0:
        raise ValueError("n_r_prime must be non-negative")
    n_eff = state.effective_n
    return n_eff**4 / (64 * Fraction(Z) ** 6) * _reduced_r2_term(state.n_r, n_r_prime, 2 * state.l)
