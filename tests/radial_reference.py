"""Exact references the tests compare the library against; no src module imports this.

`RationalPolynomial` and `gen_binomial` are exact dense polynomials and
binomials; `Laguerre`/`laguerre_coeffs` give L_k^{(alpha)} as coefficients.
`cross_integral` sums integral_0^inf x^gamma e^{-x} L_k^{(alpha)} L_{k'}^{(beta)} dx
in closed form, and `brute_force_integral`, the arbiter whenever a closed
form is in doubt, expands both polynomials with integral x^m e^{-x} dx = m!.
`moment3_band` is the banded third moment
integral x^(alpha+3) e^{-x} L_k^{(alpha)} L_{k'}^{(alpha)} dx built from
`laguerre._moment3_factor` and one `math.perm`, the reference for that
factor, and `r2_element_squared` the squared r^2 coupling of a bound state
to a Sturmian, built by its definition from `moment3_band` and two
`math.perm`, with none of the library's window code.
`bound_radial` and `sturmian` build normalized radial functions in the form

    f(r) = sqrt(norm_squared) * x^(l+1/2) * exp(-x/2) * poly(x),   x = 2*scale*r,

which keeps normalizations and matrix elements rational wherever the square
roots cancel pairwise.  The bound state of level n has scale Z/N
(N = n - 1/2); the Sturmian of the same level is the same function rescaled
by N/Z, which is what makes the perturbative window sums exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from zeeman2d.coulomb import QuantumState
from zeeman2d.exactmath import rational_sqrt
from zeeman2d.laguerre import _moment3_factor


def gen_binomial(top: int, j: int) -> Fraction:
    """Generalized binomial coefficient C(top, j) for any integer top.

    Defined through the falling factorial top (top-1) ... (top-j+1) / j!,
    so it vanishes for 0 <= top < j but is generally nonzero for negative
    top, e.g. C(-2, 3) = -4.
    """
    if j < 0:
        raise ValueError("lower index must be non-negative")
    num = 1
    for t in range(j):
        num *= top - t
        if num == 0:
            return Fraction(0)
    return Fraction(num, math.factorial(j))


def _over_common_denominator(coeffs: tuple[Fraction, ...]) -> tuple[int, list[int]]:
    """(d, [c * d for c in coeffs]) with d the lcm of the denominators."""
    den = math.lcm(*(c.denominator for c in coeffs))
    return den, [c.numerator * (den // c.denominator) for c in coeffs]


@dataclass(frozen=True)
class RationalPolynomial:
    """Dense univariate polynomial with exact rational coefficients.

    ``coeffs[i]`` multiplies x**i.  The stored tuple is canonical: it never
    ends in a zero, and the zero polynomial is the empty tuple (degree -1).
    Instances are immutable and safe to share across threads.
    """

    coeffs: tuple[Fraction, ...] = ()

    def __post_init__(self) -> None:
        cs = [Fraction(c) for c in self.coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @classmethod
    def constant(cls, c) -> "RationalPolynomial":
        return cls((Fraction(c),))

    @classmethod
    def identity(cls) -> "RationalPolynomial":
        """The polynomial x."""
        return cls((Fraction(0), Fraction(1)))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __add__(self, other: "RationalPolynomial") -> "RationalPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return RationalPolynomial(tuple(out))

    def __neg__(self) -> "RationalPolynomial":
        return RationalPolynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "RationalPolynomial") -> "RationalPolynomial":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, RationalPolynomial):
            if not self.coeffs or not other.coeffs:
                return RationalPolynomial()
            # integer convolution over the product of the common denominators
            a_den, a_int = _over_common_denominator(self.coeffs)
            b_den, b_int = _over_common_denominator(other.coeffs)
            out = [0] * (len(a_int) + len(b_int) - 1)
            for i, a in enumerate(a_int):
                if a == 0:
                    continue
                for j, b in enumerate(b_int):
                    out[i + j] += a * b
            den = a_den * b_den
            return RationalPolynomial(tuple(Fraction(c, den) for c in out))
        s = Fraction(other)
        return RationalPolynomial(tuple(c * s for c in self.coeffs))

    __rmul__ = __mul__

    def derivative(self) -> "RationalPolynomial":
        return RationalPolynomial(tuple(i * c for i, c in enumerate(self.coeffs) if i))

    def __call__(self, x):
        """Horner evaluation; exact for Fraction x, float for float x."""
        acc = Fraction(0) if not isinstance(x, float) else 0.0
        for c in reversed(self.coeffs):
            acc = acc * x + (c if not isinstance(x, float) else float(c))
        return acc

    def coefficient(self, i: int) -> Fraction:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else Fraction(0)


@dataclass(frozen=True)
class Laguerre:
    """Degree/weight pair (k, alpha) naming the polynomial L_k^{(alpha)}."""

    k: int
    alpha: int

    def __post_init__(self) -> None:
        if self.k < 0:
            raise ValueError("degree k must be non-negative")
        if self.alpha < 0:
            raise ValueError("weight parameter alpha must be non-negative")


@lru_cache(maxsize=None)
def _coeffs(k: int, alpha: int) -> RationalPolynomial:
    return RationalPolynomial(
        tuple(
            Fraction((-1) ** j * math.comb(k + alpha, k - j), math.factorial(j))
            for j in range(k + 1)
        )
    )


def laguerre_coeffs(spec: Laguerre) -> RationalPolynomial:
    """Exact coefficients of L_k^{(alpha)}; degree is exactly k.

    c_j = (-1)^j C(k+alpha, k-j) / j!, so the leading coefficient is
    (-1)^k / k! and the value at 0 is C(k+alpha, k).
    """
    return _coeffs(spec.k, spec.alpha)


def cross_integral(gamma: int, a: Laguerre, b: Laguerre) -> Fraction:
    """Exact integral of x^gamma e^{-x} L_{a.k}^{(a.alpha)} L_{b.k}^{(b.alpha)}.

    Evaluates the finite double-binomial sum; generalized binomials with a
    negative top index make it valid for any gamma >= 0, in particular
    gamma below either weight parameter.  For gamma == a.alpha == b.alpha it
    reduces to the orthogonality relation delta_{k k'} (k+alpha)! / k!.
    """
    if gamma < 0:
        raise ValueError("gamma must be non-negative (integral diverges at the origin)")
    total = Fraction(0)
    for m in range(min(a.k, b.k) + 1):
        ba = gen_binomial(gamma - a.alpha, a.k - m)
        if ba == 0:
            continue
        bb = gen_binomial(gamma - b.alpha, b.k - m)
        if bb == 0:
            continue
        total += Fraction(math.factorial(m + gamma), math.factorial(m)) * ba * bb
    return -total if (a.k + b.k) % 2 else total


def brute_force_integral(gamma: int, a: Laguerre, b: Laguerre) -> Fraction:
    """Independent oracle: expand both polynomials, integrate term by term."""
    if gamma < 0:
        raise ValueError("gamma must be non-negative (integral diverges at the origin)")
    prod = laguerre_coeffs(a) * laguerre_coeffs(b)
    total = Fraction(0)
    for m, c in enumerate(prod.coeffs):
        if c:
            total += c * math.factorial(m + gamma)
    return total


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


def moment3_band(k: int, kp: int, alpha: int) -> int:
    """Exact banded third moment: integral x^{alpha+3} e^{-x} L_k L_{k'}, an integer.

    Couples only |k - k'| <= 3 (the selection rule behind every finite
    window downstream).  The closed form is stated for k' >= k; symmetry of
    the integrand lets (k, k') be reordered first, and the test suite checks
    the reordering against both the independent downward-branch coefficients
    and the brute-force expansion.  The diagonal is
    (2k+alpha+1)(10k^2+10k+10 alpha k+alpha^2+5 alpha+6) (k+alpha)!/k!.
    """
    if k < 0 or kp < 0:
        raise ValueError("degrees must be non-negative")
    if alpha < 0:
        raise ValueError("weight parameter alpha must be non-negative")
    lo, hi = (k, kp) if k <= kp else (kp, k)
    d = hi - lo
    if d > 3:
        return 0
    return _moment3_factor(lo, d, alpha) * math.perm(lo + alpha, alpha)


def r2_element_squared(state: QuantumState, n_r_prime: int, Z: Fraction = Fraction(1)) -> Fraction:
    """Exact square of integral r^2 P0_{nl} S_{n_r' l} dr at the level energy.

    This squared form is the only one the fourth-order window sum needs, and
    it is always rational (the normalization roots cancel against each
    other): N^4 B^2 / (64 Z^6 perm(n_r+2l, 2l) perm(n_r'+2l, 2l)), with
    B = `moment3_band`(n_r, n_r', 2l).  Zero whenever |n_r' - n_r| > 3.
    """
    if n_r_prime < 0:
        raise ValueError("n_r_prime must be non-negative")
    alpha = 2 * state.l
    band = moment3_band(state.n_r, n_r_prime, alpha)
    perms = math.perm(state.n_r + alpha, alpha) * math.perm(n_r_prime + alpha, alpha)
    return state.effective_n**4 * band * band / (64 * Fraction(Z) ** 6 * perms)
