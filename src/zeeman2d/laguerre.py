"""Generalized Laguerre polynomials and exact weighted-moment integrals.

Every integral here has the shape

    I = integral_0^inf x^gamma e^{-x} L_k^{(alpha)}(x) L_{k'}^{(beta)}(x) dx

with non-negative integer parameters, so its value is an exact rational.
Closed forms (`cross_integral`, `moment3_diag`, `moment3_band`) are always
cross-checked in the test suite against `brute_force_integral`, which expands
the polynomials and integrates monomials term by term with
integral x^m e^{-x} dx = m!.  The brute-force route is the arbiter whenever
a closed form is in doubt.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .exactmath import RationalPolynomial

__all__ = [
    "Laguerre",
    "laguerre_coeffs",
    "cross_integral",
    "moment3_diag",
    "moment3_band",
    "brute_force_integral",
]


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
    from .exactmath import gen_binomial

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


def moment3_diag(spec: Laguerre) -> int:
    """Exact diagonal third moment: integral x^{alpha+3} e^{-x} [L_k^{(alpha)}]^2.

    Closed form (2k+alpha+1)(10k^2+10k+10 alpha k+alpha^2+5 alpha+6)
    (k+alpha)!/k!, an integer; validated against brute_force_integral in the
    tests.
    """
    k, alpha = spec.k, spec.alpha
    return (
        (2 * k + alpha + 1)
        * (10 * k * k + 10 * k + 10 * alpha * k + alpha * alpha + 5 * alpha + 6)
        * math.perm(k + alpha, alpha)
    )


def moment3_band(k: int, kp: int, alpha: int) -> int:
    """Exact banded third moment: integral x^{alpha+3} e^{-x} L_k L_{k'}, an integer.

    Couples only |k - k'| <= 3 (the selection rule behind every finite
    window downstream).  The closed form is stated for k' >= k; symmetry of
    the integrand lets (k, k') be reordered first, and the test suite checks
    the reordering against both the independent downward-branch coefficients
    and the brute-force expansion.
    """
    if k < 0 or kp < 0:
        raise ValueError("degrees must be non-negative")
    if alpha < 0:
        raise ValueError("weight parameter alpha must be non-negative")
    lo, hi = (k, kp) if k <= kp else (kp, k)
    d = hi - lo
    if d > 3:
        return 0
    a = alpha
    if d == 0:
        return moment3_diag(Laguerre(lo, a))
    # (lo + a + d)!/lo! as the integer perm(lo + a + d, a + d)
    if d == 1:
        body = 5 * lo * lo + 10 * lo + 5 * a * lo + a * a + 5 * a + 6
        return -3 * body * math.perm(lo + a + 1, a + 1)
    if d == 2:
        return 3 * (2 * lo + a + 3) * math.perm(lo + a + 2, a + 2)
    return -math.perm(lo + a + 3, a + 3)


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
