"""Exact arithmetic primitives: rationals, combinatorics, dense polynomials.

Everything in this module is pure and deterministic, and no floating point
enters any computation.  Rational numbers are stdlib ``fractions.Fraction``
objects, which guarantee canonical form (gcd-reduced, positive denominator,
``Fraction(0, 5) == Fraction(0, 1)``) and raise ``ZeroDivisionError`` on a
zero denominator.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction

__all__ = [
    "gen_binomial",
    "rational_sqrt",
    "factorize_integer",
    "format_factorized",
    "parse_rational",
    "render_decimal",
    "RationalPolynomial",
]

TRIAL_DIVISION_LIMIT = 1_000_000


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


def rational_sqrt(x: Fraction) -> Fraction | None:
    """Exact square root of a non-negative rational, or None if irrational."""
    if x < 0:
        raise ValueError("square root of a negative rational")
    rn = math.isqrt(x.numerator)
    rd = math.isqrt(x.denominator)
    if rn * rn == x.numerator and rd * rd == x.denominator:
        return Fraction(rn, rd)
    return None


# Every prime up to a sieved limit, grown on demand by `factorize_integer` and
# never built at import.  It is replaced whole, so a reader never sees a limit
# that its list of primes does not cover.
_prime_table: tuple[int, list[int]] = (1, [])


def _primes_through(limit: int) -> tuple[int, list[int]]:
    """The prime table, first sieved up to ``limit`` if it stops short of it."""
    global _prime_table
    table = _prime_table
    if table[0] < limit:
        sieve = bytearray([1]) * (limit + 1)
        sieve[:2] = b"\x00\x00"
        for p in range(2, math.isqrt(limit) + 1):
            if sieve[p]:
                sieve[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
        table = (limit, list(itertools.compress(range(limit + 1), sieve)))
        _prime_table = table
    return table


def factorize_integer(value: int, trial_limit: int = TRIAL_DIVISION_LIMIT) -> list[tuple[int, int]]:
    """Factor a positive integer by trial division, primes ascending.

    Division stops at ``trial_limit``; whatever remains past the cap is
    appended as a single unfactored residual (possibly composite), so the
    product of p**e over the result always reconstructs ``value``.  Only
    primes are tried: a composite divisor can never divide once its prime
    factors are gone, so the result is that of dividing by every integer.
    """
    if value < 1:
        raise ValueError("only positive integers are factored")
    factors: list[tuple[int, int]] = []
    rem = value
    covered, primes = _prime_table
    i = 0
    while True:
        if i == len(primes):
            need = min(trial_limit, math.isqrt(rem))
            if covered >= need:
                break
            # at least double the table, so a sweep of growing values sieves
            # O(log) times, but never past the cap of this call
            covered, primes = _primes_through(min(trial_limit, max(need, 2 * covered)))
            continue
        p = primes[i]
        if p > trial_limit or p * p > rem:
            break
        if rem % p == 0:
            e = 0
            while rem % p == 0:
                rem //= p
                e += 1
            factors.append((p, e))
        i += 1
    if rem > 1:
        factors.append((rem, 1))
    return factors


def _format_factored_int(v: int) -> str:
    parts = []
    for p, e in factorize_integer(v):
        parts.append(str(p) if e == 1 else f"{p}^{e}")
    return "×".join(parts) if parts else "1"


def format_factorized(x: Fraction) -> str:
    """Prime-factorized rendering of a rational, e.g. -3×53/2^16.

    Exponent 1 is omitted; a unit numerator or denominator prints as the
    bare factorization of the other side; zero prints as ``0``.
    """
    if x == 0:
        return "0"
    sign = "-" if x < 0 else ""
    num, den = abs(x.numerator), x.denominator
    num_s = "1" if num == 1 else _format_factored_int(num)
    if den == 1:
        return sign + num_s
    return f"{sign}{num_s}/{_format_factored_int(den)}"


def parse_rational(text: str) -> Fraction:
    """Parse ``p/q`` (or a plain integer / decimal string) exactly."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational literal: {text!r}") from exc


def render_decimal(x: Fraction, digits: int = 12) -> str:
    """Correctly rounded decimal string with ``digits`` significant digits.

    Computed from the exact rational at print time (round-half-even); no
    intermediate binary float is involved.
    """
    if digits < 1:
        raise ValueError("need at least one significant digit")
    with localcontext() as ctx:
        ctx.prec = digits
        d = Decimal(x.numerator) / Decimal(x.denominator)
    return str(d)


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
