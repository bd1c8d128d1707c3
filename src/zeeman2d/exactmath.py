"""Exact arithmetic primitives: square roots, factorization, parsing, rendering.

Everything in this module is pure and deterministic, and no floating point
enters any computation.  Rational numbers are stdlib ``fractions.Fraction``
objects, which guarantee canonical form (gcd-reduced, positive denominator,
``Fraction(0, 5) == Fraction(0, 1)``) and raise ``ZeroDivisionError`` on a
zero denominator.  Decimals are rendered from the exact rationals at print
time.
"""

from __future__ import annotations

import itertools
import math
from decimal import MAX_EMAX, MIN_EMIN, ROUND_HALF_EVEN, Context
from fractions import Fraction

__all__ = [
    "rational_sqrt",
    "factorize_integer",
    "format_factorized",
    "parse_rational",
    "render_decimal",
]

TRIAL_DIVISION_LIMIT = 1_000_000


def rational_sqrt(x: Fraction) -> Fraction | None:
    """Exact square root of a non-negative rational, or None if irrational."""
    if x < 0:
        raise ValueError("square root of a negative rational")
    rn = math.isqrt(x.numerator)
    rd = math.isqrt(x.denominator)
    if rn * rn == x.numerator and rd * rd == x.denominator:
        return Fraction(rn, rd)
    return None


# Every prime up to a sieved limit, cut into runs of `_RUN` consecutive primes
# (the last run may be short), each held with its product.  It is grown on
# demand by `factorize_integer` and never built at import, and it is replaced
# whole, so a reader never sees a limit that its runs do not cover.
_prime_table: tuple[int, list[tuple[int, tuple[int, ...]]]] = (1, [])

# primes per run: one gcd with a run's product tells which of them divide,
# and the first run ends at _PROOF_AFTER
_RUN = 25


def _primes_through(limit: int) -> tuple[int, list[tuple[int, tuple[int, ...]]]]:
    """The prime table, first sieved up to ``limit`` if it stops short of it."""
    global _prime_table
    table = _prime_table
    if table[0] < limit:
        sieve = bytearray([1]) * (limit + 1)
        sieve[:2] = b"\x00\x00"
        for p in range(2, math.isqrt(limit) + 1):
            if sieve[p]:
                sieve[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
        primes = list(itertools.compress(range(limit + 1), sieve))
        runs = [tuple(primes[i : i + _RUN]) for i in range(0, len(primes), _RUN)]
        table = (limit, [(math.prod(run), run) for run in runs])
        _prime_table = table
    return table


# psi_k, the least odd composite that passes the strong-probable-prime test to
# each of the first k prime bases, for k = 1..13: psi_1..psi_4 from Pomerance,
# Selfridge & Wagstaff, Math. Comp. 35 (1980) 1003; psi_5..psi_8 from Jaeschke,
# Math. Comp. 61 (1993) 915; psi_9..psi_11 from Jiang & Deng, Math. Comp. 83
# (2014) 2915; psi_12 and psi_13 from Sorenson & Webster, Math. Comp. 86 (2017)
# 985.  An odd n > 41 below psi_k that passes the first k bases is prime.
_SPSP_BOUNDS = (
    2_047,
    1_373_653,
    25_326_001,
    3_215_031_751,
    2_152_302_898_747,
    3_474_749_660_383,
    341_550_071_728_321,
    341_550_071_728_321,
    3_825_123_056_546_413_051,
    3_825_123_056_546_413_051,
    3_825_123_056_546_413_051,
    318_665_857_834_031_151_167_461,
    3_317_044_064_679_887_385_961_981,
)
_SPSP_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

# trial division tries every prime up to this one before it asks for a proof
_PROOF_AFTER = 97


def _is_proven_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for an odd n > 41.

    True only when n is prime.  False when n is composite, and also for every
    n at or past the last bound of `_SPSP_BOUNDS`, where no base set is proven.
    """
    for k, bound in enumerate(_SPSP_BOUNDS, 1):
        if n < bound:
            break
    else:
        return False
    s = ((n - 1) & -(n - 1)).bit_length() - 1
    d = (n - 1) >> s
    for a in _SPSP_BASES[:k]:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize_integer(value: int, trial_limit: int = TRIAL_DIVISION_LIMIT) -> list[tuple[int, int]]:
    """Factor a positive integer by trial division, primes ascending.

    Division stops at ``trial_limit``; whatever remains past the cap is
    appended as a single unfactored residual (possibly composite), so the
    product of p**e over the result always reconstructs ``value``.  Only
    primes are tried: a composite divisor can never divide once its prime
    factors are gone, so the result is that of dividing by every integer.

    The power of 2 is read off the low bits.  The other primes are tried in
    runs of `_RUN`: one gcd with the run's product either skips the run or
    is the product of exactly those of its primes that divide.  Division
    stops before a run whose first prime is past the cap or whose square is
    past the cofactor, which is then 1 or prime.

    Trial division proves a prime cofactor only by reaching its square root.
    So once every prime up to `_PROOF_AFTER` has been tried, and again after
    each later run that divided, the cofactor is put to a deterministic
    Miller-Rabin test, and division stops if it is proven prime.  It is then
    appended whole, as trial division would append it after finding no
    factor of it below any cap, so the result is the same for every
    ``trial_limit``.  Cofactors of 3.3e24 and up are never proven this way
    and are trial-divided as before.
    """
    if value < 1:
        raise ValueError("only positive integers are factored")
    factors: list[tuple[int, int]] = []
    rem = value
    if trial_limit >= 2 and not rem & 1:
        e = (rem & -rem).bit_length() - 1
        factors.append((2, e))
        rem >>= e
    covered, runs = _prime_table
    r = 0
    while rem > 1:
        if r == len(runs):
            need = min(trial_limit, math.isqrt(rem))
            if covered >= need:
                break
            # a short last run is tried again, whole, once the table has grown
            if runs and len(runs[-1][1]) < _RUN:
                r -= 1
            # at least double the table, so a sweep of growing values sieves
            # O(log) times, but never past the cap of this call
            covered, runs = _primes_through(min(trial_limit, max(need, 2 * covered)))
            continue
        product, run = runs[r]
        if run[0] > trial_limit or run[0] * run[0] > rem:
            break
        g = math.gcd(rem, product)
        if g > 1:
            for p in run:
                if g % p == 0 and p <= trial_limit:
                    e = 0
                    while rem % p == 0:
                        rem //= p
                        e += 1
                    factors.append((p, e))
        # a proof needs every prime through _PROOF_AFTER tried, and is not
        # needed below the square of the last one, where rem is 1 or prime
        last = run[-1]
        if (g > 1 or r == 0) and _PROOF_AFTER <= last <= trial_limit and rem >= last * last and _is_proven_prime(rem):
            break
        r += 1
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
    num, den = x.numerator, x.denominator
    if num == 0:
        return "0"
    sign = "-" if num < 0 else ""
    num = abs(num)
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


# round-half-even with no traps and an exponent range no rational reaches;
# never modified, only copied
_RENDER_CONTEXT = Context(
    rounding=ROUND_HALF_EVEN, Emin=MIN_EMIN, Emax=MAX_EMAX, capitals=1, clamp=0, flags=[], traps=[]
)


def render_decimal(x: Fraction, digits: int = 12) -> str:
    """Correctly rounded decimal string with ``digits`` significant digits.

    Computed from the exact rational at print time (round-half-even); no
    intermediate binary float is involved.  The division runs in a context of
    its own, so the caller's decimal context (its rounding, traps or
    exponent letter) never changes the result.
    """
    if digits < 1:
        raise ValueError("need at least one significant digit")
    ctx = _RENDER_CONTEXT.copy()
    ctx.prec = digits
    return ctx.to_sci_string(ctx.divide(x.numerator, x.denominator))
