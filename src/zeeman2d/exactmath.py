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


# The odd primes below 256 and their product: one gcd with it tells which of
# them divide, with no table built.  Every cofactor they leave below
# _SMALL_BOUND = 257**2 is 1 or prime.
_SMALL_PRIMES = (
    3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
    101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193,
    197, 199, 211, 223, 227, 229, 233, 239, 241, 251,
)
_SMALL_PRODUCT = math.prod(_SMALL_PRIMES)
_SMALL_BOUND = 257 * 257

# The primes from 257 up to a sieved limit, cut into runs of `_RUN`
# consecutive primes (the last run may be short), each held with its product.
# It is grown on demand by `factorize_integer` and never built at import, and
# it is replaced whole, so a reader never sees a limit that its runs do not
# cover.
_prime_table: tuple[int, list[tuple[int, tuple[int, ...]]]] = (1, [])

# primes per run: one gcd with a run's product tells which of them divide
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
        primes = list(itertools.compress(range(257, limit + 1), sieve[257:]))
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

    The power of 2 is read off the low bits.  The odd primes below 256 come
    next: one gcd with their product is the product of exactly those that
    divide, and they are walked only until it is used up.  With the cap at
    251 or more, every prime below 257 has then been tried, so the cofactor
    is 1, or prime if it is below 257^2, or put to one deterministic
    Miller-Rabin test.  A proven prime is appended whole, as trial division
    would append it after finding no factor of it below any cap, so the
    result is the same for every ``trial_limit``.

    Any other cofactor (composite, or of 3.3e24 and up, where no proof
    holds) is divided by the primes from 257 on, in runs of `_RUN`: one gcd
    with a run's product either skips the run or is the product of those of
    its primes that divide.  After each run that divided, the cofactor is
    put to the test again.  Division stops before a run whose first prime is
    past the cap or whose square is past the cofactor, which is then 1 or
    prime.
    """
    if value < 1:
        raise ValueError("only positive integers are factored")
    factors: list[tuple[int, int]] = []
    rem = value
    if trial_limit >= 2 and not rem & 1:
        e = (rem & -rem).bit_length() - 1
        factors.append((2, e))
        rem >>= e
    rem = _divide_out(rem, math.gcd(rem, _SMALL_PRODUCT), _SMALL_PRIMES, trial_limit, factors)
    if trial_limit >= 257 and rem >= _SMALL_BOUND and not _is_proven_prime(rem):
        rem = _divide_runs(rem, trial_limit, factors)
    if rem > 1:
        factors.append((rem, 1))
    return factors


def _divide_out(rem: int, g: int, primes: tuple[int, ...], trial_limit: int, factors: list) -> int:
    """Divide ``rem`` by each prime of ``primes``, up to the cap, that divides ``g``.

    ``g`` is the gcd of ``rem`` with the product of ``primes``: a product of
    distinct primes of the list.  The walk ends once the square of the next
    prime passes what is left of ``g``, which is then 1 or the last prime to
    divide.  Appends (p, e) for each such prime and returns the cofactor.
    """
    for p in primes:
        if p * p > g or p > trial_limit:
            break
        if g % p == 0:
            g //= p
            rem, e = _divide_power(rem, p)
            factors.append((p, e))
    if 1 < g <= trial_limit:
        rem, e = _divide_power(rem, g)
        factors.append((g, e))
    return rem


def _divide_power(rem: int, p: int) -> tuple[int, int]:
    """(rem / p^e, e) for the largest e, given that p divides rem."""
    rem //= p
    e = 1
    while rem % p == 0:
        rem //= p
        e += 1
    return rem, e


def _divide_runs(rem: int, trial_limit: int, factors: list) -> int:
    """Trial-divide a cofactor free of primes below 257 by the runs of the table.

    Returns the cofactor left once the runs pass the cap or its square root,
    or once it is proven prime after a run that divided.  The table grows on
    demand, never past the cap of the call.
    """
    covered, runs = _prime_table
    r = 0
    while True:
        if r == len(runs):
            need = min(trial_limit, math.isqrt(rem))
            if covered >= need:
                return rem
            # a short last run is tried again, whole, once the table has grown
            if runs and len(runs[-1][1]) < _RUN:
                r -= 1
            # at least double the table, so a sweep of growing values sieves
            # O(log) times, but never past the cap of this call
            covered, runs = _primes_through(min(trial_limit, max(need, 2 * covered)))
            continue
        product, run = runs[r]
        if run[0] > trial_limit or run[0] * run[0] > rem:
            return rem
        g = math.gcd(rem, product)
        if g > 1:
            rem = _divide_out(rem, g, run, trial_limit, factors)
            # below the square of the run's last prime, the next run stops anyway
            if rem >= run[-1] ** 2 and _is_proven_prime(rem):
                return rem
        r += 1


def _format_factored_int(v: int) -> str:
    return "×".join([str(p) if e == 1 else f"{p}^{e}" for p, e in factorize_integer(v)]) or "1"


def format_factorized(x: Fraction) -> str:
    """Prime-factorized rendering of a rational, e.g. -3×53/2^16.

    Exponent 1 is omitted; a unit numerator or denominator prints as the
    bare factorization of the other side; zero prints as ``0``.
    """
    num, den = x.numerator, x.denominator
    if num == 0:
        return "0"
    sign = "-" if num < 0 else ""
    num_s = _format_factored_int(abs(num))
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
