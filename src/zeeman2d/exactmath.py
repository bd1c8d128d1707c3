"""Exact arithmetic primitives: square roots, factorization, parsing, rendering.

Everything in this module is pure and deterministic, and no floating point
enters any computation.  Rational numbers are stdlib ``fractions.Fraction``
objects, which guarantee canonical form (gcd-reduced, positive denominator,
``Fraction(0, 5) == Fraction(0, 1)``) and raise ``ZeroDivisionError`` on a
zero denominator.  Decimals are rendered from the exact rationals at print
time.

Two pure functions keep a bounded memo (`functools.lru_cache`):
`_factor_text`, the factorized text of one positive integer (1024 entries),
and `_render_context`, the decimal context of one digit count (32 entries).
The prime table of `factorize_integer` grows on demand and is kept for the
process.
"""

from __future__ import annotations

import functools
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
# a residual of the default cap below this square has no factor below its
# square root, so it is prime without a test
_RHO_FLOOR = TRIAL_DIVISION_LIMIT**2


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
# them divide, with no table built.
_SMALL_PRIMES = (
    3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
    101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193,
    197, 199, 211, 223, 227, 229, 233, 239, 241, 251,
)
_SMALL_PRODUCT = math.prod(_SMALL_PRIMES)

# The primes from 257 up to a sieved limit, cut into runs of `_RUN`
# consecutive primes (the last run may be short), each held with its product.
# It is grown on demand by `factorize_integer` and never built at import, and
# it is replaced whole, so a reader never sees a limit that its runs do not
# cover.
_prime_table: tuple[int, list[tuple[int, tuple[int, ...]]]] = (1, [])

# primes per run: one gcd with a run's product tells which of them divide
_RUN = 100


def _primes_through(limit: int) -> tuple[int, list[tuple[int, tuple[int, ...]]]]:
    """The prime table, first grown up to ``limit`` if it stops short of it.

    Only the odd numbers of (old limit, limit] are sieved, by the odd primes
    up to sqrt(limit).  The complete runs of the old table keep their
    products, and the runs are cut again from the first prime of its short
    last run, so the table equals one sieved at ``limit`` in a single step.
    """
    global _prime_table
    table = _prime_table
    covered, runs = table
    if covered < limit:
        root = math.isqrt(limit)
        base = bytearray([1]) * (root + 1)
        for p in range(3, math.isqrt(root) + 1, 2):
            if base[p]:
                base[p * p :: 2 * p] = bytes(len(range(p * p, root + 1, 2 * p)))
        lo = max(covered + 1, 257) | 1  # odd
        segment = bytearray([1]) * len(range(lo, limit + 1, 2))  # slot i holds lo + 2i
        for p in itertools.compress(range(3, root + 1, 2), base[3::2]):
            first = max(p * p, -(-lo // p) * p)
            i = (first + p * (1 - first % 2) - lo) // 2  # the slot of the first odd multiple
            segment[i::p] = bytes(len(range(i, len(segment), p)))
        carry = ()
        if runs and len(runs[-1][1]) < _RUN:
            runs, carry = runs[:-1], runs[-1][1]
        primes = [*carry, *itertools.compress(range(lo, limit + 1, 2), segment)]
        new = [tuple(primes[i : i + _RUN]) for i in range(0, len(primes), _RUN)]
        table = (limit, runs + [(math.prod(run), run) for run in new])
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
    m = n - 1
    s = (m & -m).bit_length() - 1
    d = m >> s
    for a in _SPSP_BASES[:k]:
        x = pow(a, d, n)
        if x == 1 or x == m:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == m:
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

    The power of 2 is read off the low bits.  The odd primes are then tried
    in chunks, each with its product: first the 53 below 256, then the runs
    of `_RUN` primes from 257 on.  One gcd with a chunk's product is the
    product of exactly those of its primes that divide, and they are walked
    with their powers only until it is used up; a cofactor of 1 takes no gcd.
    After each chunk the cofactor has no prime factor up to the chunk's last
    prime p, so it is 1 or prime below p^2, and division stops there, or
    once p reaches the cap.  Otherwise it is put to one deterministic
    Miller-Rabin test after the first chunk and after each run that divided,
    and a proven prime is appended whole, as trial division would append it
    after finding no factor of it below any cap; so the result is the same
    for every ``trial_limit``.  Any other cofactor (composite, or of 3.3e24
    and up, where no proof holds) goes on to the next run, until a run's
    first prime is past the cap or its square past the cofactor.
    """
    if value < 1:
        raise ValueError("only positive integers are factored")
    factors: list[tuple[int, int]] = []
    rem = value
    if trial_limit >= 2 and not rem & 1:
        e = (rem & -rem).bit_length() - 1
        factors.append((2, e))
        rem >>= e
    product, primes = _SMALL_PRODUCT, _SMALL_PRIMES
    r = 0
    while rem > 1:
        before = rem
        g = math.gcd(rem, product)
        for p in primes:
            if g % p:
                if p * p <= g:
                    continue
                # past sqrt(g), what is left of g is 1 or the last prime to divide
                if g == 1 or g > trial_limit:
                    break
                p = g
            elif p > trial_limit:
                break
            g //= p
            rem //= p
            e = 1
            while not rem % p:
                rem //= p
                e += 1
            factors.append((p, e))
        last = primes[-1]
        if last >= trial_limit or rem < last * last:
            break
        if (r == 0 or rem < before) and _is_proven_prime(rem):
            break
        run = _run(r, rem, trial_limit)
        if run is None:
            break
        r, (product, primes) = run
        if primes[0] > trial_limit or primes[0] ** 2 > rem:
            break
        r += 1
    if rem > 1:
        factors.append((rem, 1))
    return factors


def _run(r: int, rem: int, trial_limit: int) -> tuple[int, tuple[int, tuple[int, ...]]] | None:
    """(index, run) of the table's run to try after run r - 1, or None if none is needed.

    The table grows on demand, never past the cap of the call and not once it
    reaches the square root of the cofactor.
    """
    covered, runs = _prime_table
    while r == len(runs):
        need = min(trial_limit, math.isqrt(rem))
        if covered >= need:
            return None
        # a short last run is tried again, whole, once the table has grown
        if runs and len(runs[-1][1]) < _RUN:
            r -= 1
        # at least double the table, so a sweep of growing values sieves
        # O(log) times, but never past the cap of this call
        covered, runs = _primes_through(min(trial_limit, max(need, 2 * covered)))
    return r, runs[r]


def _rho_factor(n: int) -> int:
    """A proper factor of an odd composite n: Pollard's rho in Brent's form.

    R. P. Brent, BIT 20 (1980) 176.  The walk x -> x^2 + c mod n gathers
    |x - y| into one product mod n and takes a gcd every 128 steps; a batch
    whose gcd is n is walked again step by step, and a walk that finds only
    n is restarted with the next c.
    """
    for c in itertools.count(1):
        y = ys = x = 2
        g = q = r = 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def _prime_parts(n: int) -> list[int]:
    """The prime factors of n, with repeats, for an odd n below 3.3e24 with none below 257."""
    if _is_proven_prime(n):
        return [n]
    d = _rho_factor(n)
    return _prime_parts(d) + _prime_parts(n // d)


def format_factorized(x: Fraction) -> str:
    """Prime-factorized rendering of a rational, e.g. -3×53/2^16.

    Each side is `factorize_integer` at the default cap, its factors joined
    by ``×``.  Its residual is prime below the square of the cap; a residual
    from there up to the last bound of `_SPSP_BOUNDS` (3.3e24) that the
    Miller-Rabin test does not prove prime is split by `_rho_factor` into
    parts that it does.  So every printed factor is proven prime whenever
    the residual is below 3.3e24; a larger one is printed whole, unproven.
    Exponent 1 is omitted; a unit numerator or denominator prints as the
    bare factorization of the other side; zero prints as ``0``.

    Each side's text is memoized per integer (`_factor_text`, LRU, 1024
    entries), so a repeated side costs one lookup.  A new side can be slow:
    a residual between 10^12 and 3.3e24 whose prime factors p are all above
    10^6 costs rho O(sqrt(p)) steps.  ``(10**12 + 39) * (10**12 + 61)`` took
    0.66-0.72 s on one core of an Intel Xeon under Python 3.11, against a
    few ms when one factor is near 10^6.
    """
    num, den = x.numerator, x.denominator
    if num == 0:
        return "0"
    text = "-" + _factor_text(-num) if num < 0 else _factor_text(num)
    return text if den == 1 else f"{text}/{_factor_text(den)}"


@functools.lru_cache(maxsize=1024)
def _factor_text(v: int) -> str:
    """One side of `format_factorized`, the text of a positive integer.

    Memoized per integer, LRU-bounded: `format_factorized` passes it only the
    Python ints of a `Fraction`'s numerator and denominator, and a coefficient
    sweep repeats most of them (the q^2 of eps0, the powers of 2 under eps2
    and eps4), so each is factored and written once per process.
    """
    factors = factorize_integer(v)
    if v >= _RHO_FLOOR and factors[-1][0] >= _RHO_FLOOR:
        residual = factors[-1][0]
        if residual < _SPSP_BOUNDS[-1] and not _is_proven_prime(residual):
            parts = sorted(_prime_parts(residual))
            factors[-1:] = [(p, parts.count(p)) for p in sorted(set(parts))]
    text = ""
    for p, e in factors:
        text += f"×{p}^{e}" if e > 1 else f"×{p}"
    return text[1:] or "1"


def parse_rational(text: str) -> Fraction:
    """Parse ``p/q`` (or a plain integer / decimal string) exactly."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational literal: {text!r}") from exc


@functools.lru_cache(maxsize=32)
def _render_context(digits: int) -> Context:
    """The context of `render_decimal` at ``digits``, one per digit count.

    Round-half-even, no traps and an exponent range no rational reaches.
    Every call at the same digit count shares it; a division in it only ever
    sets its flags, which nothing reads.
    """
    return Context(
        prec=digits, rounding=ROUND_HALF_EVEN, Emin=MIN_EMIN, Emax=MAX_EMAX, capitals=1, clamp=0, flags=[], traps=[]
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
    ctx = _render_context(digits)
    return ctx.to_sci_string(ctx.divide(x.numerator, x.denominator))
