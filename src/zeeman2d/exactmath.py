"""Exact arithmetic primitives: square roots, factorization, parsing, rendering.

Everything in this module is pure and deterministic, and no floating point
enters any computation.  Rational numbers are stdlib ``fractions.Fraction``
objects, which guarantee canonical form (gcd-reduced, positive denominator,
``Fraction(0, 5) == Fraction(0, 1)``) and raise ``ZeroDivisionError`` on a
zero denominator.  Decimals are rendered from the exact rationals at print
time.

Three pure functions keep a bounded memo (`functools.lru_cache`):
`_factor_text`, the factorized text of one positive integer (1024 entries);
`_runs`, the sieved prime runs of one trial-division limit (2 entries, built
on first use); and `_render_context`, the decimal context of one digit count
(32 entries).
"""

from __future__ import annotations

import collections
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

# primes per run: one gcd with a run's product tells which of them divide
_RUN = 100


@functools.lru_cache(maxsize=2)
def _runs(limit: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """The odd primes from 257 up to ``limit`` in runs of `_RUN`, each with its product.

    The last run may be short.  Sieved once per limit on first use, never at import.
    """
    sieve = bytearray([1]) * (limit + 1)
    for p in range(3, math.isqrt(limit) + 1, 2):
        if sieve[p]:
            sieve[p * p :: 2 * p] = bytes(len(range(p * p, limit + 1, 2 * p)))
    primes = list(itertools.compress(range(257, limit + 1, 2), sieve[257::2]))
    runs = (tuple(primes[i : i + _RUN]) for i in range(0, len(primes), _RUN))
    return tuple((math.prod(run), run) for run in runs)


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


def factorize_integer(value: int) -> list[tuple[int, int]]:
    """The prime factors of a positive integer with their exponents, primes ascending.

    The power of 2 is read off the low bits.  The odd primes are then tried
    in chunks, each with its product: first the 53 below 256, then the runs
    of `_runs`.  One gcd with a chunk's product is the product of exactly
    those of its primes that divide.  After a chunk the cofactor has no prime
    factor up to its last prime p, so below p^2 it is 1 or prime; a
    deterministic Miller-Rabin test after the first chunk and after each run
    that divided proves a larger prime.  Either ends the division.

    A cofactor below 3.3e24 (the last bound of `_SPSP_BOUNDS`) after the
    first chunk is tried against the runs up to ``1 << 16``; a larger one,
    where no proof holds, up to `TRIAL_DIVISION_LIMIT`.  Pollard-Brent rho
    splits what is left below 3.3e24 into proven primes.  A part left at or
    past that bound is appended whole and unproven, so the product of p**e
    over the result is always ``value``.
    """
    if value < 1:
        raise ValueError("only positive integers are factored")
    e = (value & -value).bit_length() - 1
    factors = [(2, e)] if e else []
    rem = _divide_out(value >> e, _SMALL_PRODUCT, _SMALL_PRIMES, factors)
    if rem >= 257**2 and not _is_proven_prime(rem):
        for product, primes in _runs(1 << 16 if rem < _SPSP_BOUNDS[-1] else TRIAL_DIVISION_LIMIT):
            before = rem
            rem = _divide_out(rem, product, primes, factors)
            if rem < primes[-1] ** 2 or rem < before and _is_proven_prime(rem):
                break
        else:  # no prime factor up to the limit and no proof: rho splits what it can
            return factors + sorted(collections.Counter(_prime_parts(rem)).items())
    if rem > 1:
        factors.append((rem, 1))
    return factors


def _divide_out(rem: int, product: int, primes: tuple[int, ...], factors: list[tuple[int, int]]) -> int:
    """``rem`` with the primes of one chunk divided out, each appended to ``factors`` with its power."""
    g = math.gcd(rem, product)
    for p in primes:
        if g % p:
            if p * p <= g:
                continue
            # past sqrt(g), what is left of g is 1 or the last prime to divide
            if g == 1:
                break
            p = g
        g //= p
        rem //= p
        e = 1
        while not rem % p:
            rem //= p
            e += 1
        factors.append((p, e))
    return rem


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
    """The prime factors of an odd n > 1 with none below 257, with repeats; n of 3.3e24 and up stays whole."""
    if n >= _SPSP_BOUNDS[-1] or _is_proven_prime(n):
        return [n]
    d = _rho_factor(n)
    return _prime_parts(d) + _prime_parts(n // d)


def format_factorized(x: Fraction) -> str:
    """Prime-factorized rendering of a rational, e.g. -3×53/2^16.

    Each side is `factorize_integer` of it, joined by ``×``: every printed
    factor is proven prime, except a part of 3.3e24 or more left after trial
    division up to `TRIAL_DIVISION_LIMIT`, which is printed whole.  Exponent
    1 is omitted, a denominator of 1 is left out and zero prints as ``0``;
    each side's text is memoized (`_factor_text`).  Rho splits a part below
    3.3e24 with no prime factor below 2^16 in about sqrt(p) steps, p its
    least prime: two primes near 1e12 take about 1 s, one near 1e6 a few ms.
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
    text = ""
    for p, e in factorize_integer(v):
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


def render_decimal(x: Fraction, digits: int) -> str:
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
