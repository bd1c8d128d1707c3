"""Tests for the exact arithmetic primitives."""

import decimal
import hashlib
import math
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from zeeman2d import exactmath
from zeeman2d.exactmath import (
    factorize_integer,
    format_factorized,
    parse_rational,
    rational_sqrt,
    render_decimal,
)
from zeeman2d.perturb import coefficient_set

from radial_reference import RationalPolynomial, gen_binomial

rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=40
)


class TestGenBinomial:
    def test_matches_comb_for_nonnegative_top(self):
        for top in range(0, 12):
            for j in range(0, 12):
                assert gen_binomial(top, j) == math.comb(top, j)

    def test_negative_top_reflection(self):
        # C(-t, j) = (-1)^j C(t+j-1, j)
        for t in range(1, 8):
            for j in range(0, 8):
                assert gen_binomial(-t, j) == (-1) ** j * math.comb(t + j - 1, j)

    def test_documented_example(self):
        assert gen_binomial(-2, 3) == Fraction(-4)

    def test_vanishes_inside_the_gap(self):
        # zero whenever a factor of the falling factorial hits zero
        assert gen_binomial(1, 3) == 0
        assert gen_binomial(0, 1) == 0
        assert gen_binomial(4, 7) == 0

    def test_j_zero_is_one(self):
        for top in (-5, -1, 0, 3):
            assert gen_binomial(top, 0) == 1

    def test_negative_lower_index_rejected(self):
        with pytest.raises(ValueError):
            gen_binomial(3, -1)

    @given(st.integers(-30, 30), st.integers(0, 10))
    def test_pascal_recurrence(self, top, j):
        # C(top, j) = C(top-1, j) + C(top-1, j-1) holds for any integer top
        left = gen_binomial(top, j)
        right = gen_binomial(top - 1, j)
        if j > 0:
            right += gen_binomial(top - 1, j - 1)
        assert left == right


class TestRationalSqrt:
    def test_perfect_squares(self):
        assert rational_sqrt(Fraction(4)) == 2
        assert rational_sqrt(Fraction(9, 16)) == Fraction(3, 4)
        assert rational_sqrt(Fraction(0)) == 0

    def test_irrational_is_none(self):
        assert rational_sqrt(Fraction(2)) is None
        assert rational_sqrt(Fraction(1, 27)) is None

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            rational_sqrt(Fraction(-1))

    @given(rationals.filter(lambda q: q != 0))
    def test_square_then_root_round_trips(self, q):
        assert rational_sqrt(q * q) == abs(q)


class TestFactorizeInteger:
    def test_small_values(self):
        assert factorize_integer(1) == []
        assert factorize_integer(2) == [(2, 1)]
        assert factorize_integer(360) == [(2, 3), (3, 2), (5, 1)]

    def test_large_prime_survives(self):
        p = 1_000_003  # prime just past the trial-division limit
        assert factorize_integer(4 * p) == [(2, 2), (p, 1)]

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            factorize_integer(0)

    @given(st.integers(1, 10**6))
    def test_product_reconstructs(self, v):
        assert math.prod(p**e for p, e in factorize_integer(v)) == v

    def test_residual_past_cap_is_single_entry(self):
        # past the trial-division limit and the proof bound a composite is
        # left unsplit, as one entry, so the product still reconstructs
        composite = (10**12 + 39) * (10**13 + 37)
        assert composite >= exactmath._SPSP_BOUNDS[-1]
        assert factorize_integer(2 * 999_983 * composite) == [(2, 1), (999_983, 1), (composite, 1)]

    def test_prime_residual_above_cap_is_kept(self):
        # a prime cofactor past both run tables survives whole
        for p in (1_000_003, 10**12 + 39):
            assert factorize_integer(3**4 * p) == [(3, 4), (p, 1)]
            assert factorize_integer(p) == [(p, 1)]

    # the reference divides by every odd number up to the square root of v,
    # about 5 ms at 10^10, so hypothesis's 200 ms deadline would be a timing
    # coin flip rather than a check
    @settings(deadline=None)
    @given(st.integers(1, 10**10))
    @example(2 * 97**3)
    @example(97 * 101)
    @example(65521 * 65537)  # both sides of the 1 << 16 table's edge: rho splits it
    @example(65537 * 65539)
    @example(3_215_031_751)  # a strong pseudoprime to bases 2, 3, 5 and 7
    @example(561)  # Carmichael numbers
    @example(41041)
    def test_matches_plain_trial_division(self, v):
        assert factorize_integer(v) == _odd_trial_division(v)

    def test_chosen_primes_come_back(self):
        # products of chosen primes on each side of each boundary must give
        # exactly those primes back: 251 | 257 (front end to first run), the
        # edges of the first two runs, 65521 | 65537 (the 1 << 16 table) and
        # 999983 | 1000003 (the trial-division limit).  Those past a table's
        # end are split by rho
        runs = exactmath._runs(1 << 16)
        edges = [251, *(p for _, run in runs[:2] for p in (run[0], run[-1]))]
        assert edges[:2] == [251, 257] and runs[-1][1][-1] == 65521
        small = [*edges, 65521, 65537, 999_983]
        for primes in (small, [*small, 1_000_003], [65521, 65537], [999_983, 1_000_003],
                       [65537, 999_983, 1_000_003], [257, 65521, 1_000_003], [10**9 + 7]):
            for e in (1, 2):
                expected = [(p, e) for p in primes]
                assert factorize_integer(math.prod(p**e for p in primes)) == expected, expected
        assert factorize_integer((2**61 - 1) * 1_000_003) == [(1_000_003, 1), (2**61 - 1, 1)]

    def test_proof_bound_decides_the_trial_division_limit(self):
        # at or past 3.3e24 the runs go up to the trial-division limit: here
        # they bring the cofactor below the bound, and rho splits the rest
        big = 10**13 + 37
        v = 999_983 * 1_000_003 * big
        assert v >= exactmath._SPSP_BOUNDS[-1] > 1_000_003 * big
        assert factorize_integer(v) == [(999_983, 1), (1_000_003, 1), (big, 1)]
        # a part past the bound after the runs stays whole, unproven
        m89 = 2**89 - 1
        assert factorize_integer(65521 * 65537 * m89) == [(65521, 1), (65537, 1), (m89, 1)]
        assert factorize_integer(3 * 65537 * 999_983 * m89) == [(3, 1), (65537, 1), (999_983, 1), (m89, 1)]

    def test_primality_proof_rejects_every_bound(self):
        # each bound is a strong pseudoprime to every base of its own set, so
        # only the next, larger set may decide it (the last one: none may)
        for k, bound in enumerate(exactmath._SPSP_BOUNDS, 1):
            assert all(_strong_probable_prime(bound, a) for a in exactmath._SPSP_BASES[:k])
            assert not exactmath._is_proven_prime(bound), bound
        for n in (561, 41041, 1_000_003**2, 999_983 * 1_000_003):
            assert not exactmath._is_proven_prime(n), n

    def test_primality_proof_accepts_primes_below_the_last_bound(self):
        for p in (101, 1_000_003, 2**31 - 1, 2**61 - 1, 318_665_857_834_031_151_167_441,
                  3_317_044_064_679_887_385_961_813):
            assert exactmath._is_proven_prime(p), p
        assert not exactmath._is_proven_prime(2**89 - 1)  # prime, but past the last bound

    def test_pseudoprime_bounds_come_back_as_their_primes(self):
        # every bound below the last is split into its prime factors; the
        # last is left whole, past the proof bound
        for factors in (
            [23, 89], [829, 1657], [2251, 11251], [151, 751, 28351], [6763, 10627, 29947],
            [1303, 16927, 157543], [10670053, 32010157], [149491, 747451, 34233211],
            [399165290221, 798330580441],
        ):
            assert math.prod(factors) in exactmath._SPSP_BOUNDS
            assert factorize_integer(math.prod(factors)) == [(p, 1) for p in factors]
        last = exactmath._SPSP_BOUNDS[-1]
        assert factorize_integer(last) == [(last, 1)]

    def test_runs_not_built_at_import(self):
        # the runs are sieved on first use, not by importing the library or the CLI
        src = Path(__file__).resolve().parents[1] / "src"
        code = (
            "import sys; sys.path.insert(0, sys.argv[1]); "
            "import zeeman2d.cli, zeeman2d.exactmath as em; "
            "assert em._runs.cache_info().currsize == 0, em._runs.cache_info()"
        )
        subprocess.run([sys.executable, "-c", code, str(src)], check=True, timeout=60)

    def test_small_primes_are_the_odd_primes_below_256(self):
        assert exactmath._SMALL_PRIMES == tuple(_odd_primes(3, 255))
        assert exactmath._SMALL_PRODUCT == math.prod(exactmath._SMALL_PRIMES)

    def test_runs_cover_the_primes_in_order(self):
        # the runs at both limits in use equal a plain sieve's primes from 257 on
        for limit in (1 << 16, exactmath.TRIAL_DIVISION_LIMIT):
            runs = exactmath._runs(limit)
            primes = [p for _, run in runs for p in run]
            assert primes == [p for p in _plain_sieve(limit) if p >= 257]
            assert all(len(run) == exactmath._RUN for _, run in runs[:-1])
            assert all(product == math.prod(run) for product, run in runs)
            assert runs[0][1][0] == 257

    @settings(deadline=None)
    @given(st.lists(st.integers(1, 20_000), min_size=1, max_size=6))
    @example([300, 887, 888, 2000])  # ends inside the first run, at its last prime, past it
    @example([256, 257, 258, 1000, 999])
    def test_grown_table_equals_one_sieve(self, limits):
        # the runs at any limit equal one plain sieve's primes from 257 on, and
        # the runs at a smaller limit are those at the largest, the last one
        # possibly cut short; sieved uncached so the two shared tables stay put
        largest = exactmath._runs.__wrapped__(max(limits))
        for limit in limits:
            runs = exactmath._runs.__wrapped__(limit)
            assert [p for _, run in runs for p in run] == [p for p in _plain_sieve(limit) if p >= 257]
            assert all(product == math.prod(run) for product, run in runs)
            if runs:
                assert runs[:-1] == largest[: len(runs) - 1]
                assert runs[-1][1] == largest[len(runs) - 1][1][: len(runs[-1][1])]

    def test_front_end_boundary_matches_plain_trial_division(self):
        # 251 | 257 is where the front end hands over to the runs; 66047 and
        # 66067 are the primes either side of 257^2, and 257 * 263 the least
        # cofactor past 257^2 free of primes below 257
        square = 257**2
        cofactors = [66047, square, 66067, 257 * 263, 251 * 1_000_003]
        values = [251, 257, 251**2, square, 251 * 257, 251 * 1_000_003]
        values += cofactors + [2**3 * 3 * 251 * c for c in cofactors]
        for v in values:
            assert factorize_integer(v) == _odd_trial_division(v), v
        assert factorize_integer(2**3 * 3 * 251 * 66047) == [(2, 3), (3, 1), (251, 1), (66047, 1)]
        assert factorize_integer(square * 251) == [(251, 1), (257, 2)]

    def test_run_edges_match_plain_trial_division(self):
        # prime factors on each side of the front end's boundary (251 | 257)
        # and of the first two run boundaries after it; 97 | 101 and
        # 229 | 233, the run boundaries of an earlier layout, now lie inside
        # the front end
        runs = exactmath._runs(1 << 16)
        edges = [exactmath._SMALL_PRIMES[-1]] + [p for _, run in runs[:2] for p in (run[0], run[-1])]
        assert edges[:2] == [251, 257]
        edges += [97, 101, 229, 233, 379]
        values = [*edges, *(p * p for p in edges), math.prod(edges), 2**5 * 3 * math.prod(edges[1::2]) ** 2]
        values += [a * b for a in edges for b in edges] + [p * 1_000_003 for p in edges]
        for v in values:
            assert factorize_integer(v) == _odd_trial_division(v), v


def _odd_primes(lo: int, hi: int) -> list[int]:
    """Primes p with lo <= p <= hi, by trial division (lo >= 3)."""
    return [p for p in range(lo, hi + 1) if all(p % q for q in range(2, math.isqrt(p) + 1))]


def _strong_probable_prime(n: int, a: int) -> bool:
    """Whether odd n passes the strong-probable-prime test to base a."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    return x == 1 or any(pow(x, 2**r, n) == n - 1 for r in range(s))


def _printed_factors(text: str) -> list[tuple[int, int]]:
    """The (base, exponent) pairs of a rendering such as ``-3×53/2^16``, both sides."""
    pairs = []
    for factor in text.lstrip("-").replace("/", "×").split("×"):
        base, _, exp = factor.partition("^")
        pairs.append((int(base), int(exp or 1)))
    return pairs


def _unfactor(text: str) -> Fraction:
    """The value of a rendering such as ``-3×53/2^16``."""
    num, _, den = text.lstrip("-").partition("/")
    value = Fraction(math.prod(p**e for p, e in _printed_factors(num)),
                     math.prod(p**e for p, e in _printed_factors(den or "1")))
    return -value if text.startswith("-") else value


def _odd_trial_division(value: int) -> list[tuple[int, int]]:
    """Reference: divide by 2 and then every odd number up to the square root of what is left."""
    factors = []
    rem, p = value, 2
    while p * p <= rem:
        e = 0
        while rem % p == 0:
            rem //= p
            e += 1
        if e:
            factors.append((p, e))
        p += 1 if p == 2 else 2
    if rem > 1:
        factors.append((rem, 1))
    return factors


def _plain_sieve(limit: int) -> list[int]:
    """Reference: the primes up to limit, by striking out multiples one by one."""
    is_prime = [True] * (limit + 1)
    for p in range(2, math.isqrt(limit) + 1):
        if is_prime[p]:
            for m in range(p * p, limit + 1, p):
                is_prime[m] = False
    return [p for p in range(2, limit + 1) if is_prime[p]]


class TestFormatting:
    def test_factorized_examples(self):
        assert format_factorized(Fraction(3, 64)) == "3/2^6"
        assert format_factorized(Fraction(-159, 65536)) == "-3×53/2^16"
        assert format_factorized(Fraction(117, 64)) == "3^2×13/2^6"
        assert format_factorized(Fraction(0)) == "0"
        assert format_factorized(Fraction(1)) == "1"
        assert format_factorized(Fraction(-1, 8)) == "-1/2^3"
        assert format_factorized(Fraction(12)) == "2^2×3"

    def test_sweep_renderings_are_pinned(self, monkeypatch):
        # the factorized and 12-digit decimal forms of eps0, eps2 and eps4 for
        # all 3240 states with n <= 80, one line per state.  This is the
        # traffic the memo of `_factor_text` is sized for: every cofactor left
        # by the runs up to 1 << 16 is proven prime, so rho is never reached,
        # and no side needs the runs up to the trial-division limit
        def forbidden(n):
            raise AssertionError(f"rho called on {n}")

        monkeypatch.setattr(exactmath, "_rho_factor", forbidden)
        exactmath._factor_text.cache_clear()
        exactmath._runs.cache_clear()
        digest = hashlib.sha256()
        largest = 1
        for n in range(1, 81):
            for l in range(n):
                cs = coefficient_set(n, l)
                parts = [str(n), str(l)]
                for v in (cs.eps0, cs.eps2, cs.eps4):
                    text = format_factorized(v)
                    parts += [text, render_decimal(v, 12)]
                    largest = max([largest, *(p for p, _ in _printed_factors(text))])
                digest.update((" ".join(parts) + "\n").encode())
        assert digest.hexdigest() == "319fe587e78cbb3ca9f14b2bb9ffd34eb629193623c28f1eab643ecca6607800"
        assert largest < exactmath.TRIAL_DIVISION_LIMIT**2
        # only the small table was sieved: asking for it again is a hit
        assert exactmath._runs.cache_info().currsize == 1
        hits = exactmath._runs.cache_info().hits
        exactmath._runs(1 << 16)
        assert exactmath._runs.cache_info().hits == hits + 1

    def test_composite_residuals_are_split_into_proven_primes(self):
        # these eps4 numerators leave a composite cofactor above 10^12 with
        # no prime factor below 10^6 (4128343675363 = 1334117 × 3094439 at
        # (413, 28)), which rho splits into primes that Miller-Rabin proves
        pinned = {
            (413, 28): "-3^6×5^12×11^6×1334117×3094439/2^16",
            (419, 28): "-3^18×31^6×1849273×2365357/2^16",
            (443, 210): "-3^6×5^6×59^6×1376257×3389413/2^16",
        }
        for (n, l), text in pinned.items():
            value = coefficient_set(n, l).eps4
            assert format_factorized(value) == text
            factors = factorize_integer(-value.numerator)
            assert _printed_factors(text.split("/")[0]) == factors
            p, q = (p for p, _ in factors[-2:])
            assert exactmath.TRIAL_DIVISION_LIMIT < p < q and exactmath._is_proven_prime(q)
            assert _unfactor(text) == value
            assert all(p < 257**2 or exactmath._is_proven_prime(p) for p, _ in _printed_factors(text))

    def test_prime_square_residual(self):
        # the square of a prime just past the trial-division limit is split
        # by rho and rendered as a power
        p = 1_000_003
        assert factorize_integer(3 * p * p) == [(3, 1), (p, 2)]
        assert format_factorized(Fraction(3 * p * p, 32)) == "3×1000003^2/2^5"
        assert format_factorized(Fraction(p**3)) == "1000003^3"
        assert exactmath._is_proven_prime(p)

    def test_residual_past_the_proof_bound_is_printed_whole(self):
        # no Miller-Rabin base set is proven from 3.3e24 on: a residual there
        # is printed as it stands, prime or not
        composite = (10**12 + 39) * (10**13 + 37)
        assert composite >= exactmath._SPSP_BOUNDS[-1]
        assert format_factorized(Fraction(composite)) == str(composite)
        assert format_factorized(Fraction(2**89 - 1, 3)) == f"{2**89 - 1}/3"
        below = (10**12 + 39) * (10**12 + 61)
        assert format_factorized(Fraction(below)) == "1000000000039×1000000000061"

    def test_rho_factor_finds_a_proper_factor(self):
        for p, q in ((1_000_003, 1_000_003), (1_000_003, 1_000_033), (1334117, 3094439), (10**6 + 3, 2**61 - 1)):
            d = exactmath._rho_factor(p * q)
            assert 1 < d < p * q and (p * q) % d == 0

    def test_memo_returns_the_same_text_cold_warm_and_after_eviction(self):
        pinned = {
            Fraction(-159, 65536): "-3×53/2^16",
            Fraction(3 * 1_000_003**2, 32): "3×1000003^2/2^5",
            Fraction(-4128343675363, 2**16): "-1334117×3094439/2^16",
            Fraction(-2, 9): "-2/3^2",
        }
        sides = {side for v in pinned for side in (abs(v.numerator), v.denominator)}
        exactmath._factor_text.cache_clear()
        assert [format_factorized(v) for v in pinned] == list(pinned.values())  # cold
        assert exactmath._factor_text.cache_info().misses == len(sides) == 7
        hits = exactmath._factor_text.cache_info().hits
        assert [format_factorized(v) for v in pinned] == list(pinned.values())  # warm
        assert exactmath._factor_text.cache_info().hits == hits + 8
        # more distinct sides than the memo holds push every pinned side out
        maxsize = exactmath._factor_text.cache_info().maxsize
        for k in range(maxsize + 1):
            format_factorized(Fraction(10**7 + k))
        misses = exactmath._factor_text.cache_info().misses
        assert [format_factorized(v) for v in pinned] == list(pinned.values())  # evicted
        assert exactmath._factor_text.cache_info().misses == misses + len(sides)

    def test_memo_is_bounded(self):
        info = exactmath._factor_text.cache_info()
        assert isinstance(info.maxsize, int) and info.currsize <= info.maxsize

    def test_rational_round_trip(self):
        for q in (Fraction(3, 64), Fraction(-159, 65536), Fraction(7), Fraction(0)):
            assert parse_rational(str(q)) == q

    @given(rationals)
    def test_round_trip_property(self, q):
        assert parse_rational(str(q)) == q

    def test_parse_accepts_decimal_strings(self):
        assert parse_rational("0.05") == Fraction(1, 20)
        assert parse_rational(" -3/4 ") == Fraction(-3, 4)

    def test_parse_rejects_junk(self):
        with pytest.raises(ValueError):
            parse_rational("three halves")
        with pytest.raises(ValueError):
            parse_rational("1/0")

    def test_render_decimal_correctly_rounded(self):
        assert render_decimal(Fraction(1, 3), 5) == "0.33333"
        assert render_decimal(Fraction(2, 3), 5) == "0.66667"
        assert render_decimal(Fraction(-159, 65536), 9) == "-0.00242614746"
        # round-half-even at the boundary
        assert render_decimal(Fraction(25, 100), 1) == "0.2"

    def test_render_decimal_ignores_the_callers_context(self):
        # rounding, traps, precision, exponent range and exponent letter of
        # the thread's decimal context do not reach the rendering
        values = [(Fraction(2, 3), 3), (Fraction(-159, 65536), 9), (Fraction(1, 10**20), 12),
                  (Fraction(10**30, 3), 12), (Fraction(25, 100), 1)]
        expected = [render_decimal(x, digits) for x, digits in values]
        assert expected[0] == "0.667"
        with decimal.localcontext() as ctx:
            ctx.rounding = decimal.ROUND_FLOOR
            ctx.traps[decimal.Inexact] = True
            ctx.prec = 2
            ctx.Emax = 3
            ctx.capitals = 0
            assert [render_decimal(x, digits) for x, digits in values] == expected

    def test_render_decimal_requires_digits(self):
        with pytest.raises(ValueError):
            render_decimal(Fraction(1), 0)
        with pytest.raises(TypeError):  # no default digit count
            render_decimal(Fraction(1))


class TestRationalPolynomial:
    def test_trims_trailing_zeros(self):
        p = RationalPolynomial((Fraction(1), Fraction(2), Fraction(0)))
        assert p.degree == 1
        assert p.coefficient(5) == 0

    def test_constructors(self):
        assert RationalPolynomial.constant(3)(Fraction(10)) == 3
        assert RationalPolynomial.identity()(Fraction(7)) == 7

    def test_arithmetic_against_pointwise_oracle(self):
        p = RationalPolynomial((Fraction(1), Fraction(-2), Fraction(3)))
        q = RationalPolynomial((Fraction(0), Fraction(5)))
        for x in (Fraction(0), Fraction(1), Fraction(-3, 2), Fraction(7, 3)):
            assert (p + q)(x) == p(x) + q(x)
            assert (p - q)(x) == p(x) - q(x)
            assert (p * q)(x) == p(x) * q(x)
            assert (-p)(x) == -p(x)
            assert (Fraction(2, 3) * p)(x) == Fraction(2, 3) * p(x)

    def test_derivative(self):
        # d/dx (1 - 2x + 3x^2) = -2 + 6x
        p = RationalPolynomial((Fraction(1), Fraction(-2), Fraction(3)))
        assert p.derivative() == RationalPolynomial((Fraction(-2), Fraction(6)))
        assert RationalPolynomial.constant(4).derivative().degree <= 0
        assert not RationalPolynomial.constant(4).derivative()

    def test_float_evaluation_matches_exact(self):
        p = RationalPolynomial((Fraction(1, 3), Fraction(-5, 7), Fraction(2)))
        x = 1.25
        exact = p(Fraction(5, 4))
        assert p(x) == pytest.approx(float(exact), rel=1e-15)
        # exact input stays exact
        assert isinstance(p(Fraction(5, 4)), Fraction)

    @given(
        st.lists(rationals, min_size=1, max_size=5),
        st.lists(rationals, min_size=1, max_size=5),
        rationals,
    )
    def test_ring_axioms_pointwise(self, ca, cb, x):
        p = RationalPolynomial(tuple(ca))
        q = RationalPolynomial(tuple(cb))
        assert (p + q)(x) == (q + p)(x)
        assert (p * q)(x) == (q * p)(x)
        assert (p * (p + q))(x) == (p * p + p * q)(x)
