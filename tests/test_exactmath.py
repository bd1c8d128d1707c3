"""Tests for the exact arithmetic primitives."""

import math
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from zeeman2d.exactmath import (
    RationalPolynomial,
    factorize_integer,
    format_factorized,
    gen_binomial,
    parse_rational,
    rational_sqrt,
    render_decimal,
)

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
        p = 1_000_003  # prime just past the default trial cap
        assert factorize_integer(4 * p) == [(2, 2), (p, 1)]

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            factorize_integer(0)

    @given(st.integers(1, 10**6))
    def test_product_reconstructs(self, v):
        assert math.prod(p**e for p, e in factorize_integer(v)) == v

    def test_residual_past_cap_is_single_entry(self):
        # 1009 and 1013 are both primes above the tiny cap used here
        out = factorize_integer(2 * 1009 * 1013, trial_limit=100)
        assert out == [(2, 1), (1009 * 1013, 1)]

    def test_prime_residual_above_cap_is_kept(self):
        # a prime cofactor whose square root lies past the cap survives whole
        p = 10_007
        assert factorize_integer(3**4 * p, trial_limit=50) == [(3, 4), (p, 1)]
        assert factorize_integer(p, trial_limit=50) == [(p, 1)]

    @given(st.integers(1, 10**12), st.sampled_from([1, 2, 3, 10, 97, 100, 1000, 10**4]))
    @example(2 * 97**3, 97)  # the cap itself is a prime factor
    @example(97 * 101, 97)  # the cap is a factor, the residual a prime
    @example(10**12, 10**4)
    def test_matches_plain_trial_division(self, v, cap):
        assert factorize_integer(v, trial_limit=cap) == _odd_trial_division(v, cap)

    def test_prime_table_not_built_at_import(self):
        src = Path(__file__).resolve().parents[1] / "src"
        code = (
            "import sys; sys.path.insert(0, sys.argv[1]); "
            "import zeeman2d.cli, zeeman2d.exactmath as em; "
            "assert em._prime_table == (1, []), em._prime_table[0]"
        )
        subprocess.run([sys.executable, "-c", code, str(src)], check=True, timeout=60)


def _odd_trial_division(value: int, trial_limit: int) -> list[tuple[int, int]]:
    """Reference: divide by 2 and then every odd number up to the cap."""
    factors = []
    rem, p = value, 2
    while p <= trial_limit and p * p <= rem:
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


class TestFormatting:
    def test_factorized_examples(self):
        assert format_factorized(Fraction(3, 64)) == "3/2^6"
        assert format_factorized(Fraction(-159, 65536)) == "-3×53/2^16"
        assert format_factorized(Fraction(117, 64)) == "3^2×13/2^6"
        assert format_factorized(Fraction(0)) == "0"
        assert format_factorized(Fraction(1)) == "1"
        assert format_factorized(Fraction(-1, 8)) == "-1/2^3"
        assert format_factorized(Fraction(12)) == "2^2×3"

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

    def test_render_decimal_requires_digits(self):
        with pytest.raises(ValueError):
            render_decimal(Fraction(1), 0)


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
