"""Tests for the exact generalized-Laguerre integral formulas.

``brute_force_integral`` (term-by-term expansion, using only
``int x^m e^-x dx = m!``) from the test-side reference module is the
oracle; every closed formula is checked against it, and the formulas' own
fixed values are pinned here.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from zeeman2d.laguerre import _moment3_factor
from zeeman2d.oracle import _exact_pieces

from radial_reference import (
    Laguerre,
    RationalPolynomial,
    brute_force_integral,
    cross_integral,
    laguerre_coeffs,
    moment3_band,
)


def recurrence_coeffs(k: int, alpha: int) -> RationalPolynomial:
    """Independent construction of L_k^(alpha) by the three-term recurrence."""
    prev = RationalPolynomial.constant(1)
    if k == 0:
        return prev
    x = RationalPolynomial.identity()
    cur = RationalPolynomial.constant(alpha + 1) - x
    for j in range(1, k):
        nxt = (
            (RationalPolynomial.constant(2 * j + alpha + 1) - x) * cur
            - Fraction(j + alpha) * prev
        ) * Fraction(1, j + 1)
        prev, cur = cur, nxt
    return cur


class TestLaguerreSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            Laguerre(-1, 0)
        with pytest.raises(ValueError):
            Laguerre(0, -1)

    def test_coefficients_match_recurrence(self):
        for k in range(0, 9):
            for alpha in range(0, 7):
                assert laguerre_coeffs(Laguerre(k, alpha)) == recurrence_coeffs(k, alpha)

    def test_value_at_zero_is_binomial(self):
        for k in range(0, 9):
            for alpha in range(0, 7):
                poly = laguerre_coeffs(Laguerre(k, alpha))
                assert poly(Fraction(0)) == math.comb(k + alpha, k)


class TestCrossIntegral:
    def test_orthogonality_anchor(self):
        # gamma = alpha reduces to the classical orthogonality relation
        for alpha in range(0, 9):
            for k in range(0, 11):
                for kp in range(0, 11):
                    expected = (
                        Fraction(math.factorial(k + alpha), math.factorial(k))
                        if k == kp
                        else Fraction(0)
                    )
                    assert cross_integral(alpha, Laguerre(k, alpha), Laguerre(kp, alpha)) == expected

    def test_negative_gamma_rejected(self):
        with pytest.raises(ValueError):
            cross_integral(-1, Laguerre(0, 0), Laguerre(0, 0))

    def test_matches_brute_force_mixed_orders(self):
        # randomized alpha != beta sampling; the acceptance sweep covers alpha = beta
        rng = random.Random(20250817)
        for _ in range(120):
            gamma = rng.randint(0, 12)
            a = Laguerre(rng.randint(0, 10), rng.randint(0, 8))
            b = Laguerre(rng.randint(0, 10), rng.randint(0, 8))
            assert cross_integral(gamma, a, b) == brute_force_integral(gamma, a, b)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 12),
        st.integers(0, 10), st.integers(0, 8),
        st.integers(0, 10), st.integers(0, 8),
    )
    def test_matches_brute_force_property(self, gamma, k, alpha, kp, beta):
        a, b = Laguerre(k, alpha), Laguerre(kp, beta)
        assert cross_integral(gamma, a, b) == brute_force_integral(gamma, a, b)


class TestBruteForce:
    def test_fixed_values(self):
        assert brute_force_integral(0, Laguerre(0, 0), Laguerre(0, 0)) == 1
        # 3! - 3*4! + (3/2)*5! - (1/6)*6! = 6 - 72 + 180 - 120 = -6
        assert brute_force_integral(3, Laguerre(0, 0), Laguerre(3, 0)) == -6
        # single-term integral: L_0^(2) = 1, so it is plainly Gamma(gamma+1) = 3! = 6
        assert brute_force_integral(3, Laguerre(0, 2), Laguerre(0, 2)) == 6


class TestThirdMomentDiagonal:
    def test_fixed_values(self):
        assert moment3_band(0, 0, 0) == 6          # int x^3 e^-x dx
        assert moment3_band(0, 0, 1) == 24         # int x^4 e^-x dx
        assert moment3_band(1, 1, 0) == 78

    def test_returns_int(self):
        # the closed form is an integer times (k+alpha)!/k!, returned as int
        assert all(type(moment3_band(k, k, alpha)) is int for k in range(6) for alpha in range(6))

    def test_three_routes_agree(self):
        for alpha in range(0, 9):
            for k in range(0, 11):
                spec = Laguerre(k, alpha)
                direct = moment3_band(k, k, alpha)
                assert direct == cross_integral(alpha + 3, spec, spec)
                assert direct == brute_force_integral(alpha + 3, spec, spec)

    def test_positive(self):
        # the integrand weight is positive and the diagonal is a square
        for alpha in range(0, 9):
            for k in range(0, 11):
                assert moment3_band(k, k, alpha) > 0


class TestThirdMomentDiagonals:
    @pytest.mark.parametrize("alpha", [0, 1, 2, 7, 40, 168])
    def test_rows_match_entries(self, alpha):
        # the factor times perm(i + alpha, alpha) against moment3_band, entry by entry, as ints
        for i in range(300):
            for d in range(4):
                value = _moment3_factor(i, d, alpha) * math.perm(i + alpha, alpha)
                assert type(value) is int
                assert value == moment3_band(i, i + d, alpha), (d, i)

    def test_scale_multiplies_every_entry(self):
        # the oracle's R band is s^3 M(i, i + d) over 8 p^3, k = p/s = sqrt(-2 E*),
        # built in the pass over its running ratio; here k = 3/4 and k = 1/5
        for l in (0, 1, 3):
            for reference, p, s in ((Fraction(-9, 32), 3, 4), (Fraction(-1, 50), 1, 5)):
                for size in (0, 1, 2, 3, 4, 5, 300):
                    diagonals, denominator = _exact_pieces(l, Fraction(1), size, reference)[3]
                    assert denominator == 8 * p**3
                    assert [len(diagonal) for diagonal in diagonals] == [max(size - d, 0) for d in range(4)]
                    for d, diagonal in enumerate(diagonals):
                        for i, value in enumerate(diagonal):
                            assert type(value) is int
                            assert value == s**3 * moment3_band(i, i + d, 2 * l), (l, size, d, i)


class TestThirdMomentBand:
    def test_selection_rule(self):
        assert moment3_band(0, 4, 0) == 0
        for k in range(0, 11):
            for kp in range(0, 11):
                vanishes = moment3_band(k, kp, 3) == 0
                assert vanishes == (abs(k - kp) > 3)

    def test_fixed_values(self):
        # the farthest coupled neighbour: -Gamma(k+alpha+4)/k! at (k=0, alpha=0)
        assert moment3_band(0, 3, 0) == -6
        # first-neighbour branch at (k=2, k'=1, alpha=2):
        # -3(5k^2+5alpha k+alpha^2+1) Gamma(k+alpha+1)/(k-1)! = -3*45*24/1
        assert moment3_band(2, 1, 2) == -3240

    def test_returns_int(self):
        # every branch, the zero outside the band included
        for d in range(6):
            assert type(moment3_band(4, 4 + d, 3)) is int
            assert type(moment3_band(4 + d, 4, 3)) is int

    def test_symmetry(self):
        for alpha in range(0, 9):
            for k in range(0, 11):
                for kp in range(0, 11):
                    assert moment3_band(k, kp, alpha) == moment3_band(kp, k, alpha)

    def test_matches_brute_force(self):
        for alpha in range(0, 9):
            for k in range(0, 11):
                for kp in range(0, 11):
                    expected = brute_force_integral(alpha + 3, Laguerre(k, alpha), Laguerre(kp, alpha))
                    assert moment3_band(k, kp, alpha) == expected

    def test_downward_branches_as_printed(self):
        """The lower-ordering branch coefficients, transcribed literally.

        The band formula is stated for one ordering and symmetrized
        internally; this pins the printed k' < k branch forms directly
        against the oracle so the symmetrization cannot hide a typo.
        """
        rng = random.Random(7)
        for _ in range(60):
            alpha = rng.randint(0, 8)
            k = rng.randint(1, 10)
            fk = math.factorial(k)
            # k' = k - 1
            expected = Fraction(
                -3 * (5 * k * k + 5 * alpha * k + alpha * alpha + 1)
                * math.factorial(k + alpha),
                math.factorial(k - 1),
            )
            assert moment3_band(k, k - 1, alpha) == expected
            if k >= 2:
                expected = Fraction(
                    3 * (2 * k + alpha - 1) * math.factorial(k + alpha), math.factorial(k - 2)
                )
                assert moment3_band(k, k - 2, alpha) == expected
            if k >= 3:
                expected = Fraction(-math.factorial(k + alpha), math.factorial(k - 3))
                assert moment3_band(k, k - 3, alpha) == expected
