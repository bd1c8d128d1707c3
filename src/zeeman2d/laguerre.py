"""The exact banded third moment of the generalized Laguerre polynomials.

`moment3_band` is the one home of the integer
integral_0^inf x^(alpha+3) e^{-x} L_k^{(alpha)} L_{k'}^{(alpha)} dx: its
diagonal gives the second-order coefficient, its band |k - k'| <= 3 the
fourth-order window and the oracle's r^2 operator.  Its closed form is
`_moment3_factor` times (k+alpha)!/k!.  The factorial ratio is the only
large part, so no route builds it per entry: `_moment3_diagonals` builds
whole diagonals for the oracle in one pass of a running ratio, and the
exact routes (`coulomb._window_terms`, `perturb.eps2_integral`) cancel it
against the level's own and keep `_moment3_factor` times ratios of a few
consecutive integers.  `moment3_band` itself is the public integral and the
tests' reference for `_moment3_factor`.
"""

from __future__ import annotations

import math

__all__ = ["moment3_band"]


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


def _moment3_diagonals(alpha: int, size: int, scale: int) -> tuple[tuple[int, ...], ...]:
    """The diagonals d = 0..3 of scale * moment3_band(i, j, alpha) for i, j < size.

    Diagonal d holds the entries (i, i + d) for i < size - d.  One pass over
    the running ratio q_i = perm(i + alpha, alpha) forms every row from
    `_moment3_factor`, with no `math.perm` per entry.
    """
    q = math.factorial(alpha)
    r0, r1, r2, r3 = [], [], [], []
    for i in range(size):
        sq = scale * q
        r0.append(sq * _moment3_factor(i, 0, alpha))
        r1.append(sq * _moment3_factor(i, 1, alpha))
        r2.append(sq * _moment3_factor(i, 2, alpha))
        r3.append(sq * _moment3_factor(i, 3, alpha))
        q = (i + alpha + 1) * q // (i + 1)
    return tuple(r0), tuple(r1[:-1]), tuple(r2[:-2]), tuple(r3[:-3])


def _moment3_factor(lo: int, d: int, alpha: int) -> int:
    """The integer c with moment3_band(lo, lo + d, alpha) = c perm(lo + alpha, alpha), 0 <= d <= 3.

    perm(lo + alpha, alpha) = (lo + alpha)!/lo! is a running ratio from row
    to row, so `_moment3_diagonals` multiplies these small factors by it and
    `moment3_band` by one `math.perm`; the exact routes never form it.
    """
    a = alpha
    if d == 0:
        return (2 * lo + a + 1) * (10 * lo * lo + 10 * lo + 10 * a * lo + a * a + 5 * a + 6)
    up = lo + a + 1
    if d == 1:
        return -3 * (5 * lo * lo + 10 * lo + 5 * a * lo + a * a + 5 * a + 6) * up
    if d == 2:
        return 3 * (2 * lo + a + 3) * (up + 1) * up
    return -(up + 2) * (up + 1) * up
