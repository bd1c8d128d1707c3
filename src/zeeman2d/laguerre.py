"""The exact banded third moment of the generalized Laguerre polynomials.

The integer M(k, k') = integral_0^inf x^(alpha+3) e^{-x} L_k^{(alpha)} L_{k'}^{(alpha)} dx
vanishes for |k - k'| > 3: its diagonal gives the second-order
coefficient, its band the fourth-order window and the oracle's r^2
operator.  For k <= k' = k + d it is `_moment3_factor`(k, d, alpha) times
perm(k + alpha, alpha) = (k+alpha)!/k!, and the integrand is symmetric in
(k, k'); the diagonal is
(2k+alpha+1)(10k^2+10k+10 alpha k+alpha^2+5 alpha+6) (k+alpha)!/k!.  The
factorial ratio is the only large part, so no route builds it per entry:
the oracle's `_exact_pieces` carries it as a running ratio and multiplies
it by `_moment3_factor`, a cubic in k that it steps by forward differences
from the factor's values at k = 0 .. 3, and the exact routes
(`perturb.eps2_integral`, `perturb.eps4_sturmian`) cancel it against the
level's own and keep `_moment3_factor` times ratios of a few consecutive
integers.  The tests hold M itself as the reference for
`_moment3_factor`.
"""

from __future__ import annotations


def _moment3_factor(lo: int, d: int, alpha: int) -> int:
    """The integer c with M(lo, lo + d) = c perm(lo + alpha, alpha), 0 <= d <= 3 (module docstring).

    perm(lo + alpha, alpha) = (lo + alpha)!/lo! is a running ratio from row
    to row, so the oracle's `_exact_pieces` multiplies these small factors
    by it; the exact routes never form it.
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
