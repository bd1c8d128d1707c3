"""The exact banded third moment of the generalized Laguerre polynomials.

`moment3_band` is the one home of the integer
integral_0^inf x^(alpha+3) e^{-x} L_k^{(alpha)} L_{k'}^{(alpha)} dx: its
diagonal gives the second-order coefficient, its band |k - k'| <= 3 the
fourth-order window and the oracle's r^2 operator.
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
    a = alpha
    # (lo + a + d)!/lo! as the integer perm(lo + a + d, a + d)
    if d == 0:
        body = 10 * lo * lo + 10 * lo + 10 * a * lo + a * a + 5 * a + 6
        return (2 * lo + a + 1) * body * math.perm(lo + a, a)
    if d == 1:
        body = 5 * lo * lo + 10 * lo + 5 * a * lo + a * a + 5 * a + 6
        return -3 * body * math.perm(lo + a + 1, a + 1)
    if d == 2:
        return 3 * (2 * lo + a + 3) * math.perm(lo + a + 2, a + 2)
    return -math.perm(lo + a + 3, a + 3)
