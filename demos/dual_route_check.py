"""Two independent exact routes to the same perturbative coefficients.

The closed-form polynomial expressions for the quadratic and quartic
coefficients are re-derived here from first principles, entirely in exact
rational arithmetic:

* quadratic: the diagonal matrix element of r^2 in the bound state,
  evaluated through the third-moment Laguerre integral;
* quartic: the finite Sturmian window sum -- the r^2 operator couples a
  bound state only to Sturmian functions within three radial indices, so
  the second-order (in b^2) energy shift is a finite exact sum over at
  most six neighbours plus two same-index corrections.

Agreement is exact (integer-for-integer), not approximate.

Run:  python demos/dual_route_check.py
"""

import math
import time
from fractions import Fraction

from zeeman2d.coulomb import QuantumState
from zeeman2d.laguerre import _moment3_factor
from zeeman2d.perturb import eps2_closed, eps2_integral, eps4_closed, eps4_sturmian


def window_term(n_r: int, alpha: int, j: int) -> Fraction:
    """T_j = c^2 rise(lo, d) / rise(lo + alpha, d), d = |j - n_r|, lo = min(j, n_r); 0 for d > 3.

    rise(x, d) = (x+1)...(x+d) = perm(x + d, d).
    """
    d, lo = abs(j - n_r), min(j, n_r)
    if d > 3:
        return Fraction(0)
    c = _moment3_factor(lo, d, alpha)
    return Fraction(c * c * math.perm(lo + d, d), math.perm(lo + alpha + d, d))


print("Window structure feeding the quartic sum for the ground state:")
st = QuantumState(1, 0, 0)
# the squared coupling to the Sturmian n_r' is N^4 T / 64 (Z = 1), with T
# the window term of `perturb`; outside the window n_r' = n_r - 3 .. n_r + 3
# there is no term and the coupling is 0
for npr in range(0, 6):
    sq = st.effective_n**4 / 64 * window_term(st.n_r, 2 * st.l, npr)
    tag = "resonant index" if npr == st.n_r else ("coupled" if sq else "outside the window")
    print(f"  n_r' = {npr}:  |<r^2>|^2 = {str(sq):>12}   ({tag})")
print()

t0 = time.perf_counter()
checked = 0
for n in range(1, 13):
    for l in range(n):
        closed2, summed2 = eps2_closed(n, l), eps2_integral(n, l)
        closed4, summed4 = eps4_closed(n, l), eps4_sturmian(n, l)
        assert closed2 == summed2, (n, l)
        assert closed4 == summed4, (n, l)
        checked += 1
elapsed = time.perf_counter() - t0

print(f"Both routes agree exactly for all {checked} states with n <= 12")
print(f"({elapsed * 1000:.0f} ms total).  A few spot values:")
for n, l in [(1, 0), (3, 0), (7, 4), (12, 11)]:
    print(f"  ({n:>2}, {l:>2}):  eps2 = {eps2_closed(n, l)}   eps4 = {eps4_closed(n, l)}")

print()
print("Because the window route never uses the closed-form polynomial, this")
print("equality is an independent exact re-derivation of the quartic formula.")
