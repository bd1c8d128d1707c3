"""Exact weak-field level-shift coefficients of the planar hydrogen-like atom.

Every bound state (n, l) carries a perturbative expansion of its energy in
the dimensionless field b = B/B0,

    E = eps0 Z^2  +  eps1 b  +  eps2 b^2/Z^2  +  eps4 b^4/Z^6  +  O(b^6),

with every coefficient an exact rational number.  This script prints the
low-lying table, the factorized forms, and the closed forms at the
circular states (l = n-1).

Run:  python demos/coefficient_table.py
"""

from zeeman2d.exactmath import format_factorized, render_decimal
from zeeman2d.perturb import coefficient_set, eps2_closed, eps4_closed

print("Quadratic and quartic coefficients for n <= 4")
print("=" * 78)
print(f"{'state':>8} | {'eps2':>10} {'factorized':>16} | {'eps4':>18} {'factorized':>20}")
print("-" * 78)
for n in range(1, 5):
    for l in range(n):
        cs = coefficient_set(n, l)
        print(
            f"  ({n}, {l}) | {str(cs.eps2):>10} {format_factorized(cs.eps2):>16}"
            f" | {str(cs.eps4):>18} {format_factorized(cs.eps4):>20}"
        )

print()
print("The quartic coefficient decays the level: eps4 < 0 for every state.")
print("Decimal renderings are produced from the exact rationals, e.g.")
cs = coefficient_set(1, 0)
print(f"  eps4(1, 0) = {cs.eps4} = {render_decimal(cs.eps4, 12)}")

print()
print("Circular states (l = n - 1), from the general closed forms:")
for n in range(1, 7):
    print(f"  n = {n}: eps2 = {str(eps2_closed(n, n - 1)):>12}   eps4 = {eps4_closed(n, n - 1)}")

print()
print("Growth is steep: both coefficients scale like the sixth and higher")
print("powers of the effective principal number N = n - 1/2, which is why")
print("the perturbative window shrinks so quickly with excitation.")
