"""Structural checks on the reduced radial Coulomb Green function.

The fourth-order field coefficient can be written as a double integral of
the level-anchored reduced Green kernel against the quadratic coupling
weight.  That makes the kernel itself worth auditing: if its symmetry and
its orthogonality to the anchored bound state hold to near machine
precision, the double-integral route is trustworthy -- and it
independently reproduces the exact rational coefficients.

Every figure is checked against the tolerance the test suite holds it to;
a miss is named on stderr and the script exits 1.

Run:  python demos/green_function_checks.py
"""

import sys

from zeeman2d.greenfn import (
    GreenEvalConfig,
    green_reduced_eval,
    reduced_double_integral,
    reduced_orthogonality_defect,
)
from zeeman2d.perturb import eps4_closed

POINTS = [(0.3, 1.7), (0.9, 2.4), (1.1, 1.1)]

failures: list[str] = []


def check(ok: bool, line: str) -> None:
    """Print one result line, remembering it if its figure misses the tolerance."""
    print(line)
    if not ok:
        failures.append(line.strip())


print("1. Reduced kernel (pole removed at the anchored level):")
print("   symmetric, and orthogonal to the anchored bound state.")
for n, l in [(1, 0), (2, 0), (3, 1)]:
    red = GreenEvalConfig.for_level(n, l)
    sym = max(
        abs(green_reduced_eval(red, r, rp) - green_reduced_eval(red, rp, r))
        for r, rp in POINTS
    )
    orth = max(abs(reduced_orthogonality_defect(red, rp)) for rp in (0.4, 1.1, 2.6))
    check(
        sym <= 1e-12 and orth < 1e-8,
        f"   (n={n}, l={l}):  max asymmetry {sym:.1e},  max orthogonality defect {orth:.1e}",
    )
print()

print("2. The payoff: the double integral of the reduced kernel against the")
print("   quadratic coupling weight reproduces the exact quartic coefficient.")
print()
print("   state      -(1/64) * double integral      exact eps4        rel err")
for n, l in [(1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2)]:
    red = GreenEvalConfig.for_level(n, l)
    val = -reduced_double_integral(red) / 64
    exact = eps4_closed(n, l)
    rel = abs(val / float(exact) - 1)
    check(rel <= 1e-11, f"   (n={n}, l={l})   {val:+.12e}      {str(exact):>16}      {rel:.1e}")
print()
if failures:
    for line in failures:
        print(f"FAILED: {line}", file=sys.stderr)
    sys.exit(1)
print("Every route through the Green function agrees with the exact rational")
print("perturbation theory at floating precision.")
