"""Structural checks on the radial Coulomb Green function.

The fourth-order field coefficient can be written as a double integral of
the level-anchored reduced Green kernel against the quadratic coupling
weight.  That makes the kernel itself worth auditing: if its symmetry,
orthogonality, residue behaviour, and projection identity all hold to
near machine precision, the double-integral route is trustworthy -- and
it independently reproduces the exact rational coefficients.

Run:  python demos/green_function_checks.py
"""

import math
from fractions import Fraction

from zeeman2d.coulomb import QuantumState, energy0
from zeeman2d.greenfn import (
    GreenEvalConfig,
    green_eval,
    green_reduced_eval,
    projection_defect,
    reduced_double_integral,
    reduced_orthogonality_defect,
)
from zeeman2d.perturb import eps4_closed

POINTS = [(0.3, 1.7), (0.9, 2.4), (1.1, 1.1)]

print("1. Resolvent symmetry  G(r, r') = G(r', r)")
cfg = GreenEvalConfig.at_energy(Fraction(-1, 3), l=0, truncation=40)
for r, rp in POINTS:
    a, b = green_eval(cfg, r, rp), green_eval(cfg, rp, r)
    print(f"   r={r:3.1f} r'={rp:3.1f}:  G={a:+.12e}   |G - G^T| = {abs(a - b):.1e}")
print()

print("2. Projection identity: integrating (Z/r')S_m(r') against G returns")
print("   S_m(r)/(mu_m - 1); the defect should vanish.")
for m in (0, 3, 10):
    d = projection_defect(cfg, m, 1.5)
    print(f"   basis index m={m:2d}:  defect = {d:+.2e}")
print()

print("3. Residue law: (E - E_1) G -> 2 E_1 S(r) S(r') as E -> E_1.")
E1 = energy0(QuantumState(1, 0, 0))
r, rp = 0.7, 1.3
# the level-1 Sturmian at Z = 1 is x^(1/2) e^(-x/2) with x = 4r, at unit weighted norm
S_r, S_rp = (x**0.5 * math.exp(-x / 2) for x in (4 * r, 4 * rp))
target = 2 * float(E1)
for eps_denom in (10**3, 10**4, 10**5, 10**6):
    E = E1 * (1 + Fraction(1, eps_denom))
    near = GreenEvalConfig.at_energy(E, l=0, truncation=40)
    factor = (float(E) - float(E1)) * green_eval(near, r, rp) / (S_r * S_rp)
    print(
        f"   E offset 1/{eps_denom:>7}:  prefactor = {factor:+.9f}"
        f"   (limit {target:+.9f}, rel err {abs(factor / target - 1):.1e})"
    )
print()

print("4. Reduced kernel (pole removed at the anchored level):")
print("   symmetric, and orthogonal to the anchored bound state.")
for n, l in [(1, 0), (2, 0), (3, 1)]:
    red = GreenEvalConfig.for_level(n, l)
    sym = max(
        abs(green_reduced_eval(red, r, rp) - green_reduced_eval(red, rp, r))
        for r, rp in POINTS
    )
    orth = max(abs(reduced_orthogonality_defect(red, rp)) for rp in (0.4, 1.1, 2.6))
    print(f"   (n={n}, l={l}):  max asymmetry {sym:.1e},  max orthogonality defect {orth:.1e}")
print()

print("5. The payoff: the double integral of the reduced kernel against the")
print("   quadratic coupling weight reproduces the exact quartic coefficient.")
print()
print("   state      -(1/64) * double integral      exact eps4        rel err")
for n, l in [(1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2)]:
    red = GreenEvalConfig.for_level(n, l)
    val = -reduced_double_integral(red) / 64
    exact = eps4_closed(n, l)
    rel = abs(val / float(exact) - 1)
    print(f"   (n={n}, l={l})   {val:+.12e}      {str(exact):>16}      {rel:.1e}")
print()
print("Every route through the Green function agrees with the exact rational")
print("perturbation theory at floating precision.")
