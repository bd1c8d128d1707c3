"""Perturbative assembly versus direct variational diagonalization.

The exact fourth-order energy is an asymptotic series in the reduced field
b = B/B0.  This script pits it against a non-perturbative calculation: the
full finite-field radial Hamiltonian diagonalized in a 120-function
Sturmian basis and certified at the oracle's contour field b_rho.  The
disagreement should be the first neglected term, c6 b^6, and the oracle
reads c6 off its contour in beta = b^2 independently of that difference.

The matrix problem carries only the field-quadratic (diamagnetic) coupling;
the field-linear term is a constant per (m_l, m_s) channel, so the
comparison uses an m_l = 0 state where that constant vanishes.

Run:  python demos/perturbation_vs_variational.py
"""

from fractions import Fraction

from zeeman2d.coulomb import QuantumState
from zeeman2d.oracle import fit_field_series
from zeeman2d.perturb import assemble_energy

state = QuantumState(1, 0, 0)
fit = fit_field_series(state)
b, variational = fit.fields[1], fit.energies[1]
pert = assemble_energy(state, b=b, order=4)
diff = float(Fraction(variational) - pert.total)  # exact, so no second rounding
sixth = fit.coefficients[6] * float(b) ** 6

print(f"Ground state (n=1, l=0), charge Z=1, at the oracle's contour field b = {b}.")
print()
print(f"   perturbative (order 4)    {float(pert.total):+.15f}")
print(f"   variational               {variational:+.15f}")
print(f"   difference                {diff:+.3e}")
print(f"   contour's c6 b^6          {sixth:+.3e}  (+- {fit.coefficient_uncertainty(6) * float(b) ** 6:.1e})")
print(f"   ratio                     {diff / sixth:.4f}")
print()

print(f"Term-by-term assembly at b = {b} (exact rationals):")
for k in sorted(pert.terms):
    print(f"   order {k}:  {pert.terms[k]}")
print(f"   total:    {pert.total}")
print()

print("At b = 0 the tracked variational eigenvalue is an exact eigenpair of")
print("the truncated problem, so it lands on the unperturbed level to")
print("rounding error regardless of basis size:")
for basis in (40, 120):
    energy = fit_field_series(state, basis_size=basis).energies[0]
    print(f"   basis {basis:>3}:  E = {energy:+.16f}   (exact -2)")
