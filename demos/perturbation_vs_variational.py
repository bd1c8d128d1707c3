"""Perturbative assembly versus direct variational diagonalization.

The exact fourth-order energy is an asymptotic series in the reduced field
b = B/B0.  This script pits it against a non-perturbative calculation: the
full finite-field radial Hamiltonian diagonalized in a 120-function
Sturmian basis and tracked over the oracle's field grid.  The disagreement
should be the first neglected term, so halving the field must shrink it by
about 2^6 = 64.

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
variational = dict(zip(fit.fields, fit.energies))

print("Ground state (n=1, l=0), charge Z=1, on the oracle's field grid.")
print()
print("      b         perturbative (order 4)     variational          difference")
residuals: list[tuple[Fraction, float]] = []
# below b = 1/80 the difference sinks into the rounding of E ~ -2 (4.4e-16)
for b in (fit.fields[-1] / 2**k for k in range(3)):
    pert = assemble_energy(state, b=b, order=4)
    diff = float(Fraction(variational[b]) - pert.total)  # exact, so no second rounding
    residuals.append((b, diff))
    print(f"   {str(b):<6}     {float(pert.total):+.15f}     {variational[b]:+.15f}     {diff:+.3e}")
print()

print("Successive ratios of the difference as b halves (b^6 scaling gives 64):")
for (b1, d1), (b2, d2) in zip(residuals, residuals[1:]):
    if d2 != 0:
        print(f"   {str(b1):>5} -> {str(b2):>5}:   ratio = {d1 / d2:.1f}")
print()

print("Term-by-term assembly at b = 1/40 (exact rationals):")
res = assemble_energy(state, b=Fraction(1, 40), order=4)
for k in sorted(res.terms):
    print(f"   order {k}:  {res.terms[k]}")
print(f"   total:    {res.total}")
print()

print("At b = 0 the tracked variational eigenvalue is an exact eigenpair of")
print("the truncated problem, so it lands on the unperturbed level to")
print("rounding error regardless of basis size:")
for basis in (40, 120):
    energy = fit_field_series(state, basis_size=basis).energies[0]
    print(f"   basis {basis:>3}:  E = {energy:+.16f}   (exact -2)")
