"""Adjudicating the ground-state quartic coefficient.

Two candidate values exist for the ground-state quartic coefficient of the
planar hydrogen atom's weak-field expansion:

    -159/65536   (this package's exact result, by two independent routes)
    -153/65536   (an earlier published value)

They differ by about 3.8 percent -- far more than a careful numeric
experiment's error bar.  This script runs that experiment: a variational
eigensolver diagonalizes the full finite-field radial Hamiltonian in a
120-function Sturmian basis over a small field grid, and a least-squares
fit extracts the b^4 coefficient with no perturbation theory involved.

Run:  python demos/disputed_value.py
"""

from zeeman2d.coulomb import QuantumState
from zeeman2d.oracle import fit_field_series
from zeeman2d.perturb import disputed_value_report, eps4_closed, eps4_sturmian
from zeeman2d.reference import GROUND_EPS4_HALF_GAP, GROUND_EPS4_LITERATURE

EXACT = eps4_closed(1, 0)
LITERATURE = GROUND_EPS4_LITERATURE

print("Exact routes:")
print(f"  closed form:   {EXACT}")
print(f"  window sum:    {eps4_sturmian(1, 0)}")
print(f"  literature:    {LITERATURE}")
print()

print("Numeric oracle (variational diagonalization + field-series fit):")
fit = fit_field_series(QuantumState(1, 0, 0))
c4 = fit.coefficients[4]
sigma = fit.coefficient_uncertainty(4)
print(f"  fitted c4      = {c4:.12g}  (noise estimate {sigma:.1e})")
print(f"  exact value    = {float(EXACT):.12g}")
print(f"  literature     = {float(LITERATURE):.12g}")
err_exact = abs(c4 - float(EXACT))
err_lit = abs(c4 - float(LITERATURE))
print(f"  |c4 - exact|      = {err_exact:.3e}")
print(f"  |c4 - literature| = {err_lit:.3e}")
print(f"  candidate gap / 2 = {float(GROUND_EPS4_HALF_GAP):.3e}")
print()

ratio = err_lit / err_exact
print(f"The estimate sits {ratio:,.0f} times closer to {EXACT} than to")
print(f"{LITERATURE}; the numeric experiment rejects the literature value.")
print()

report = disputed_value_report(oracle_estimate=c4, oracle_uncertainty=sigma)
print("Summary line:")
print(" ", report.summary_line())
