"""Exact weak-field Zeeman corrections for the planar hydrogen-like atom.

The library computes the perturbative level shifts of the two-dimensional
hydrogen-like atom in a uniform perpendicular magnetic field through fourth
order, entirely in exact rational arithmetic, along two independent routes
(closed forms and banded Sturmian sums), and cross-checks both against a
floating-point variational eigensolver.
"""

from .coulomb import QuantumState, bound_radial, energy0, sturmian, sturmian_mu
from .exactmath import RationalPolynomial
from .perturb import (
    CoefficientSet,
    EnergyResult,
    assemble_energy,
    coefficient_set,
    disputed_value_report,
    eps0,
    eps1,
    eps2_closed,
    eps2_integral,
    eps4_closed,
    eps4_sturmian,
)

__version__ = "0.1.0"

__all__ = [
    "RationalPolynomial",
    "QuantumState",
    "energy0",
    "bound_radial",
    "sturmian",
    "sturmian_mu",
    "CoefficientSet",
    "EnergyResult",
    "coefficient_set",
    "assemble_energy",
    "disputed_value_report",
    "eps0",
    "eps1",
    "eps2_closed",
    "eps2_integral",
    "eps4_closed",
    "eps4_sturmian",
    "__version__",
]
