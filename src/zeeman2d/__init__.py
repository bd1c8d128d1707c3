"""Exact weak-field Zeeman corrections for the planar hydrogen-like atom.

The library computes the perturbative level shifts of the two-dimensional
hydrogen-like atom in a uniform perpendicular magnetic field through fourth
order, entirely in exact rational arithmetic, along two independent routes
(closed forms and banded Sturmian sums), and cross-checks both against a
floating-point variational eigensolver.
"""

import os
import sys

from .coulomb import QuantumState, energy0, eps0
from .perturb import (
    CoefficientSet,
    EnergyResult,
    assemble_energy,
    coefficient_set,
    disputed_value_report,
    eps1,
    eps2_closed,
    eps2_integral,
    eps4_closed,
    eps4_sturmian,
)

__version__ = "0.1.0"


def _single_threaded_blas() -> None:
    """Pin the BLAS thread pools of numpy and scipy to one thread, before they load.

    `oracle` and `greenfn` call this on import, before they import numpy:
    their matrices are small, and an OpenBLAS pool only spins on the other
    cores.  OpenBLAS sizes its pool when the library loads, so this acts
    only while numpy is not yet imported, and only when neither variable is
    set: a thread count the user chose always wins.
    """
    if "numpy" in sys.modules or "OPENBLAS_NUM_THREADS" in os.environ or "OMP_NUM_THREADS" in os.environ:
        return
    os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = "1"


__all__ = [
    "QuantumState",
    "energy0",
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
