"""Suite-wide set-up.

The suite runs on one BLAS thread, by the rule importing the oracle applies
before it loads numpy: its matrices are small, and an idle OpenBLAS pool
only spins on the other cores.  A thread count set by the runner, as in
``OPENBLAS_NUM_THREADS=2 pytest``, is kept, so threaded BLAS stays testable.
Subprocess tests that check the rule itself build their own environment.
"""

from zeeman2d import _single_threaded_blas

_single_threaded_blas()
