"""Every level the Green route's quadratures accept, checked; and the level past them refused.

    PYTHONPATH=src python -W error::RuntimeWarning tests/green_range_sweep.py

For every l <= 84 (the quadratures need Gamma(2l+2) finite) and every
n_r = n - l - 1 <= `MAX_QUADRATURE_N_R`, at Z in {1, 3/2}, the script checks
eps4 from `reduced_double_integral` against `eps4_closed` to 1e-11 relative,
and the orthogonality defect below 1e-8 at r' = 0.4, 1.1, 2.6 and
(N^2/Z) {1/2, 1, 2}.  For every l it checks that n_r = MAX_QUADRATURE_N_R + 1
is refused by both quadratures with the range error, and that the largest
Gauss-Laguerre rule the quadratures build has 2 * MAX_QUADRATURE_N_R + 16 =
200 nodes.  It prints the worst values and the time, and exits 1 on any
miss.

The tier-1 suite checks the edges and a strided subset of this range
(`test_level_range_edge`, `test_strided_range`); this script covers all of
it, 7905 levels in about 20 s, so pytest does not collect it.
"""

from __future__ import annotations

import sys
import time
from fractions import Fraction

from zeeman2d import greenfn
from zeeman2d.greenfn import (
    MAX_L,
    MAX_QUADRATURE_N_R,
    GreenEvalConfig,
    QuadratureError,
    reduced_double_integral,
    reduced_orthogonality_defect,
)
from zeeman2d.perturb import eps4_closed

EPS4_REL_TOL = 1e-11
ORTHOGONALITY_TOL = 1e-8
CHARGES = (Fraction(1), Fraction(3, 2))
MAX_QUADRATURE_L = MAX_L - 1
LARGEST_RULE = 2 * MAX_QUADRATURE_N_R + 16


def record_rule_sizes() -> list[int]:
    """Record the node count of every rule the quadratures build from now on."""
    sizes = []
    build = greenfn._gauss_laguerre

    def recorded(alpha: int, nodes: int):
        sizes.append(nodes)
        return build(alpha, nodes)

    greenfn._gauss_laguerre = recorded
    return sizes


def accepted_misses(n: int, l: int, worst: dict) -> list[str]:
    """Check the level (n, l) at every charge; update ``worst``, return the misses."""
    misses = []
    exact = float(eps4_closed(n, l))
    for Z in CHARGES:
        cfg = GreenEvalConfig.for_level(n, l, Z=Z)
        eps4 = -reduced_double_integral(cfg) * float(Z) ** 6 / 64
        error = abs(eps4 - exact) / abs(exact)
        scale = (n - 0.5) ** 2 / float(Z)
        radii = (0.4, 1.1, 2.6, scale / 2, scale, 2 * scale)
        defect = max(abs(reduced_orthogonality_defect(cfg, rp)) for rp in radii)
        worst["eps4"] = max(worst["eps4"], (error, (n, l, str(Z))))
        worst["orthogonality"] = max(worst["orthogonality"], (defect, (n, l, str(Z))))
        if not error <= EPS4_REL_TOL:
            misses.append(f"(n, l, Z) = ({n}, {l}, {Z}): eps4 off by {error:.3g} relative")
        if not defect < ORTHOGONALITY_TOL:
            misses.append(f"(n, l, Z) = ({n}, {l}, {Z}): orthogonality defect {defect:.3g}")
    return misses


def refusal_misses(n: int, l: int) -> list[str]:
    """Both quadratures must refuse (n, l) with the range error, not compute it."""
    cfg = GreenEvalConfig.for_level(n, l)
    misses = []
    for name, call in (
        ("reduced_double_integral", lambda: reduced_double_integral(cfg)),
        ("reduced_orthogonality_defect", lambda: reduced_orthogonality_defect(cfg, 1.1)),
    ):
        try:
            call()
        except QuadratureError as error:
            misses.append(f"(n, l) = ({n}, {l}): {name} raised {error!r}, not the range error")
        except ValueError as error:
            if "MAX_QUADRATURE_N_R" not in str(error):
                misses.append(f"(n, l) = ({n}, {l}): {name} raised {error!r}")
        else:
            misses.append(f"(n, l) = ({n}, {l}): {name} accepted a level past MAX_QUADRATURE_N_R")
    return misses


def main() -> int:
    start = time.perf_counter()
    worst = {"eps4": (0.0, None), "orthogonality": (0.0, None)}
    misses = []
    sizes = record_rule_sizes()
    for l in range(MAX_QUADRATURE_L + 1):
        for n_r in range(MAX_QUADRATURE_N_R + 1):
            misses += accepted_misses(n_r + l + 1, l, worst)
        misses += refusal_misses(MAX_QUADRATURE_N_R + l + 2, l)
    elapsed = time.perf_counter() - start
    levels = (MAX_QUADRATURE_L + 1) * (MAX_QUADRATURE_N_R + 1)
    print(f"{levels} levels (l <= {MAX_QUADRATURE_L}, n_r <= {MAX_QUADRATURE_N_R}) at Z = 1, 3/2 in {elapsed:.1f} s")
    print(f"{len(sizes)} rules built, the largest with {max(sizes)} nodes")
    if max(sizes) != LARGEST_RULE:
        misses.append(f"the largest rule has {max(sizes)} nodes, not {LARGEST_RULE}")
    for name, (value, where) in worst.items():
        print(f"worst {name}: {value:.3g} at (n, l, Z) = {where}")
    for miss in misses:
        print("MISS", miss)
    return 1 if misses else 0


if __name__ == "__main__":
    sys.exit(main())
