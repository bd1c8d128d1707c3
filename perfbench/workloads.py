"""The four benchmark workloads: their operations, the call each makes into
the library, and the check each output must pass.

Every workload lists the library modules it uses (``modules``, all traced)
and those it imports before its first operation (``preload``), so a run
of the pure rational workload never loads numpy.  Library functions are looked
up as module attributes at call time (``lib.perturb.coefficient_set``), so the
tracer's wrappers see every call.

The seed only permutes the order of operations; the set of operations and
every checked output are the same for all seeds.  `oracle_large` keeps its
ascending order because its first solve pays the BLAS warm-up, and a fixed
order keeps that cost on the same basis size from seed to seed.
The ``validate`` workloads run one fixed command that takes no input.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import random
from decimal import Decimal
from fractions import Fraction
from types import SimpleNamespace

SWEEP_MAX_N = 80
DIGITS = 12  # decimal digits `zeeman2d coeff` renders by default
ORACLE_SIZES = (240, 480, 960)
GREEN_MAX_N = 12
GREEN_CHARGES = (1, 2, 3)
ORTHO_RADII = (0.4, 1.1, 2.6)
SYMMETRY_PAIRS = ((0.3, 1.7), (0.9, 2.4), (2.2, 0.5))

# Tolerances as the repository's validate command and test suite set them.
C2_REL_TOL = 1e-6
GREEN_EPS4_REL_TOL = 1e-8
GREEN_SYMMETRY_TOL = 1e-12
GREEN_ORTHOGONALITY_TOL = 1e-8
# Published values the ground-state oracle fit is judged against.
GROUND_EPS2 = Fraction(3, 64)
GROUND_EPS4 = Fraction(-159, 65536)
GROUND_EPS4_LITERATURE = Fraction(-153, 65536)
GROUND_EPS4_HALF_GAP = Fraction(3, 65536)


def load(modules: tuple[str, ...]) -> SimpleNamespace:
    return SimpleNamespace(**{m: importlib.import_module(f"zeeman2d.{m}") for m in modules})


def _hex(x: float) -> str:
    return float(x).hex()


def _canonical_json(obj):
    """JSON value with every float replaced by its exact hex form."""
    if isinstance(obj, float):
        return _hex(obj)
    if isinstance(obj, dict):
        return {k: _canonical_json(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_canonical_json(v) for v in obj]
    return obj


def digest(pairs: list[tuple]) -> str:
    """Order-independent hash of (operation, canonical output) pairs."""
    rows = sorted(json.dumps([list(op), out], sort_keys=True) for op, out in pairs)
    return hashlib.sha256("\n".join(rows).encode()).hexdigest()


# -- exact_sweep -------------------------------------------------------------


def _unfactor(text: str) -> Fraction:
    """Value of a rendering such as ``-3×53/2^16``."""
    sign = -1 if text.startswith("-") else 1
    value = Fraction(1)
    for i, side in enumerate(text.lstrip("-").split("/")):
        part = 1
        for factor in side.split("×"):
            base, _, exp = factor.partition("^")
            part *= int(base) ** int(exp or 1)
        value = value * part if i == 0 else value / part
    return sign * value


def _correctly_rounded(text: str, x: Fraction) -> bool:
    """``text`` is x rounded to DIGITS significant digits (within half a unit)."""
    d = Decimal(text)
    if len(d.as_tuple().digits) > DIGITS:
        return False
    if x == 0:
        return d == 0
    unit = Fraction(10) ** (d.adjusted() - DIGITS + 1)
    return abs(Fraction(d) - x) * 2 <= unit


class ExactSweep:
    """Every state n <= 80 by both exact routes, rendered as `coeff` does."""

    name = "exact_sweep"
    seeded = True
    modules = ("exactmath", "laguerre", "coulomb", "perturb")
    preload = modules

    def operations(self, seed: int) -> list[tuple]:
        ops = [(n, l) for n in range(1, SWEEP_MAX_N + 1) for l in range(n)]
        random.Random(seed).shuffle(ops)
        return ops

    def run(self, lib, op):
        n, l = op
        closed = lib.perturb.coefficient_set(n, l)
        summed = lib.perturb.coefficient_set(n, l, "sturmian_sum")
        rendered = [
            (str(v), lib.exactmath.format_factorized(v), lib.exactmath.render_decimal(v, DIGITS))
            for v in (closed.eps0, closed.eps2, closed.eps4)
        ]
        return closed, summed, rendered

    def check(self, lib, op, out) -> bool:
        closed, summed, rendered = out
        if (closed.eps0, closed.eps2, closed.eps4) != (summed.eps0, summed.eps2, summed.eps4):
            return False
        for value, (exact, factorized, decimal) in zip((closed.eps0, closed.eps2, closed.eps4), rendered):
            if Fraction(exact) != value or _unfactor(factorized) != value:
                return False
            if not _correctly_rounded(decimal, value):
                return False
        return True

    def canonical(self, out):
        closed, summed, rendered = out
        return [[str(c.eps0), str(c.eps2), str(c.eps4)] for c in (closed, summed)] + [list(r) for r in rendered]


# -- oracle_large ------------------------------------------------------------


class OracleLarge:
    """Ground-state field fits on the default grid at large basis sizes."""

    name = "oracle_large"
    seeded = False
    modules = ("exactmath", "laguerre", "coulomb", "perturb", "oracle")
    preload = modules

    def operations(self, seed: int) -> list[tuple]:
        return [(m,) for m in ORACLE_SIZES]

    def run(self, lib, op):
        return lib.oracle.fit_field_series(lib.coulomb.QuantumState(1, 0, 0), basis_size=op[0])

    def check(self, lib, op, fit) -> bool:
        c2, c4 = fit.coefficients[2], fit.coefficients[4]
        rel = abs(c2 - float(GROUND_EPS2)) / float(GROUND_EPS2)
        gap = float(GROUND_EPS4_HALF_GAP)
        return rel <= C2_REL_TOL and abs(c4 - float(GROUND_EPS4)) < gap < abs(c4 - float(GROUND_EPS4_LITERATURE))

    def canonical(self, fit):
        return {
            "coefficients": {str(p): _hex(c) for p, c in sorted(fit.coefficients.items())},
            "energies": [_hex(e) for e in fit.energies],
        }


# -- green_kernel ------------------------------------------------------------


class GreenKernel:
    """Reduced Green-kernel eps4, orthogonality and symmetry for n <= 12."""

    name = "green_kernel"
    seeded = True
    modules = ("exactmath", "laguerre", "coulomb", "perturb", "greenfn")
    preload = modules

    def operations(self, seed: int) -> list[tuple]:
        ops = [(z, n, l) for z in GREEN_CHARGES for n in range(1, GREEN_MAX_N + 1) for l in range(n)]
        random.Random(seed).shuffle(ops)
        return ops

    def run(self, lib, op):
        z, n, l = op
        g = lib.greenfn
        cfg = g.GreenEvalConfig.for_level(n, l, Z=z)
        eps4 = -g.reduced_double_integral(cfg) * z**6 / 64
        ortho = [g.reduced_orthogonality_defect(cfg, rp) for rp in ORTHO_RADII]
        r, rp = SYMMETRY_PAIRS[(z + n + l) % len(SYMMETRY_PAIRS)]
        pair = (g.green_reduced_eval(cfg, r, rp), g.green_reduced_eval(cfg, rp, r))
        return eps4, ortho, pair

    def check(self, lib, op, out) -> bool:
        _, n, l = op
        eps4, ortho, (forward, backward) = out
        exact = float(lib.perturb.eps4_closed(n, l))
        return (
            abs(eps4 - exact) <= GREEN_EPS4_REL_TOL * abs(exact)
            and max(abs(d) for d in ortho) < GREEN_ORTHOGONALITY_TOL
            and abs(forward - backward) <= GREEN_SYMMETRY_TOL
        )

    def canonical(self, out):
        eps4, ortho, pair = out
        return [_hex(eps4), [_hex(d) for d in ortho], [_hex(v) for v in pair]]


# -- validate_cli ------------------------------------------------------------

class ValidateCli:
    """`zeeman2d validate --max-n N --json <file>` as a user runs it.

    With N >= 2 the oracle fits fan out over the process pool; with N = 1
    there is a single fit state and `_run_fits` runs it in-process.  Its
    `wall_s` is the whole command, spawn to exit, as a user sees it.
    """

    seeded = False
    modules = ("exactmath", "laguerre", "coulomb", "perturb", "oracle", "cli")
    preload = ("cli",)  # the console script's import; cli loads the oracle when it fits

    def __init__(self, name: str, max_n: int, checks: int):
        self.name = name
        self.args = ("validate", "--max-n", str(max_n), "--json")
        self.checks = checks

    def operations(self, seed: int) -> list[tuple]:
        return [self.args[:3]]

    def run_in_process(self, lib, report_path: str):
        """The command through `cli.main`, with the environment unchanged."""
        code = lib.cli.main([*self.args, report_path])
        return code, read_report(report_path)

    def check(self, lib, op, out) -> bool:
        code, report = out
        return (
            code == 0
            and report is not None
            and report.get("all_passed") is True
            and len(report.get("checks", ())) == self.checks
        )

    def canonical(self, out):
        code, report = out
        return [code, _canonical_json(report)]


def read_report(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


WORKLOADS = {
    w.name: w
    for w in (
        ExactSweep(),
        OracleLarge(),
        GreenKernel(),
        ValidateCli("validate_cli", max_n=4, checks=15),
        ValidateCli("validate_n1", max_n=1, checks=6),
    )
}
