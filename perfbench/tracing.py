"""Span tracer that instruments the library from the benchmark's side.

No library file is changed.  `Tracer.install` replaces every module-level
name through which a traced function is looked up (``oracle.cross_integral``
as well as ``laguerre.cross_integral``) with a wrapper that records one span
per call.  A span is ``(id, parent id, name, m, start, end)``; ``name`` is the
defining module and function, ``m`` the Galerkin basis size when the span is
an oracle call or runs beneath one.  Self time is a span's duration minus
the union of its children's intervals.

Pool workers of ``validate`` are forked from a traced process and so inherit
the wrappers.  Each call of ``cli._fit_state`` in a worker writes its spans,
counters and cache deltas to the spool directory, and `Tracer.collect` merges
them.  Timestamps come from CLOCK_MONOTONIC, which is system-wide, so spans
from different processes share one time axis.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time
from pathlib import Path

PACKAGE = "zeeman2d"

# Traced functions by defining module; a missing name is reported as absent.
TRACED = {
    "exactmath": ("format_factorized", "render_decimal"),
    "laguerre": ("cross_integral", "moment3_band", "moment3_diag", "laguerre_coeffs", "_coeffs"),
    "coulomb": ("bound_radial", "sturmian", "r2_element_squared"),
    "perturb": ("coefficient_set", "eps2_closed", "eps4_closed", "eps2_integral", "eps4_sturmian"),
    "oracle": ("fit_field_series", "build_matrices", "_exact_pieces", "solve_generalized"),
    "greenfn": (
        "reduced_double_integral",
        "reduced_orthogonality_defect",
        "green_reduced_eval",
        "gauss_laguerre",
    ),
    "cli": ("_run_fits", "_fit_state"),
}

# How a span finds its basis size m from its bound arguments.  Spans without
# an entry inherit m from the enclosing span.
BASIS_SIZE = {
    "oracle.fit_field_series": lambda a: a["basis_size"],
    "oracle.build_matrices": lambda a: a["cfg"].basis_size,
    "oracle._exact_pieces": lambda a: a["basis_size"],
    "oracle.solve_generalized": lambda a: a["H"].shape[0],
    "cli._fit_state": lambda a: a["task"][1],
}

CACHES = ("perturb.coefficient_set", "laguerre._coeffs", "oracle._exact_pieces", "greenfn.gauss_laguerre")

# The span whose calls run in pool workers and hand their records back.
WORKER_ENTRY = "cli._fit_state"


def now() -> float:
    """System-wide monotonic clock in seconds, comparable between processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _count_eigenvalues(tracer: "Tracer", m, result) -> None:
    values = result[0] if isinstance(result, tuple) else result
    tracer.add("oracle.solve_generalized", m, "eigvals", len(values))


def _dense_bytes(tracer: "Tracer", m, result) -> None:
    tracer.peak("oracle.build_matrices", m, "dense_bytes", sum(a.nbytes for a in result))


PEAK_COUNTERS = {"dense_bytes"}

OBSERVERS = {
    "oracle.solve_generalized": _count_eigenvalues,
    "oracle.build_matrices": _dense_bytes,
}


class Tracer:
    """Spans, counters and cache statistics of one benchmark process."""

    def __init__(self, spool: Path):
        self.spool = spool
        self.owner = os.getpid()
        self.spans: list[tuple] = []
        self.stack: list[tuple[str, int | None]] = []
        self.counters: dict[tuple[str, int | None, str], float] = {}
        self.originals: dict[str, object] = {}
        self.absent: list[str] = []
        self.cache_base: dict[str, tuple[int, int]] = {}
        self.worker_pid: int | None = None
        self._seq = 0

    # -- installation -------------------------------------------------------

    def install(self, modules: list[str]) -> None:
        """Import ``modules`` of the package and wrap every traced function."""
        loaded = {name: importlib.import_module(f"{PACKAGE}.{name}") for name in modules}
        wrappers = {}
        for mod_name, mod in loaded.items():
            for fn_name in TRACED.get(mod_name, ()):
                name = f"{mod_name}.{fn_name}"
                fn = getattr(mod, fn_name, None)
                if not callable(fn):
                    self.absent.append(name)
                    continue
                self.originals[name] = fn
                wrappers[id(fn)] = self._wrap(fn, name)
        for mod in loaded.values():
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)
        self.cache_base = self._cache_snapshot()

    def _wrap(self, fn, name: str):
        key = BASIS_SIZE.get(name)
        signature = inspect.signature(fn) if key else None
        observe = OBSERVERS.get(name)
        worker_entry = name == WORKER_ENTRY

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            m = self.stack[-1][1] if self.stack else None
            if key is not None:
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    m = key(bound.arguments)
                except (TypeError, KeyError, AttributeError, IndexError):
                    pass
            in_worker = worker_entry and os.getpid() != self.owner
            if in_worker and self.worker_pid != os.getpid():
                self._enter_worker()
            self._seq += 1
            span_id = f"{os.getpid()}.{self._seq}"
            parent = self.stack[-1][0] if self.stack else None
            self.stack.append((span_id, m))
            start = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = now()
                self.stack.pop()
                self.spans.append((span_id, parent, name, m, start, end))
            if observe is not None:
                observe(self, m, result)
            if in_worker:
                self._flush_worker()
            return result

        return traced

    # -- counters -----------------------------------------------------------

    def add(self, name: str, m, counter: str, value: float) -> None:
        k = (name, m, counter)
        self.counters[k] = self.counters.get(k, 0) + value

    def peak(self, name: str, m, counter: str, value: float) -> None:
        """Counters in PEAK_COUNTERS keep their largest value, not a sum."""
        k = (name, m, counter)
        self.counters[k] = max(self.counters.get(k, 0), value)

    def _cache_snapshot(self) -> dict[str, tuple[int, int]]:
        snap = {}
        for name in CACHES:
            info = getattr(self.originals.get(name), "cache_info", None)
            if info is not None:
                ci = info()
                snap[name] = (ci.hits, ci.misses)
        return snap

    def _cache_delta(self) -> dict[str, list[int]]:
        delta = {}
        for name, (hits, misses) in self._cache_snapshot().items():
            base_hits, base_misses = self.cache_base.get(name, (0, 0))
            delta[name] = [hits - base_hits, misses - base_misses]
        return delta

    # -- pool workers -------------------------------------------------------

    def _enter_worker(self) -> None:
        """First traced call in a forked worker: drop what the fork copied."""
        self.worker_pid = os.getpid()
        self.spans = []
        self.counters = {}
        self.cache_base = self._cache_snapshot()

    def _flush_worker(self) -> None:
        record = {
            "spans": self.spans,
            "counters": [[*k, v] for k, v in self.counters.items()],
            "caches": self._cache_delta(),
        }
        path = self.spool / f"worker-{os.getpid()}-{self._seq}.json"
        path.write_text(json.dumps(record))
        self.spans = []
        self.counters = {}
        self.cache_base = self._cache_snapshot()

    # -- results ------------------------------------------------------------

    def collect(self) -> dict:
        """Merge worker records and return per-layer calls, self times and counters."""
        spans = [tuple(s) for s in self.spans]
        counters = dict(self.counters)
        caches = self._cache_delta()
        workers = set()
        for path in sorted(self.spool.glob("worker-*.json")):
            record = json.loads(path.read_text())
            workers.add(path.name.split("-")[1])
            spans.extend(tuple(s) for s in record["spans"])
            for name, m, counter, value in record["counters"]:
                k = (name, m, counter)
                old = counters.get(k, 0)
                counters[k] = max(old, value) if counter in PEAK_COUNTERS else old + value
            for name, (hits, misses) in record["caches"].items():
                base = caches.get(name, [0, 0])
                caches[name] = [base[0] + hits, base[1] + misses]
        return {
            "layers": self_times(spans),
            "counters": [[*k, v] for k, v in counters.items()],
            "caches": caches,
            "workers": len(workers),
            "absent": self.absent,
        }


def _covered(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: list[tuple]) -> list[list]:
    """Per (name, m): [name, m, calls, self seconds] from raw spans."""
    children: dict[str, list[tuple[float, float]]] = {}
    for _, parent, _, _, start, end in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    totals: dict[tuple[str, int | None], list] = {}
    for span_id, _, name, m, start, end in spans:
        kids = [(max(s, start), min(e, end)) for s, e in children.get(span_id, ()) if e > start and s < end]
        entry = totals.setdefault((name, m), [0, 0.0])
        entry[0] += 1
        entry[1] += (end - start) - _covered(kids)
    return [[name, m, calls, busy] for (name, m), (calls, busy) in totals.items()]
