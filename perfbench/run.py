"""zeeman2d benchmark: four workloads timed end to end and, traced, per layer.

    python3 perfbench/run.py --workload exact_sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

One process (this one) runs one child at a time, a fresh interpreter per
repetition, and starts repetitions until ``--seconds`` have passed; the
run's figures are medians over its repetitions.  Times are reported at a
reference CPU speed: before and after each repetition this process times a
fixed pure-Python loop, and each repetition's times are scaled by
CAL_REFERENCE_S over the loop's mean time around it.  On a shared machine
whose speed swings in phases of seconds, this keeps the figures comparable
between runs; the raw medians are printed beside them.  With ``--trace 0`` every
repetition is untraced and the end-to-end metrics are reported.  With
``--trace 1`` untraced and traced repetitions alternate; the traced ones
give the per-layer metrics and the difference of the two medians is the
tracing overhead.  The metric names and units are read from BENCHMARK.json.

The lines before the last describe the run: the environment, every
end-to-end metric with its unit, the per-operation latency where a run has
at least 200 operations, and the failure fraction.  The last line is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The run is correct when no operation fails its check and every
repetition, traced or not, produced the same checked outputs.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.metadata
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

CHILD_TIMEOUT_S = 150
CAL_LOOPS = 200_000
CAL_REFERENCE_S = 0.015  # the calibration loop's time at the reference speed
MIN_OPS_FOR_PERCENTILES = 200
ENV_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "ZEEMAN2D_MAX_WORKERS")


class BenchError(RuntimeError):
    """A child failed to run at all (as opposed to an output failing its check)."""


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


@dataclass
class Rep:
    """One repetition: one fresh interpreter running one workload once."""

    traced: bool
    setup_s: float
    wall_s: float
    cpu_s: float
    rss_mb: float
    latencies: list[float]
    ops: list
    attempted: int
    failed: int
    digest: str
    trace: dict | None
    cal_s: float = CAL_REFERENCE_S  # calibration loop time around this repetition

    @property
    def scale(self) -> float:
        """Factor that converts this repetition's times to the reference speed."""
        return CAL_REFERENCE_S / self.cal_s


@contextlib.contextmanager
def scratch_dir(tag: str):
    """A directory inside the checkout for one run's files, removed afterwards."""
    path = ROOT / ".perfbench_run" / f"{tag}-{os.getpid()}"
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            path.parent.rmdir()


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _reap_group(pgid: int) -> None:
    """Stop whatever the child left in its process group and wait until it is gone."""
    _kill_group(pgid)
    deadline = now() + 5
    while now() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def spawn(cmd: list[str], log_path: Path) -> tuple[float, float, int, float, float]:
    """Run ``cmd`` to completion: (spawn time, exit time, exit code, cpu s, max rss MiB).

    CPU time and peak RSS come from wait4, which covers the child and every
    descendant it waited for (the validate process pool included).
    """
    with open(log_path, "wb") as log:
        t_spawn = now()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT, start_new_session=True)
        timer = threading.Timer(CHILD_TIMEOUT_S, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        t_exit = now()
    proc.returncode = os.waitstatus_to_exitcode(status)
    _reap_group(proc.pid)
    return t_spawn, t_exit, proc.returncode, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024


def _log_tail(path: Path) -> str:
    return path.read_text(errors="replace")[-2000:]


def run_rep(name: str, seed: int, traced: bool, rep_dir: Path) -> Rep:
    """One repetition in a fresh child.  CPU time and peak RSS are the child's
    own figures for the timed region, except for a whole command, where they
    come from wait4 over the child and every process it started."""
    whole_command = hasattr(workloads.WORKLOADS[name], "run_in_process")
    rep_dir.mkdir(parents=True)
    log, result = rep_dir / "log.txt", rep_dir / "result.json"
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--workload", name, "--seed", str(seed), "--trace", str(int(traced)),
        "--out", str(result), "--tmp", str(rep_dir),
    ]
    t_spawn, t_exit, code, cpu, rss = spawn(cmd, log)
    if code != 0:
        raise BenchError(f"{name}: child exited with code {code}\n{_log_tail(log)}")
    rec = json.loads(result.read_text())
    return Rep(
        traced=traced,
        setup_s=rec["ready"] - t_spawn,
        wall_s=(t_exit - t_spawn) if whole_command else rec["end"] - rec["ready"],
        cpu_s=cpu if whole_command else rec["cpu_s"],
        rss_mb=rss if whole_command else rec["rss_mb"],
        latencies=rec["latencies"],
        ops=[tuple(op) for op in rec["ops"]],
        attempted=rec["attempted"],
        failed=rec["failed"],
        digest=rec["digest"],
        trace=rec["trace"],
    )


def calibrate() -> float:
    """Seconds the fixed pure-Python loop takes now: the fastest of three."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        acc = 0
        for i in range(CAL_LOOPS):
            acc += i * i % 7
        best = min(best, time.perf_counter() - start)
    return best


def measure(name: str, seed: int, seconds: float, trace: bool, tmp: Path) -> list[Rep]:
    """Repetitions until ``seconds`` have passed; with tracing, untraced and
    traced alternate and the run ends on a traced one."""
    reps: list[Rep] = []
    before = calibrate()
    start = now()
    while True:
        traced = trace and len(reps) % 2 == 1
        rep = run_rep(name, seed, traced, tmp / f"{name}-{len(reps)}")
        after = calibrate()
        rep.cal_s = (before + after) / 2
        before = after
        reps.append(rep)
        if now() - start >= seconds and (not trace or len(reps) % 2 == 0):
            return reps


# -- metrics -----------------------------------------------------------------


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(reps: list[Rep], at_reference: bool = True) -> dict[str, float]:
    """Medians of the timings (at the reference speed, or raw) and peak RSS."""

    def median(field):
        return statistics.median(getattr(r, field) * (r.scale if at_reference else 1) for r in reps)

    return {
        "setup_s": median("setup_s"),
        "wall_s": median("wall_s"),
        "cpu_s": median("cpu_s"),
        "peak_rss_mb": max(r.rss_mb for r in reps),
    }


def layer_values(trace: dict, scale: float) -> dict[str, float]:
    """Per-layer metric values of one traced repetition, keyed by metric name;
    self times at the reference speed."""

    def base(name, m):
        return name if m is None else f"{name}.m{m}"

    values: dict[str, float] = {}
    for name, m, calls, busy in trace["layers"]:
        values[f"{base(name, m)}.calls"] = calls
        values[f"{base(name, m)}.self_s"] = busy * scale
    for name, m, counter, value in trace["counters"]:
        if counter == "eigvals":
            # one tracked level is used from each solve
            values[f"{base(name, m)}.eigvals_used_ratio"] = values.get(f"{base(name, m)}.calls", 0) / value
        else:
            values[f"{base(name, m)}.{counter}"] = value
    for name, (hits, misses) in trace["caches"].items():
        if hits + misses:
            values[f"{name}.hit_ratio"] = hits / (hits + misses)
    if "cli._run_fits.calls" in values:
        values["cli._run_fits.workers"] = trace["workers"]
    values["trace.absent"] = len(trace["absent"])
    return values


def per_layer(reps: list[Rep], spec: list[dict]) -> tuple[dict[str, float], list[str]]:
    """Medians of the per-layer metrics that at least one traced repetition
    measured, and the traced functions absent from the library."""
    traced = [r for r in reps if r.traced]
    untraced = [r for r in reps if not r.traced]
    samples = [layer_values(r.trace, r.scale) for r in traced]
    measured = {name for sample in samples for name in sample}
    values = {
        m["name"]: statistics.median(s.get(m["name"], 0.0) for s in samples)
        for m in spec
        if m["name"] in measured
    }
    values["trace.overhead_s"] = end_to_end(traced)["wall_s"] - end_to_end(untraced)["wall_s"]
    absent = sorted({a for r in traced for a in r.trace["absent"]})
    return values, absent


def environment(load_start: tuple[float, ...]) -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    cpu_model = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu_model)
    except OSError:
        pass
    load_end = os.getloadavg()
    blas = None
    try:
        import numpy

        info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (ImportError, KeyError, TypeError):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "blas": blas,
        "env": {k: os.environ.get(k) for k in ENV_VARS},
        "loadavg_start": list(load_start),
        "loadavg_end": list(load_end),
    }


def describe(name: str, reps: list[Rep], spec: dict, trace: bool) -> tuple[dict, bool]:
    """Print the run's table and return (metrics, outputs agree)."""
    untraced = [r for r in reps if not r.traced]
    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    agree = len({r.digest for r in reps}) == 1
    print(f"workload {name}: {len(reps)} repetitions ({len(reps) - len(untraced)} traced)")
    e2e, raw = end_to_end(untraced), end_to_end(untraced, at_reference=False)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    cal_ms = 1e3 * statistics.median(r.cal_s for r in reps)
    print(f"  calibration loop {cal_ms:.2f} ms (reference {1e3 * CAL_REFERENCE_S:g} ms)")
    for metric, value in e2e.items():
        print(f"  {metric:<14} {value:12.6f} {units.get(metric, '')}  (raw {raw[metric]:.6f})")
    latencies = [x * r.scale for r in untraced for x in r.latencies]
    if len(latencies) >= MIN_OPS_FOR_PERCENTILES:
        for label, q in (("op_p50_ms", 0.50), ("op_p95_ms", 0.95)):
            print(f"  {label:<14} {1e3 * percentile(latencies, q):12.6f} ms  ({len(latencies)} operations)")
    print(f"  {'fail_frac':<14} {failed / attempted:12.6f} ratio  ({failed} of {attempted} operations)")
    print(f"  outputs identical across repetitions: {agree}")
    if not trace:
        return {k: {"value": e2e[k], "unit": units[k]} for k in units}, agree
    layers, absent = per_layer(reps, spec["per_layer"])
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for metric in layers:
        print(f"  {metric:<48} {layers[metric]:14.6f} {layer_units[metric]}")
    print(f"  per-layer metrics this workload does not exercise: {len(layer_units) - len(layers)}")
    print(f"  traced functions absent from the library: {', '.join(absent) or 'none'}")
    return {k: {"value": layers[k], "unit": layer_units[k]} for k in layers}, agree


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "zeeman2d" / "__init__.py").is_file():
        print(f"perfbench: no zeeman2d sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    load_start = os.getloadavg()
    results = {}
    try:
        with scratch_dir("run") as tmp:
            for name in names:
                results[name] = measure(name, args.seed, args.seconds, bool(args.trace), tmp)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    print(f"seed {args.seed}, {args.seconds:g} s per workload, trace {args.trace}")
    print("environment " + json.dumps(environment(load_start), sort_keys=True))
    metrics, correct = {}, True
    for name, reps in results.items():
        values, agree = describe(name, reps, spec, bool(args.trace))
        correct &= agree and not any(r.failed for r in reps)
        prefix = "" if len(results) == 1 else f"{name}."
        metrics.update({prefix + k: v for k, v in values.items()})
    if args.trace and len(results) == 1:
        # The result line of one workload names every per-layer metric; those
        # the workload does not exercise read 0 there (and are left out of
        # the table above and of a run of all workloads).
        for m in spec["per_layer"]:
            metrics.setdefault(m["name"], {"value": 0.0, "unit": m["unit"]})
    reps = [r for rs in results.values() for r in rs]
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r.attempted for r in reps),
        "failed": sum(r.failed for r in reps),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
