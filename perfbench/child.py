"""One repetition of one workload in a fresh interpreter.

Started by run.py, never by hand.  It imports the library from the
checkout's ``src``, optionally installs the tracer, runs every operation of
the workload inside the timed region, checks the outputs afterwards and
writes one JSON record to ``--out``.  Each repetition being a new process
keeps every ``lru_cache`` in the library cold, as a command-line user meets it.

The record holds the CPU time (user plus sys, of this process and of the
children it waited for) and the peak RSS read at the start and the end of
the timed region, so the checks, the digest and interpreter teardown that
follow it are not counted.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def cpu_and_rss() -> tuple[float, float]:
    """(CPU seconds so far, peak RSS in MiB) of this process and its waited-for children."""
    own, kids = resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime
    return cpu, max(own.ru_maxrss, kids.ru_maxrss) / 1024


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--tmp", type=Path, required=True)
    args = parser.parse_args()

    workload = workloads.WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer(args.tmp)
        tracer.install(list(workload.modules))
    # Untraced, only what the workload imports before its first operation is
    # loaded here; `validate` imports the oracle (and numpy) itself, in the
    # timed region, as the command does.
    lib = workloads.load(workload.modules if args.trace else workload.preload)
    ops = workload.operations(args.seed)

    latencies, outputs = [], []
    cpu_ready, _ = cpu_and_rss()
    ready = now()
    if hasattr(workload, "run_in_process"):
        outputs.append(workload.run_in_process(lib, str(args.tmp / "report.json")))
    else:
        for op in ops:
            start = now()
            outputs.append(workload.run(lib, op))
            latencies.append(now() - start)
    end = now()
    cpu_end, rss_end = cpu_and_rss()

    layers = tracer.collect() if tracer is not None else None
    failed = sum(not workload.check(lib, op, out) for op, out in zip(ops, outputs))
    record = {
        "ready": ready,
        "end": end,
        "cpu_s": cpu_end - cpu_ready,
        "rss_mb": rss_end,
        "ops": ops,
        "latencies": latencies,
        "attempted": len(ops),
        "failed": failed,
        "digest": workloads.digest([(op, workload.canonical(out)) for op, out in zip(ops, outputs)]),
        "trace": layers,
    }
    args.out.write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
