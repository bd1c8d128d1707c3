"""Run-to-run spread of the benchmark, and the recorded baseline.

    python3 perfbench/spread.py --runs 10
    python3 perfbench/spread.py --runs 10 --sets 2 --traced-seed 21 --out perfbench/baseline.json

Runs ``run.py`` once per seed on each workload, untraced, in one or more
sets of ``--runs`` seeds (set k uses seeds k*runs+1 .. (k+1)*runs).  For
every end-to-end metric it reports each set's median and spread, the
distance between the first and third quartiles as a share of the median.
The benchmark is steady when every spread, ``setup_s`` included, stays
within the metric's bound in BENCHMARK.json and, from the second set on,
no set's median is worse than the first set's by more than the bound.  A
spread above a third of the bound is flagged.  With ``--traced-seed`` it
also makes one traced run per workload.  ``--out`` writes every run's result
and environment block as JSON; the second set goes under ``second_set``.

Exit code 0 when steady, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    env = next((json.loads(ln.split(" ", 1)[1]) for ln in lines if ln.startswith("environment ")), None)
    return {"seed": seed, "trace": trace, "result": json.loads(lines[-1]), "environment": env}


def spread(values: list[float]) -> tuple[float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / median


def measure_set(workload: str, seeds: range, seconds: float, bounds: dict, first: dict | None):
    """Runs one set of seeds; returns (entry, steady).  ``first`` is the first
    set's summary, against which this set's medians are compared."""
    runs = [run_once(workload, seed, seconds, 0) for seed in seeds]
    entry = {"runs": runs, "summary": {}}
    steady = all(r["result"]["correct"] for r in runs)
    print(f"{workload} seeds {seeds.start}-{seeds.stop - 1}: correct {steady}")
    for metric, bound in bounds.items():
        median, share = spread([r["result"]["metrics"][metric]["value"] for r in runs])
        summary = {"median": median, "spread": share, "bound": bound}
        line = f"  {metric:<12} median {median:12.6f}  spread {share:7.4f}  bound {bound}"
        flag = "" if share <= bound / 3 else "  (above a third of the bound)"
        steady &= share <= bound
        if first is not None:
            # every end-to-end metric is better lower
            summary["shift"] = median / first[metric]["median"] - 1
            line += f"  shift {summary['shift']:+7.4f}"
            steady &= summary["shift"] <= bound
        entry["summary"][metric] = summary
        print(line + flag)
    return entry, steady


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--traced-seed", type=int, default=None)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {"run_seconds": args.seconds, "workloads": {}}
    steady = True
    for workload in args.workloads.split(","):
        entry, ok = measure_set(workload, range(1, args.runs + 1), args.seconds, bounds, None)
        steady &= ok
        if args.sets == 2:
            seeds = range(args.runs + 1, 2 * args.runs + 1)
            entry["second_set"], ok = measure_set(workload, seeds, args.seconds, bounds, entry["summary"])
            steady &= ok
        if args.traced_seed is not None:
            entry["traced"] = run_once(workload, args.traced_seed, args.seconds, 1)
        record["workloads"][workload] = entry
    if args.out is not None:
        args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print("steady" if steady else "not steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
