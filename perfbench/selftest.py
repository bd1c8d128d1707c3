"""Self-test of the benchmark: tracing and the seed must not change the work.

    python3 perfbench/selftest.py
    python3 perfbench/selftest.py --workloads exact_sweep,green_kernel

For each workload it runs one untraced repetition with seed 1, one traced
repetition with seed 1 and one untraced repetition with seed 2, and checks
that

* the traced and untraced outputs are identical, Fractions compared exactly
  and floats bit for bit (both reduce to one digest of the checked outputs);
* the two seeds give the same set of operations and identical outputs;
* the order of operations differs between the seeds exactly when the
  workload is seeded;
* no operation failed its check.

Exit code 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import argparse
import sys

import run
import workloads


def check_workload(name: str, tmp) -> list[str]:
    base = run.run_rep(name, 1, False, tmp / f"{name}-base")
    traced = run.run_rep(name, 1, True, tmp / f"{name}-traced")
    reseeded = run.run_rep(name, 2, False, tmp / f"{name}-reseeded")
    problems = []
    if traced.digest != base.digest:
        problems.append("traced outputs differ from untraced outputs")
    if sorted(reseeded.ops) != sorted(base.ops):
        problems.append("seed 2 runs a different set of operations than seed 1")
    if reseeded.digest != base.digest:
        problems.append("seed 2 gives different outputs than seed 1")
    if (reseeded.ops != base.ops) != workloads.WORKLOADS[name].seeded:
        problems.append("the seed " + ("did not change" if workloads.WORKLOADS[name].seeded else "changed") + " the order")
    failed = base.failed + traced.failed + reseeded.failed
    if failed:
        problems.append(f"{failed} operations failed their check")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(workloads.WORKLOADS))
    args = parser.parse_args()
    ok = True
    with run.scratch_dir("selftest") as tmp:
        for name in args.workloads.split(","):
            problems = check_workload(name, tmp)
            ok &= not problems
            print(f"{'PASS' if not problems else 'FAIL'} {name}" + "".join(f"\n  {p}" for p in problems))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
