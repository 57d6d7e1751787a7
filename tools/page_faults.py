"""Count the page faults and CPU time of one benchmark workload's tasks.

Usage: python tools/page_faults.py --workload NAME [--tasks N] [--seed S]

Caps BLAS and OpenMP threads as `bench/run.py` does, imports qbandit from
this checkout's `src`, and sets the workload up as the benchmark does
(its inputs, its backend and one untimed warm-up task).  It then runs
tasks 0 to N - 1 and prints, per task, the minor page faults and the
system and user CPU milliseconds that `resource.getrusage(RUSAGE_SELF)`
counts over them.  Outputs are not checked and nothing is written: the
benchmark's files are only read.  Exits 2 on a usage error.
"""

from __future__ import annotations

import argparse
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str] | None = None) -> int:
    sys.path.insert(0, str(ROOT))
    from bench import run as bench

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload of bench/workloads.py")
    parser.add_argument("--tasks", type=int, default=150, help="timed tasks (default: 150)")
    parser.add_argument("--seed", type=int, default=1, help="workload seed (default: 1)")
    args = parser.parse_args(argv)
    if args.tasks < 1:
        parser.error(f"--tasks must be at least 1, got {args.tasks}")
    bench.cap_threads()  # before numpy is imported
    bench.load_package()
    from bench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    task_input, backend = bench.set_up(workload, args.seed)
    inputs = [task_input(i) for i in range(args.tasks)]
    before = resource.getrusage(resource.RUSAGE_SELF)
    for inp in inputs:
        workload.run(inp, backend)
    after = resource.getrusage(resource.RUSAGE_SELF)
    per_task = {
        "minor_faults": (after.ru_minflt - before.ru_minflt) / args.tasks,
        "system_ms": 1e3 * (after.ru_stime - before.ru_stime) / args.tasks,
        "user_ms": 1e3 * (after.ru_utime - before.ru_utime) / args.tasks,
    }
    print(f"{args.workload}: {args.tasks} tasks, per task")
    for name, value in per_task.items():
        print(f"{name:<13} {value:10.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
