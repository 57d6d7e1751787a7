"""Run workloads over several seeds and summarize each metric's spread.

    python3 bench/sweep.py --seeds 1-10 [--workload qpe-ideal] [--trace 0] [--out FILE]

Runs ``bench/run.py`` once per (workload, seed), one run at a time, with
the workloads and ``run_seconds`` of ``BENCHMARK.json`` unless given.
For every metric it prints the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread, (Q3 - Q1) / median.
``--out`` also writes the summary as JSON, with the machine and version
provenance of the last run.  Exits 1 if any run fails or reports
``correct: false``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 600


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    spread = (q3 - q1) / median if median else 0.0
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--workload", action="append", help="repeatable; default: all")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]

    summary, ok, provenance = {}, True, {}
    for name in workloads:
        values: dict[str, list[float]] = {}
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", name]
            cmd += ["--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(
                cmd, capture_output=True, text=True, cwd=ROOT, timeout=RUN_TIMEOUT_S
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                ok = False
                continue
            last = json.loads(lines[-1])
            ok = ok and last["correct"]
            record = ROOT / ".bench_runs" / f"{name}-seed{seed}-trace{args.trace}.json"
            provenance = {
                k: v
                for k, v in json.loads(record.read_text())["provenance"].items()
                if k not in ("workload", "seed", "why")
            }
            for metric, entry in last["metrics"].items():
                values.setdefault(metric, []).append(entry["value"])
            row = " ".join(f"{k}={v['value']:.4g}" for k, v in last["metrics"].items())
            print(f"{name} seed {seed}: correct={last['correct']} tasks={last['attempted']} {row}")
        summary[name] = {metric: summarize(v) for metric, v in values.items()}
        for metric, s in summary[name].items():
            print(
                f"  {name:12} {metric:26} median {s['median']:.6g}"
                f"  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {s['spread']:.3f}"
            )
    if args.out:
        args.out.write_text(
            json.dumps(
                {"seeds": args.seeds, "seconds": args.seconds, "trace": args.trace,
                 "provenance": provenance, "workloads": summary},
                indent=1,
            )
            + "\n"
        )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
