"""Run one qbandit benchmark workload and print its metrics.

    python3 bench/run.py --workload qpe-ideal --seed 1 --seconds 25 --trace 0

Run it from anywhere inside a source checkout; the package is imported
from the checkout's ``src`` directory, never from an installed copy.
One process, one closed-loop client: each task starts when the previous
one has returned.  BLAS and OpenMP threads are capped at the CPU count.

``--trace 0`` measures the end-to-end metrics with no tracing:

* ``setup_wall_s``: median, over fresh processes, of the time from
  process start until a first timed task could begin (imports, inputs,
  one untimed warm-up task), and ``setup_s``, the same scaled to
  reference speed: multiplied by ``REF_NOMINAL_S`` over the median
  duration of the reference kernel (``reference.py``) run around the
  probes;
* ``tasks_per_s``, ``task_p50_s`` and ``task_tail_s`` over the tasks
  run in ``--seconds``; the tail is the latency with ten tasks beyond
  it (the median when fewer than 21 tasks ran), and its percentile and
  task count are printed beside it;
* the same three in units of ``ref``, the duration of the reference
  kernel measured between tasks: each latency is divided by the mean of
  the measurements just before and after it;
* ``fail_frac``, ``peak_rss_mb``, ``est_abs_err`` and ``tv_to_exact``.

``--trace 1`` runs every task twice, plain and through the tracing
backend, in alternating order; a task fails if the two outputs differ.
It reports the per-layer metrics of
``layers.LAYER_METRICS``; the ratio of the two runs' time is the
tracing overhead.

Outputs are checked outside the timed spans.  The readable table comes
first; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and the metrics listed in
``BENCHMARK.json``.  A full record of the run (provenance, every metric,
latencies, spans) is written to ``.bench_runs/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_runs"
SETUP_PROBES = 5
# Set-up time is reported in seconds at reference speed: on a machine
# where one run of the reference kernel takes this long.
REF_NOMINAL_S = 0.02
PROBE_TIMEOUT_S = 60
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# End-to-end metrics that go into the result line, as in BENCHMARK.json.
# Times there are relative to the reference kernel (see reference.py),
# which a shared machine's drift moves far less than wall time; the
# wall-clock values are printed and recorded too.
# fail_frac, est_abs_err and tv_to_exact are printed and recorded but not
# gated: fail_frac is 0 on correct code and failures already show in
# ``failed``; the accuracy means spread too much between seeds at the
# task counts a run can afford.
RESULT_METRICS = ("setup_s", "tasks_per_ref", "task_p50_ref", "task_tail_ref", "peak_rss_mb")
E2E_UNITS = {
    "setup_s": "s",
    "setup_wall_s": "s",
    "tasks_per_ref": "1/ref",
    "task_p50_ref": "ref",
    "task_tail_ref": "ref",
    "tasks_per_s": "1/s",
    "task_p50_s": "s",
    "task_tail_s": "s",
    "ref_s": "s",
    "fail_frac": "ratio",
    "peak_rss_mb": "MB",
    "est_abs_err": "abs",
    "tv_to_exact": "tv",
}


def cap_threads() -> int:
    nproc = os.cpu_count() or 1
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        if not current.isdigit() or not 1 <= int(current) <= nproc:
            os.environ[var] = str(nproc)
    return nproc


def load_package():
    """Import qbandit from ``ROOT/src`` and the benchmark modules."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import qbandit

    src = (ROOT / "src").resolve()
    if src not in Path(qbandit.__file__).resolve().parents:
        raise ImportError(f"qbandit was imported from {qbandit.__file__}, not {src}")


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(latency, percentile, samples beyond it) at the highest percentile
    that still has ten samples beyond it, but never below the median:
    with fewer than 21 samples that is the median itself."""
    ordered = sorted(latencies)
    n = len(ordered)
    i = max(n - 11, (n - 1) // 2)
    return ordered[i], 100.0 * (i + 1) / n, n - 1 - i


def provenance(args, nproc: int) -> dict:
    import numpy as np

    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": nproc,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "git_revision": git_revision(),
    }


def git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        ref_file = ROOT / ".git" / name
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def set_up(workload, seed: int):
    """Inputs, a backend and one untimed warm-up task."""
    from bench.workloads import WARMUP

    task_input = workload.inputs(seed)
    backend = workload.backend()
    workload.run(task_input(WARMUP), backend)
    return task_input, backend


def probe_setup(args) -> dict[str, float]:
    """Set-up time over fresh processes, each timed from its launch until
    it reports (on the system-wide monotonic clock) that it is ready.

    The reference kernel runs before and after every probe; ``setup_s``
    is the median wall time scaled to reference speed, ``setup_wall_s``
    the median wall time itself.
    """
    from bench.reference import reference_seconds

    def warm_reference() -> float:
        # A probe evicts the kernel's tables from the caches; time a second run.
        reference_seconds()
        return reference_seconds()

    times, refs = [], [warm_reference()]
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup"]
    cmd += ["--workload", args.workload, "--seed", str(args.seed)]
    for _ in range(SETUP_PROBES):
        start = time.monotonic()
        proc = subprocess.run(
            cmd, capture_output=True, text=True, cwd=ROOT, timeout=PROBE_TIMEOUT_S
        )
        word, _, ready = proc.stdout.strip().partition(" ")
        if proc.returncode != 0 or word != "ready":
            raise RuntimeError(f"set-up probe failed ({proc.returncode}): {proc.stderr}")
        times.append(float(ready) - start)
        refs.append(warm_reference())
    wall = statistics.median(times)
    return {"setup_s": wall * REF_NOMINAL_S / statistics.median(refs), "setup_wall_s": wall}


def run_one(workload, inp, backend, tracer=None):
    """(output or None, latency, error text)."""
    start = time.perf_counter()
    try:
        out = workload.run(inp, backend, tracer)
    except Exception:
        return None, time.perf_counter() - start, traceback.format_exc()
    return out, time.perf_counter() - start, None


def timed_run(workload, task_input, backend, seconds: float) -> dict:
    from bench.reference import reference_seconds

    records, refs = [], []
    ref_s = 0.0

    def measure_reference() -> None:
        nonlocal ref_s
        started = time.perf_counter()
        refs.append(reference_seconds())
        ref_s += time.perf_counter() - started

    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        measure_reference()
        index = len(records)
        inp = task_input(index)
        records.append((index, inp, *run_one(workload, inp, backend)))
    measure_reference()
    wall = time.perf_counter() - start - ref_s

    problems, errors, accuracy = [], [], []
    for index, inp, out, _, error in records:
        found = [error] if out is None else workload.check(inp, out)
        if found:
            errors.append(index)
            problems.extend(f"task {index}: {p}" for p in found)
        else:
            accuracy.append(workload.accuracy(inp, out))
    latencies = [r[3] for r in records]
    # Each latency in units of the reference kernel timed around it.
    relative = [lat / ((refs[i] + refs[i + 1]) / 2) for i, lat in enumerate(latencies)]
    tail_s, tail_pct, beyond = tail(latencies)
    metrics = {
        "tasks_per_ref": len(records) / sum(relative),
        "task_p50_ref": statistics.median(relative),
        "task_tail_ref": tail(relative)[0],
        "tasks_per_s": len(records) / wall,
        "task_p50_s": statistics.median(latencies),
        "task_tail_s": tail_s,
        "ref_s": statistics.median(refs),
        "fail_frac": len(errors) / len(records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "est_abs_err": statistics.fmean(a for a, _ in accuracy) if accuracy else 0.0,
        "tv_to_exact": statistics.fmean(t for _, t in accuracy) if accuracy else 0.0,
    }
    return {
        "metrics": metrics,
        "attempted": len(records),
        "failed": len(errors),
        "problems": problems,
        "latencies": latencies,
        "references": refs,
        "tail": {"percentile": tail_pct, "tasks": len(records), "beyond": beyond},
    }


def traced_run(workload, task_input, backend, seconds: float) -> dict:
    from bench.layers import layer_metrics
    from bench.tracing import Tracer, TracingBackend

    tracer = Tracer()
    proxy = TracingBackend(backend, tracer)
    plain_s = traced_s = 0.0
    traced, problems = [], []
    attempted = failed = 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        index = attempted
        attempted += 1
        inp = task_input(index)
        tracer.task = index
        tracer.keep_calls = len(traced) < workload.replay_tasks
        runs = {}
        # Alternate which run goes first, so neither always finds warm caches.
        for mode in ("plain", "traced") if index % 2 == 0 else ("traced", "plain"):
            if mode == "plain":
                runs[mode] = run_one(workload, inp, backend)
            else:
                runs[mode] = run_one(workload, inp, proxy, tracer)
        (plain, plain_dt, plain_err), (out, traced_dt, traced_err) = runs["plain"], runs["traced"]
        found = [e for e in (plain_err, traced_err) if e]
        if not found:
            found = workload.check(inp, out)
            if plain != out:
                found.append("tracing backend changed the output")
        if found:
            failed += 1
            problems.extend(f"task {index}: {p}" for p in found)
            continue
        plain_s += plain_dt
        traced_s += traced_dt
        traced.append((inp, out))

    if not traced:
        return {"metrics": {}, "attempted": attempted, "failed": failed, "problems": problems}
    metrics, replay_problems = layer_metrics(workload, tracer, traced, traced_s / plain_s - 1.0)
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "problems": problems + replay_problems,
        "traced_tasks": len(traced),
        "counts": dict(tracer.counts),
        "spans": [[s.name, s.start, s.end, s.parent, s.task] for s in tracer.spans],
    }


def print_table(result: dict, units: dict, provenance_record: dict) -> None:
    print("provenance " + json.dumps(provenance_record, sort_keys=True))
    print(f"{'metric':<28} {'value':>16}  unit")
    for name, value in result["metrics"].items():
        note = ""
        if name in ("task_tail_s", "task_tail_ref"):
            t = result["tail"]
            note = f"  (p{t['percentile']:.1f} of {t['tasks']} tasks, {t['beyond']} beyond)"
        if name in ("setup_s", "setup_wall_s"):
            note = f"  (median of {SETUP_PROBES} fresh processes)"
        print(f"{name:<28} {value:>16.6g}  {units[name]}{note}")
    print(f"attempted {result['attempted']}, failed {result['failed']}")
    for problem in result["problems"]:
        print(f"FAILED {problem}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    nproc = cap_threads()
    try:
        load_package()
    except ImportError as exc:
        print(f"cannot import qbandit from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    from bench.layers import LAYER_METRICS
    from bench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    if args.probe_setup:
        set_up(workload, args.seed)
        print(f"ready {time.monotonic()!r}")
        return 0

    setup = None if args.trace else probe_setup(args)
    task_input, backend = set_up(workload, args.seed)
    if args.trace:
        result = traced_run(workload, task_input, backend, args.seconds)
        units, reported = LAYER_METRICS, tuple(LAYER_METRICS)
    else:
        result = timed_run(workload, task_input, backend, args.seconds)
        result["metrics"] = {**setup, **result["metrics"]}
        units, reported = E2E_UNITS, RESULT_METRICS
    record = provenance(args, nproc)
    record["why"] = workload.why
    print_table(result, units, record)

    OUT_DIR.mkdir(exist_ok=True)
    out_file = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps({"provenance": record, **result}) + "\n")

    correct = not result["problems"] and result["failed"] == 0 and bool(result["metrics"])
    line = {
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": result["metrics"].get(name, 0.0), "unit": units[name]}
            for name in reported
        },
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
