"""tools/page_faults.py runs warmed tasks of a benchmark workload and
prints their page faults and CPU time per task."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "page_faults.py"


def run(*args):
    return subprocess.run([sys.executable, str(TOOL), *args], capture_output=True, text=True, timeout=120)


def test_two_noisy_tasks_print_faults_and_cpu_time_per_task():
    done = run("--workload", "qpe-noisy", "--tasks", "2")
    assert done.returncode == 0, done.stderr
    head, *lines = done.stdout.splitlines()
    assert head == "qpe-noisy: 2 tasks, per task"
    fields = {name: float(value) for name, value in (line.split() for line in lines)}
    assert list(fields) == ["minor_faults", "system_ms", "user_ms"]
    assert all(value >= 0 for value in fields.values()) and fields["user_ms"] > 0


def test_an_unknown_workload_or_no_task_is_a_usage_error():
    for args in (("--workload", "no-such-workload"), ("--workload", "qpe-noisy", "--tasks", "0")):
        done = run(*args)
        assert done.returncode == 2 and "Traceback" not in done.stderr
