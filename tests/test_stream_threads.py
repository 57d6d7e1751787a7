"""Each thread re-keys its own Philox bit generator, so sampling from
several threads at once gives the counts that serial calls give."""

import sys
import threading

import numpy as np

from qbandit.backends import IdealBackend
from qbandit.bandit import Arm, BanditParams, build_arm_circuit
from qbandit.statevector import StateVector, sample_counts

THREADS = 4


def jobs():
    rng = np.random.default_rng(17)
    backend = IdealBackend()
    out = []
    for i in range(500 * THREADS):
        if i % 2:
            amps = rng.normal(size=8) + 1j * rng.normal(size=8)
            state = StateVector(3, amps / np.linalg.norm(amps))
            out.append(lambda s=state, i=i: sample_counts(s, 3000, 1000 + i).counts)
        else:
            params = BanditParams(*rng.uniform(0, np.pi, 2))
            circ = build_arm_circuit(Arm.LEFT if i % 4 else Arm.RIGHT, params)
            out.append(lambda c=circ, i=i: backend.frequency(c, 1, 3000, 1000 + i))
    return out


def test_interleaved_threads_match_serial_calls():
    calls = jobs()
    serial = [call() for call in calls]
    results, errors = {}, []
    start = threading.Barrier(THREADS)

    def worker(offset):
        try:
            start.wait(timeout=30)
            for i in range(offset, len(calls), THREADS):
                results[i] = calls[i]()
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        threads = [threading.Thread(target=worker, args=(t,)) for t in range(THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert [results[i] for i in range(len(calls))] == serial
