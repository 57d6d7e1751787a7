"""In-memory spans and counts, and a transparent tracing backend proxy.

A span is (name, start, end, parent, task): ``parent`` is the index of
the span open when it started, and every span of one task shares the
task id.  Spans and counts stay in memory until the run writes them out.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any

from qbandit.backends import ExactOracleBackend, NoisyBackend


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    task: int

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class BackendCall:
    """One call that crossed the backend boundary, kept for replay."""

    task: int
    method: str
    circuit: Any
    shots: int
    seed: int
    qubits: tuple[int, ...] | None
    result: Any
    noisy: bool


class Tracer:
    """Collects spans, counts and backend calls for the tasks it traces.

    Set ``keep_calls`` to False to stop retaining backend calls (and the
    circuits they reference) once enough have been kept for replay.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self.calls: list[BackendCall] = []
        self.task = -1
        self.keep_calls = True
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        record = Span(name, time.perf_counter(), 0.0, parent, self.task)
        self.spans.append(record)
        self._open.append(index)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._open.pop()

    def busy(self, name: str) -> float:
        """Total duration of the spans called ``name``."""
        return sum(s.duration for s in self.spans if s.name == name)

    def self_time(self, name: str) -> float:
        """Duration of the ``name`` spans minus the time their children cover.

        Children of one span run one after another (single client), so
        their durations add without overlap.
        """
        own = {i for i, s in enumerate(self.spans) if s.name == name}
        covered = sum(s.duration for s in self.spans if s.parent in own)
        return sum(self.spans[i].duration for i in own) - covered


class TracingBackend:
    """Wraps an ideal or noisy backend and records each call.

    The wrapper returns exactly what the wrapped backend returns.  It
    refuses ``ExactOracleBackend``: ``run_qpe`` picks the oracle's
    apportioning path with ``isinstance``, so a wrapped oracle would
    silently be sampled instead.
    """

    def __init__(self, inner, tracer: Tracer):
        if isinstance(inner, ExactOracleBackend):
            raise TypeError("ExactOracleBackend cannot be wrapped: run_qpe dispatches on its type")
        self.inner = inner
        self.tracer = tracer
        self.name = inner.name
        self._noisy = isinstance(inner, NoisyBackend)

    def _record(self, method, circ, shots, seed, qubits, result) -> None:
        t = self.tracer
        t.counts[f"backends.{method}_calls"] += 1
        if result is None:
            return
        gates = len(circ)
        t.counts["backends.passes"] += 1
        t.counts["backends.shots"] += shots
        if self._noisy:
            t.counts["noise.trajectories"] += shots
            t.counts["noise.gate_shots"] += shots * gates
            t.counts["statevector.gate_apps"] += shots * gates
            t.counts["statevector.amp_updates"] += shots * gates * 2**circ.num_qubits
        else:
            t.counts["statevector.gate_apps"] += gates
            t.counts["statevector.amp_updates"] += gates * 2**circ.num_qubits
        if t.keep_calls:
            t.calls.append(
                BackendCall(t.task, method, circ, shots, seed, qubits, result, self._noisy)
            )

    def counts(self, circ, shots, seed, qubits=None):
        qs = None if qubits is None else tuple(qubits)
        with self.tracer.span("backends.counts"):
            result = self.inner.counts(circ, shots, seed, qs)
        self._record("counts", circ, shots, seed, qs, result)
        return result

    def exact_probabilities(self, circ, qubits=None):
        qs = None if qubits is None else tuple(qubits)
        with self.tracer.span("backends.exact"):
            result = self.inner.exact_probabilities(circ, qs)
        self._record("exact", circ, 0, 0, qs, result)
        return result

    def frequency(self, circ, qubit, shots, seed):
        with self.tracer.span("backends.frequency"):
            result = self.inner.frequency(circ, qubit, shots, seed)
        self._record("frequency", circ, shots, seed, (qubit,), result)
        return result
