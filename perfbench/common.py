"""Timing, span recording and result bookkeeping shared by the workloads."""

from __future__ import annotations

import contextlib
import json
import resource
import threading
import time
from dataclasses import dataclass, field

import numpy as np

now = time.perf_counter


@dataclass
class Outcome:
    """What one workload's timed phase did.

    ``op_ms`` holds the time of every attempted op, failed ones
    included. ``ops_per_s`` is successful ops per second of the timed
    phase unless a workload defines its own rate (``serve`` reports
    its saturating phase).
    """

    op_ms: list[float] = field(default_factory=list)
    attempted: int = 0
    elapsed_s: float = 0.0
    ops_per_s: float | None = None
    failures: dict[str, int] = field(default_factory=dict)

    def record(self, ms: float | None, ok: bool, label: str) -> None:
        """Count one attempted op; ``ms=None`` leaves it out of the
        timings."""
        if ms is not None:
            self.op_ms.append(ms)
        self.attempted += 1
        if not ok:
            self.failures[label] = self.failures.get(label, 0) + 1

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def end_to_end(self, tail_pct: float) -> dict[str, float]:
        ms = np.asarray(self.op_ms, dtype=np.float64)
        rate = self.ops_per_s
        if rate is None:
            rate = (self.attempted - self.failed) / self.elapsed_s
        return {
            "op_ms_p50": float(np.percentile(ms, 50)),
            "op_ms_tail": float(np.percentile(ms, tail_pct)),
            "ops_per_s": float(rate),
        }


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def median(values) -> float:
    return float(np.median(np.asarray(values, dtype=np.float64)))


class Spans:
    """Spans recorded around the benchmark's calls into the program.

    Each span keeps its name, start, end, parent span and op id; the
    list stays in memory until :meth:`write`. A disabled recorder hands
    out one shared no-op context, so the untraced run pays only a call.
    """

    _NULL = contextlib.nullcontext()

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.records: list[tuple[str, float, float, int, int]] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def span(self, name: str, op: int = -1):
        if not self.enabled:
            return self._NULL
        return self._span(name, op)

    @contextlib.contextmanager
    def _span(self, name: str, op: int):
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else -1
        with self._lock:
            index = len(self.records)
            self.records.append((name, now(), 0.0, parent, op))
        stack.append(index)
        try:
            yield
        finally:
            stack.pop()
            end = now()
            with self._lock:
                rec = self.records[index]
                self.records[index] = (rec[0], rec[1], end, rec[3], rec[4])

    def wrap(self, name: str, fn):
        """``fn`` with every call recorded as a span named ``name``."""
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def ms(self, name: str) -> list[float]:
        """Durations in ms of every finished span called ``name``."""
        return [(end - start) * 1e3 for n, start, end, _, _ in self.records
                if n == name and end > 0.0]

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ("name", "start", "end", "parent", "op")
        with open(path, "w") as fh:
            json.dump([dict(zip(fields, rec)) for rec in self.records], fh)
