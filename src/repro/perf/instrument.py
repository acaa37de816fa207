"""Lightweight performance instrumentation: counters and timers.

The hot paths of the reproduction (the dataflow fixpoint solver, path
enumeration, the explicit-state engine) record how much work they do into a
:class:`PerfRegistry`.  The registry is deliberately simple -- plain dicts
behind a lock -- so that instrumenting a hot loop costs one dict update per
*call*, not per iteration: callers aggregate locally and record once.

Counters go through the module-level :func:`add`; timers are recorded by
:func:`repro.obs.region`, the one instrumentation primitive, which times
its body into the ambient registry (and traces it when a tracer is
active).  :func:`report` snapshots the ambient registry as JSON-friendly
data and :func:`reset` clears it.  Tests reset it, run a workload and
assert on the counters; the analysis service renders reports as
Prometheus text on ``/v1/metrics`` (:mod:`repro.obs.metrics`).

The *ambient* registry is a :class:`contextvars.ContextVar` whose default
is one process-wide registry: single-process batch runs (the CLI, the
benchmarks) record there, while concurrent executions that must not bleed
counters into each other -- one analysis request per client of the
long-running :mod:`repro.service` daemon -- activate their own registry
with :func:`using_registry` for the duration of the work.  ``ContextVar``
gives every thread (and every :mod:`asyncio` task, should one appear) its
own activation slot, so two requests instrumented on two worker threads
never see each other's counters.
"""

from __future__ import annotations

import bisect
import contextvars
import threading
from contextlib import contextmanager
from typing import Any, Iterator

#: schema tag written into every JSON report; /2 added min/max and the
#: bounded histogram buckets to every timer (old readers that only consume
#: calls/total/mean keep working -- the fields are additive)
REPORT_SCHEMA = "repro-perf/2"

#: upper bounds (seconds) of the fixed latency-histogram buckets; one
#: implicit +Inf bucket follows the last bound.  Log-scaled from sub-ms
#: cache lookups to multi-second scheduler runs -- fixed bounds keep every
#: timer's histogram mergeable and the Prometheus exposition label-stable.
HISTOGRAM_BOUNDS: tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0,
)


class TimerStat:
    """Accumulated wall-clock time of one named operation."""

    __slots__ = ("calls", "total_seconds", "min_seconds", "max_seconds", "buckets")

    def __init__(self) -> None:
        self.calls = 0
        self.total_seconds = 0.0
        self.min_seconds = 0.0
        self.max_seconds = 0.0
        #: per-bucket call counts; ``buckets[i]`` counts calls with
        #: ``seconds <= HISTOGRAM_BOUNDS[i]`` (last slot = +Inf overflow)
        self.buckets = [0] * (len(HISTOGRAM_BOUNDS) + 1)

    def record(self, seconds: float) -> None:
        if self.calls == 0:
            self.min_seconds = seconds
            self.max_seconds = seconds
        else:
            if seconds < self.min_seconds:
                self.min_seconds = seconds
            if seconds > self.max_seconds:
                self.max_seconds = seconds
        self.calls += 1
        self.total_seconds += seconds
        self.buckets[bisect.bisect_left(HISTOGRAM_BOUNDS, seconds)] += 1

    @property
    def mean_seconds(self) -> float:
        return self.total_seconds / self.calls if self.calls else 0.0

    def as_dict(self) -> dict[str, Any]:
        return {
            "calls": self.calls,
            "total_seconds": self.total_seconds,
            "mean_seconds": self.mean_seconds,
            "min_seconds": self.min_seconds,
            "max_seconds": self.max_seconds,
            "histogram": {
                "bounds": list(HISTOGRAM_BOUNDS),
                "counts": list(self.buckets),
            },
        }


class PerfRegistry:
    """Named monotonic counters and wall-clock timers; thread-safe."""

    def __init__(self) -> None:
        self._counters: dict[str, int] = {}
        self._timers: dict[str, TimerStat] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    def add(self, name: str, amount: int = 1) -> None:
        """Increment counter *name* by *amount*."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + amount

    def record_time(self, name: str, seconds: float) -> None:
        """Record one timed call of *seconds* under *name*."""
        with self._lock:
            stat = self._timers.get(name)
            if stat is None:
                stat = self._timers[name] = TimerStat()
            stat.record(seconds)

    def merge(self, report: dict[str, Any]) -> None:
        """Add another registry's :meth:`report` snapshot into this one.

        Counters add; each timer combines as if its calls had been recorded
        here (calls, totals and buckets add, min/max widen).  This is how a
        process-pool worker's private registry reaches the parent's.
        """
        with self._lock:
            for name, amount in report.get("counters", {}).items():
                self._counters[name] = self._counters.get(name, 0) + amount
            for name, other in report.get("timers", {}).items():
                if not other["calls"]:
                    continue
                stat = self._timers.get(name)
                if stat is None:
                    stat = self._timers[name] = TimerStat()
                if stat.calls == 0:
                    stat.min_seconds = other["min_seconds"]
                    stat.max_seconds = other["max_seconds"]
                else:
                    stat.min_seconds = min(stat.min_seconds, other["min_seconds"])
                    stat.max_seconds = max(stat.max_seconds, other["max_seconds"])
                stat.calls += other["calls"]
                stat.total_seconds += other["total_seconds"]
                for index, count in enumerate(other["histogram"]["counts"]):
                    stat.buckets[index] += count

    # ------------------------------------------------------------------ #
    # inspection and reporting
    # ------------------------------------------------------------------ #
    def counter(self, name: str) -> int:
        with self._lock:
            return self._counters.get(name, 0)

    def timer(self, name: str) -> TimerStat | None:
        with self._lock:
            return self._timers.get(name)

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._timers.clear()

    def report(self) -> dict[str, Any]:
        """Snapshot of all counters and timers as plain JSON-friendly data."""
        with self._lock:
            return {
                "schema": REPORT_SCHEMA,
                "counters": dict(sorted(self._counters.items())),
                "timers": {
                    name: stat.as_dict()
                    for name, stat in sorted(self._timers.items())
                },
            }


#: process-wide default registry used by the instrumented hot paths
_GLOBAL_REGISTRY = PerfRegistry()

#: the ambient registry the module-level helpers record into; defaults to
#: the process-wide registry, so nothing changes outside scoped activations
_ACTIVE_REGISTRY: contextvars.ContextVar[PerfRegistry] = contextvars.ContextVar(
    "repro_perf_registry", default=_GLOBAL_REGISTRY
)


def active_registry() -> PerfRegistry:
    """The registry the module-level helpers currently record into."""
    return _ACTIVE_REGISTRY.get()


@contextmanager
def using_registry(registry: PerfRegistry) -> Iterator[PerfRegistry]:
    """Make *registry* the ambient recording target for the body.

    Activations are per-context (thread/task): a registry activated on one
    worker thread is invisible to every other thread, which is what gives
    the analysis service per-request counter isolation.
    """
    token = _ACTIVE_REGISTRY.set(registry)
    try:
        yield registry
    finally:
        _ACTIVE_REGISTRY.reset(token)


def add(name: str, amount: int = 1) -> None:
    _ACTIVE_REGISTRY.get().add(name, amount)


def report() -> dict[str, Any]:
    return _ACTIVE_REGISTRY.get().report()


def reset() -> None:
    _ACTIVE_REGISTRY.get().reset()
