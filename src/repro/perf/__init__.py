"""Performance instrumentation: named counters and wall-clock timers.

:mod:`repro.perf.instrument` provides the registry, its ambient
(per-context) activation and a JSON-friendly :func:`report` snapshot.
Timing the whole pipeline is the benchmark's job
(``python3 wcetbench/run.py``).
"""

from __future__ import annotations

from .instrument import (
    HISTOGRAM_BOUNDS,
    PerfRegistry,
    TimerStat,
    active_registry,
    add,
    global_registry,
    record_time,
    report,
    reset,
    timed,
    using_registry,
)

__all__ = [
    "HISTOGRAM_BOUNDS",
    "PerfRegistry",
    "TimerStat",
    "active_registry",
    "add",
    "global_registry",
    "record_time",
    "report",
    "reset",
    "timed",
    "using_registry",
]
