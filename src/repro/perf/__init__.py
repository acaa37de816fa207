"""Performance instrumentation: named counters and wall-clock timers.

:mod:`repro.perf.instrument` provides the registry, its ambient
(per-context) activation and a JSON-friendly :func:`report` snapshot.
Timers are recorded by :func:`repro.obs.region`, which times a region into
the ambient registry and traces it when a tracer is active.
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
    report,
    reset,
    using_registry,
)

__all__ = [
    "HISTOGRAM_BOUNDS",
    "PerfRegistry",
    "TimerStat",
    "active_registry",
    "add",
    "report",
    "reset",
    "using_registry",
]
