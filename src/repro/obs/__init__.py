"""repro.obs -- end-to-end observability for the analysis pipeline.

One instrumentation primitive, :func:`region`, marks every instrumented
region of work: it always records a timer under its name in the ambient
:class:`repro.perf.PerfRegistry`, and when a :class:`Tracer` is active it
also emits a span of the same name.  Around it sit three layers:

- :mod:`repro.obs.trace` -- structured spans with ``trace_id``/``span_id``/
  parent links, propagated from a service HTTP request through the job
  queue, scheduler waves and process-pool workers down to analyzer stages,
  model-checking queries and cache I/O; exportable as JSONL and Chrome
  trace-event JSON (``repro-wcet project --trace`` / ``repro-wcet trace``);
- :mod:`repro.obs.metrics` -- Prometheus text exposition of a perf report
  (histogram timers included), served by ``GET /v1/metrics``;
- :mod:`repro.obs.flight` -- the crash flight recorder: a bounded ring of
  recent spans dumped to ``diagnostics/`` when a job is quarantined, a
  fault fires or the server answers 5xx.

Tracing is off unless a :class:`Tracer` is activated; an untraced region
costs its timer plus one ``ContextVar`` read.
"""

from __future__ import annotations

from .flight import (
    DEFAULT_MAX_DUMPS,
    DIAGNOSTICS_DIR,
    FLIGHT_SCHEMA,
    FlightRecorder,
)
from .metrics import PROMETHEUS_CONTENT_TYPE, metric_name, prometheus_text
from .trace import (
    DEFAULT_RING_EVENTS,
    TRACE_SCHEMA,
    SpanContext,
    Tracer,
    active_tracer,
    chrome_trace,
    current_context,
    read_trace_file,
    region,
    summarize,
    using_tracer,
    write_chrome,
    write_jsonl,
)

__all__ = [
    "DEFAULT_MAX_DUMPS",
    "DEFAULT_RING_EVENTS",
    "DIAGNOSTICS_DIR",
    "FLIGHT_SCHEMA",
    "FlightRecorder",
    "PROMETHEUS_CONTENT_TYPE",
    "SpanContext",
    "TRACE_SCHEMA",
    "Tracer",
    "active_tracer",
    "chrome_trace",
    "current_context",
    "metric_name",
    "prometheus_text",
    "read_trace_file",
    "region",
    "summarize",
    "using_tracer",
    "write_chrome",
    "write_jsonl",
]
