"""Structured trace spans with cross-process propagation.

A *span* is one named, timed region of work; spans form a tree through
``parent_id`` links and every span of one logical operation shares a
``trace_id`` -- the service request, the scheduler run it enqueues, the
per-function jobs that run on process-pool workers and the analyzer /
model-checking / cache stages inside them all hang off one root, so a slow
or degraded run can be read as a single timeline.

Spans are opened by :func:`region`, the one instrumentation primitive: it
always records a timer of the same name in the ambient
:class:`~repro.perf.PerfRegistry`, and emits a span only when a tracer is
active.  The *ambient* tracer is a :class:`contextvars.ContextVar` --
``None`` by default, so an untraced region costs one ``ContextVar.get`` on
top of its timer.  A :class:`Tracer` collects span events behind a lock.
:func:`using_tracer` activates a tracer for one context (thread/task), and
can seed the *current span* with a deserialised :class:`SpanContext`, which
is how a process-pool worker re-attaches its spans to the scheduler's tree:
the scheduler ships ``{trace_id, parent_id}`` in the job payload, the
worker records into its own tracer under that parent, and the events are
merged back on completion (:meth:`Tracer.merge`).

Two export formats, both loadable by the ``repro-wcet trace`` subcommand:

* **JSONL** -- one span event per line (grep/jq-friendly);
* **Chrome trace-event JSON** -- ``{"traceEvents": [...]}`` with complete
  (``"ph": "X"``) events, loadable in Perfetto / ``chrome://tracing``.

Timestamps are epoch microseconds (``time.time``), so spans recorded in
different processes land on one comparable timeline; durations are measured
with ``time.perf_counter`` so they never go backwards.
"""

from __future__ import annotations

import contextvars
import itertools
import json
import os
import threading
import time
import uuid
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from ..perf import active_registry

#: schema tag written into JSONL exports and flight-recorder dumps
TRACE_SCHEMA = "repro-trace/1"

#: default ring-buffer capacity of bounded tracers (flight recorder)
DEFAULT_RING_EVENTS = 256

#: process-wide span-id counter; combined with the pid so ids stay unique
#: across pool workers without any cross-process coordination
_SPAN_COUNTER = itertools.count(1)


def _new_trace_id() -> str:
    return uuid.uuid4().hex[:16]


def _new_span_id() -> str:
    return f"{os.getpid():x}-{next(_SPAN_COUNTER):x}"


@dataclass(frozen=True)
class SpanContext:
    """The serialisable identity of a span: what children link against.

    Plain strings only, so a context crosses process boundaries as two dict
    entries in a pickled job payload.
    """

    trace_id: str
    span_id: str

    def to_dict(self) -> dict[str, str]:
        return {"trace_id": self.trace_id, "span_id": self.span_id}

    @classmethod
    def from_dict(cls, data: dict[str, Any] | None) -> "SpanContext | None":
        if not data:
            return None
        trace_id = data.get("trace_id")
        span_id = data.get("span_id")
        if not isinstance(trace_id, str) or not isinstance(span_id, str):
            return None
        return cls(trace_id=trace_id, span_id=span_id)


class Tracer:
    """Collects span events; bounded (ring buffer) or unbounded (export).

    ``max_events=None`` keeps every span (the ``--trace`` export mode);
    an integer keeps only the most recent ones -- the flight-recorder ring
    that is cheap enough to leave armed during chaos runs and long-running
    service requests.
    """

    def __init__(self, max_events: int | None = None):
        self.max_events = max_events
        self._events: deque[dict[str, Any]] | list[dict[str, Any]]
        if max_events is not None:
            self._events = deque(maxlen=max(1, int(max_events)))
        else:
            self._events = []
        self._lock = threading.Lock()
        #: trace id of the most recently started root span (reporting hook)
        self.last_trace_id: str | None = None

    # ------------------------------------------------------------------ #
    def record(self, event: dict[str, Any]) -> None:
        with self._lock:
            self._events.append(event)

    def merge(self, events: list[dict[str, Any]]) -> None:
        """Fold span events recorded elsewhere (a pool worker) into this tracer."""
        if not events:
            return
        with self._lock:
            self._events.extend(events)

    def events(self) -> list[dict[str, Any]]:
        """Snapshot of the recorded span events (oldest first)."""
        with self._lock:
            return list(self._events)

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    # ------------------------------------------------------------------ #
    def write_jsonl(self, path: str | Path) -> int:
        """Export one span event per line; returns the event count."""
        events = self.events()
        write_jsonl(path, events)
        return len(events)

    def write_chrome(self, path: str | Path) -> int:
        """Export the Chrome trace-event JSON; returns the event count."""
        events = self.events()
        write_chrome(path, events)
        return len(events)


#: the ambient tracer :func:`region` records into; ``None`` = tracing off
_ACTIVE_TRACER: contextvars.ContextVar[Tracer | None] = contextvars.ContextVar(
    "repro_obs_tracer", default=None
)

#: the span context new spans become children of
_CURRENT_SPAN: contextvars.ContextVar[SpanContext | None] = contextvars.ContextVar(
    "repro_obs_span", default=None
)


def active_tracer() -> Tracer | None:
    """The tracer the module-level helpers currently record into."""
    return _ACTIVE_TRACER.get()


def current_context() -> SpanContext | None:
    """The span context a new span would be a child of (``None`` untraced)."""
    return _CURRENT_SPAN.get()


class _UsingTracer:
    """Context manager activating a tracer (and optional parent context)."""

    def __init__(self, tracer: Tracer | None, context: SpanContext | None):
        self._tracer = tracer
        self._context = context
        self._tracer_token: contextvars.Token | None = None
        self._span_token: contextvars.Token | None = None

    def __enter__(self) -> Tracer | None:
        self._tracer_token = _ACTIVE_TRACER.set(self._tracer)
        if self._context is not None:
            self._span_token = _CURRENT_SPAN.set(self._context)
        return self._tracer

    def __exit__(self, *exc_info) -> None:
        if self._span_token is not None:
            _CURRENT_SPAN.reset(self._span_token)
            self._span_token = None
        if self._tracer_token is not None:
            _ACTIVE_TRACER.reset(self._tracer_token)
            self._tracer_token = None


def using_tracer(
    tracer: Tracer | None, context: SpanContext | None = None
) -> _UsingTracer:
    """Make *tracer* the ambient recording target for the body.

    Activations are per-context (thread/task), exactly like
    :func:`repro.perf.using_registry`.  *context* seeds the current span, so
    spans opened in the body become children of a span that lives in another
    process or thread -- the propagation half of the worker handshake.
    """
    return _UsingTracer(tracer, context)


class _Region:
    """One live region: a registry timer, plus a complete ("X") span event
    when a tracer was active on entry."""

    __slots__ = (
        "_tracer", "_name", "_attrs", "_registry", "_context", "_parent_id",
        "_token", "_ts_us", "_started",
    )

    def __init__(self, tracer: Tracer | None, name: str, attrs: dict[str, Any]):
        self._tracer = tracer
        self._name = name
        self._attrs = attrs
        self._registry = active_registry()
        self._context: SpanContext | None = None
        self._parent_id: str | None = None
        self._token: contextvars.Token | None = None
        self._ts_us = 0
        self._started = 0.0

    def __enter__(self) -> SpanContext | None:
        if self._tracer is not None:
            parent = _CURRENT_SPAN.get()
            if parent is not None:
                trace_id = parent.trace_id
                self._parent_id = parent.span_id
            else:
                trace_id = _new_trace_id()
                self._tracer.last_trace_id = trace_id
            self._context = SpanContext(trace_id=trace_id, span_id=_new_span_id())
            self._token = _CURRENT_SPAN.set(self._context)
            self._ts_us = int(time.time() * 1_000_000)
        self._started = time.perf_counter()
        return self._context

    def __exit__(self, exc_type, *exc_info) -> None:
        seconds = time.perf_counter() - self._started
        self._registry.record_time(self._name, seconds)
        if self._tracer is None:
            return
        if self._token is not None:
            _CURRENT_SPAN.reset(self._token)
            self._token = None
        assert self._context is not None
        event: dict[str, Any] = {
            "name": self._name,
            "trace_id": self._context.trace_id,
            "span_id": self._context.span_id,
            "parent_id": self._parent_id,
            "ts_us": self._ts_us,
            "dur_us": int(seconds * 1_000_000),
            "pid": os.getpid(),
            "tid": threading.get_ident(),
        }
        if self._attrs:
            event["attrs"] = self._attrs
        if exc_type is not None:
            event["error"] = exc_type.__name__
        self._tracer.record(event)


def region(name: str, **attrs: Any) -> _Region:
    """Time the body under *name*; also trace it when a tracer is active.

    The one instrumentation primitive: the body's wall-clock time is always
    recorded as a timer call in the ambient :class:`~repro.perf.PerfRegistry`
    (the one active on entry), so an untraced run still says where its time
    went.  Under an ambient tracer the region is also a span of the same
    name carrying *attrs*, and the ``with`` target is its
    :class:`SpanContext`; untraced, the target is ``None``.
    """
    return _Region(_ACTIVE_TRACER.get(), name, attrs)


# ---------------------------------------------------------------------- #
# export / import
# ---------------------------------------------------------------------- #
def write_jsonl(path: str | Path, events: list[dict[str, Any]]) -> None:
    """One header line plus one span event per line."""
    lines = [json.dumps({"schema": TRACE_SCHEMA})]
    lines.extend(json.dumps(event, sort_keys=True) for event in events)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def chrome_trace(events: list[dict[str, Any]]) -> dict[str, Any]:
    """The Chrome trace-event (Perfetto-loadable) view of *events*."""
    trace_events = []
    for event in events:
        args = dict(event.get("attrs") or {})
        args["trace_id"] = event.get("trace_id")
        args["span_id"] = event.get("span_id")
        args["parent_id"] = event.get("parent_id")
        if "error" in event:
            args["error"] = event["error"]
        trace_events.append(
            {
                "name": event.get("name", "?"),
                "cat": "repro",
                "ph": "X",
                "ts": event.get("ts_us", 0),
                "dur": event.get("dur_us", 0),
                "pid": event.get("pid", 0),
                "tid": event.get("tid", 0),
                "args": args,
            }
        )
    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {"schema": TRACE_SCHEMA},
    }


def write_chrome(path: str | Path, events: list[dict[str, Any]]) -> None:
    Path(path).write_text(
        json.dumps(chrome_trace(events), indent=2) + "\n", encoding="utf-8"
    )


def _event_from_chrome(entry: dict[str, Any]) -> dict[str, Any]:
    args = entry.get("args") or {}
    event = {
        "name": entry.get("name", "?"),
        "trace_id": args.get("trace_id"),
        "span_id": args.get("span_id"),
        "parent_id": args.get("parent_id"),
        "ts_us": entry.get("ts", 0),
        "dur_us": entry.get("dur", 0),
        "pid": entry.get("pid", 0),
        "tid": entry.get("tid", 0),
    }
    attrs = {
        key: value
        for key, value in args.items()
        if key not in ("trace_id", "span_id", "parent_id")
    }
    if attrs:
        event["attrs"] = attrs
    return event


def read_trace_file(path: str | Path) -> list[dict[str, Any]]:
    """Load span events from either export format (JSONL or Chrome JSON)."""
    text = Path(path).read_text(encoding="utf-8")
    # both formats open with "{": a Chrome export is one JSON document,
    # a JSONL export only parses line by line -- so try the document first
    try:
        payload = json.loads(text)
    except json.JSONDecodeError:
        payload = None
    if isinstance(payload, dict):
        if "traceEvents" in payload:
            return [
                _event_from_chrome(entry)
                for entry in payload["traceEvents"]
                if isinstance(entry, dict)
            ]
        if set(payload) == {"schema"}:
            return []  # a JSONL export holding only its header line
        raise ValueError(f"{path}: not a trace export")
    events = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        record = json.loads(line)
        if not isinstance(record, dict):
            raise ValueError(f"{path}: JSONL line is not an object")
        if set(record) == {"schema"}:
            continue  # header line
        events.append(record)
    return events


def summarize(events: list[dict[str, Any]]) -> dict[str, Any]:
    """Aggregate a span list: traces, per-name counts/durations, roots."""
    traces: dict[str, int] = {}
    by_name: dict[str, dict[str, Any]] = {}
    span_ids = {event.get("span_id") for event in events}
    roots = 0
    orphans = 0
    for event in events:
        trace_id = event.get("trace_id") or "?"
        traces[trace_id] = traces.get(trace_id, 0) + 1
        name = event.get("name", "?")
        stat = by_name.setdefault(name, {"spans": 0, "total_us": 0, "max_us": 0})
        stat["spans"] += 1
        duration = int(event.get("dur_us") or 0)
        stat["total_us"] += duration
        stat["max_us"] = max(stat["max_us"], duration)
        parent = event.get("parent_id")
        if parent is None:
            roots += 1
        elif parent not in span_ids:
            orphans += 1
    return {
        "spans": len(events),
        "traces": dict(sorted(traces.items(), key=lambda kv: -kv[1])),
        "roots": roots,
        #: spans whose parent was not exported (e.g. rotated out of a ring)
        "orphans": orphans,
        "by_name": dict(
            sorted(by_name.items(), key=lambda kv: -kv[1]["total_us"])
        ),
    }


__all__ = [
    "DEFAULT_RING_EVENTS",
    "SpanContext",
    "TRACE_SCHEMA",
    "Tracer",
    "active_tracer",
    "chrome_trace",
    "current_context",
    "read_trace_file",
    "region",
    "summarize",
    "using_tracer",
    "write_chrome",
    "write_jsonl",
]
