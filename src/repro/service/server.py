"""The WCET analysis daemon: a stdlib-only HTTP/JSON front-end.

:class:`AnalysisServer` wraps a :class:`~repro.service.jobs.JobQueue` (and
through it the :class:`~repro.project.scheduler.ProjectScheduler` plus the
shared warm :class:`~repro.project.cache.ResultCache`) behind a small,
versioned JSON API served by :class:`http.server.ThreadingHTTPServer`:

``POST /v1/analyze``
    Submit ``{"units": {name: source, ...}}`` with optional ``config``
    overrides (``path_bound``, ``partitioner``, ``no_exhaustive``), an
    optional incremental ``session`` name and an optional ``wait`` (seconds
    to block for completion).  Identical concurrent submissions collapse to
    one scheduler job; the response carries the job id, the content-
    addressed project fingerprint and -- for sessions -- the invalidation
    frontier.
``GET /v1/jobs/<id>``
    Job status and per-function progress; ``?wait=S`` long-polls.
``GET /v1/results/<fingerprint>``
    The completed :class:`~repro.project.report.ProjectReport` JSON.  The
    store is content-addressed, so the fingerprint doubles as a *strong*
    ``ETag``; ``If-None-Match`` re-fetches of an unchanged result cost a
    304 and no body.
``GET /v1/healthz`` / ``GET /v1/stats``
    Liveness, queue/session/cache statistics, per-endpoint request
    counters, per-request latency aggregates and resilience diagnostics.
``GET /v1/metrics``
    Prometheus text exposition (0.0.4) of the server's aggregate perf
    registry -- counters as ``_total``, timers as ``_seconds`` histograms
    backed by the registry's bounded latency buckets -- plus labelled
    per-endpoint/per-status request counts.  The counters and timers of
    every finished job (board runs and memo hits, query-engine and cache
    counters, the ``project.job`` timer) are merged in.

Every request runs under a ``service.request`` region in a bounded ring
tracer; 5xx responses freeze that ring into a ``diagnostics/`` flight dump
(when the shared cache is persistent) and echo the request's ``trace_id``
and dump path in the error body.

Failure semantics follow the resilience layer's transient-vs-permanent
classification: transient trouble (including injected ``service.request``
faults) answers **503 + Retry-After** -- well-formed JSON, never a hung
connection -- while permanently-bad submissions (unparsable units, unknown
config fields) answer **422**/**400**.  Injected request faults fire
*before* any job is enqueued, so a chaos-tested daemon can never let a
degraded run reach the shared cache (the scheduler independently enforces
the same rule for analysis-level faults).
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import replace
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any
from urllib.parse import parse_qs, urlsplit

from .. import obs, perf
from ..pipeline.analyzer import AnalyzerConfig
from ..project import ProjectError, ResultCache
from ..resilience import (
    Deadline,
    FaultInjector,
    FaultPlan,
    InjectedFault,
    RetryPolicy,
    classify_error,
)
from .jobs import JobQueue, ServiceJob, ServiceJobState

#: API version prefix of every route
API_PREFIX = "/v1"

#: seconds clients are asked to back off after a retryable failure
RETRY_AFTER_SECONDS = 1

#: config overrides a client may send with a submission; everything else is
#: server policy (cost model, budgets, hybrid options) and fixed at startup
CLIENT_CONFIG_FIELDS = ("path_bound", "partitioner", "no_exhaustive")


class ServiceError(Exception):
    """An HTTP-mappable request failure."""

    def __init__(self, status: int, message: str, retryable: bool = False):
        super().__init__(message)
        self.status = status
        self.retryable = retryable


class AnalysisServer:
    """Long-running analysis daemon over one shared warm result cache."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        config: AnalyzerConfig | None = None,
        cache: ResultCache | None = None,
        workers: int = 1,
        fault_plan: FaultPlan | None = None,
        retry_policy: RetryPolicy | None = None,
        job_timeout_seconds: float | None = None,
        pool_restart_budget: int = 2,
        request_timeout_seconds: float = 30.0,
        verbose: bool = False,
    ):
        #: server-level aggregate registry: request counts and latencies,
        #: plus the counters of every finished job (added by the queue)
        self.registry = perf.PerfRegistry()
        self.queue = JobQueue(
            cache=cache,
            config=config,
            workers=workers,
            fault_plan=fault_plan,
            retry_policy=retry_policy,
            job_timeout_seconds=job_timeout_seconds,
            pool_restart_budget=pool_restart_budget,
            metrics=self.registry,
        )
        self._fault_plan = fault_plan or FaultPlan()
        request_plan = self._fault_plan.for_sites("service.request")
        #: injector of the HTTP-layer ``service.request`` site; its hit
        #: counter advances once per dispatched request, in arrival order
        self._injector = (
            FaultInjector(request_plan) if not request_plan.is_empty else None
        )
        self._request_timeout = request_timeout_seconds
        # monotonic: uptime must never jump when the wall clock is stepped
        self._started_at = time.monotonic()
        #: flight recorder for 5xx responses; persistent-cache servers dump
        #: into the cache's diagnostics/ directory, cacheless ones skip it
        self.flight: obs.FlightRecorder | None = None
        if self.queue.cache.root is not None:
            self.flight = obs.FlightRecorder(
                self.queue.cache.root / obs.DIAGNOSTICS_DIR
            )
        self._stats_lock = threading.Lock()
        self._requests: dict[str, int] = {}
        self._responses: dict[int, int] = {}
        self._injected_requests = 0
        handler = _make_handler(self)
        handler.verbose = verbose
        self._httpd = ThreadingHTTPServer((host, port), handler)
        self._httpd.daemon_threads = True
        self._serve_thread: threading.Thread | None = None

    # ------------------------------------------------------------------ #
    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def base_url(self) -> str:
        return f"http://{self.host}:{self.port}"

    @property
    def request_timeout_seconds(self) -> float:
        return self._request_timeout

    def start(self) -> None:
        """Start the worker thread and serve requests in the background."""
        self.queue.start()
        self._serve_thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-service-http",
            daemon=True,
        )
        self._serve_thread.start()

    def serve_forever(self) -> None:
        """Start the worker thread and serve requests on this thread (CLI)."""
        self.queue.start()
        try:
            self._httpd.serve_forever()
        finally:
            self.queue.stop()

    def stop(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._serve_thread is not None:
            self._serve_thread.join(timeout=10.0)
            self._serve_thread = None
        self.queue.stop()

    def __enter__(self) -> "AnalysisServer":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------ #
    def count_request(self, endpoint: str) -> None:
        with self._stats_lock:
            self._requests[endpoint] = self._requests.get(endpoint, 0) + 1

    def count_response(self, status: int, seconds: float) -> None:
        with self._stats_lock:
            self._responses[status] = self._responses.get(status, 0) + 1
        self.registry.add("service.requests")
        self.registry.record_time("service.request", seconds)

    def note_injected_request(self) -> None:
        with self._stats_lock:
            self._injected_requests += 1

    def check_request_fault(self, key: str) -> None:
        """Fire the ``service.request`` chaos site for one request."""
        if self._injector is not None:
            self._injector.check("service.request", key)

    # ------------------------------------------------------------------ #
    def client_config(self, overrides: dict[str, Any] | None) -> AnalyzerConfig:
        """The server's default config with the client's overrides applied."""
        config = self.queue.default_config
        if not overrides:
            return config
        unknown = set(overrides) - set(CLIENT_CONFIG_FIELDS)
        if unknown:
            raise ServiceError(
                400,
                f"unknown config field(s): {', '.join(sorted(unknown))} "
                f"(clients may set: {', '.join(CLIENT_CONFIG_FIELDS)})",
            )
        changes: dict[str, Any] = {}
        if "path_bound" in overrides:
            bound = overrides["path_bound"]
            if not isinstance(bound, int) or bound < 1:
                raise ServiceError(400, "config.path_bound must be an int >= 1")
            changes["path_bound"] = bound
        if "partitioner" in overrides:
            partitioner = overrides["partitioner"]
            if partitioner not in ("paper", "general"):
                raise ServiceError(
                    400, "config.partitioner must be 'paper' or 'general'"
                )
            changes["partitioner"] = partitioner
        if overrides.get("no_exhaustive"):
            changes["exhaustive_limit"] = None
        return replace(config, **changes) if changes else config

    # ------------------------------------------------------------------ #
    def healthz_payload(self) -> dict[str, Any]:
        return {
            "status": "ok",
            "uptime_seconds": time.monotonic() - self._started_at,
            "queue_depth": self.queue.depth,
            "cache_enabled": self.queue.cache.enabled,
        }

    def stats_payload(self) -> dict[str, Any]:
        cache = self.queue.cache
        with self._stats_lock:
            requests = dict(sorted(self._requests.items()))
            responses = {
                str(status): count
                for status, count in sorted(self._responses.items())
            }
            injected = self._injected_requests
        return {
            "server": {
                "uptime_seconds": time.monotonic() - self._started_at,
                "request_timeout_seconds": self._request_timeout,
            },
            "requests": {
                "by_endpoint": requests,
                "by_status": responses,
            },
            "jobs": self.queue.stats(),
            "cache": cache.stats(),
            "resilience": {
                "fault_plan": self._fault_plan.describe(),
                "injected_requests": injected,
                "cache_diagnostics": list(cache.diagnostics),
            },
            "perf": self.registry.report(),
        }

    def metrics_text(self) -> str:
        """The Prometheus text exposition served by ``GET /v1/metrics``.

        The aggregate registry's counters and (histogram-backed) timers plus
        the labelled per-endpoint/per-status request counts.
        """
        with self._stats_lock:
            requests = dict(self._requests)
            responses = dict(self._responses)
            injected = self._injected_requests
        extra: list[tuple[str, dict[str, str] | None, int]] = [
            ("service.requests.by_endpoint", {"endpoint": name}, count)
            for name, count in sorted(requests.items())
        ]
        extra.extend(
            ("service.responses.by_status", {"status": str(status)}, count)
            for status, count in sorted(responses.items())
        )
        extra.append(("service.requests.injected", None, injected))
        return obs.prometheus_text(
            self.registry.report(), extra_counters=extra
        )

    def record_failure(
        self,
        status: int,
        trace_id: str | None,
        tracer: obs.Tracer | None,
        detail: str,
    ) -> dict[str, Any] | None:
        """Dump the request's trace ring on a 5xx; returns the dump record."""
        if self.flight is None:
            return None
        record = self.flight.dump(
            f"http-{status}",
            tracer=tracer,
            trace_id=trace_id,
            detail=detail,
        )
        if record is not None:
            self.registry.add("obs.flight.dumps")
        return record


# ---------------------------------------------------------------------- #
# request handling
# ---------------------------------------------------------------------- #
def _make_handler(server: AnalysisServer) -> type[BaseHTTPRequestHandler]:
    """Build the request-handler class bound to *server*.

    The binding goes through a closure rather than the
    ``ThreadingHTTPServer`` instance so an :class:`AnalysisServer` can be
    embedded in tests and benchmarks without touching global state.
    """

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        #: quiet by default; the CLI flips this on with --verbose
        verbose = False

        # -------------------------------------------------------------- #
        def log_message(self, format: str, *args: Any) -> None:
            if self.verbose:
                BaseHTTPRequestHandler.log_message(self, format, *args)

        def _send_json(
            self,
            status: int,
            payload: dict[str, Any] | None = None,
            *,
            raw: str | None = None,
            headers: dict[str, str] | None = None,
        ) -> None:
            body = (
                raw if raw is not None else json.dumps(payload, indent=2) + "\n"
            ).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            for name, value in (headers or {}).items():
                self.send_header(name, value)
            self.end_headers()
            if self.command != "HEAD":
                self.wfile.write(body)

        def _send_empty(
            self, status: int, headers: dict[str, str] | None = None
        ) -> None:
            self.send_response(status)
            for name, value in (headers or {}).items():
                self.send_header(name, value)
            self.send_header("Content-Length", "0")
            self.end_headers()

        def _send_text(
            self, status: int, text: str, content_type: str
        ) -> None:
            body = text.encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            if self.command != "HEAD":
                self.wfile.write(body)

        def _send_error_json(
            self, status: int, message: str, retryable: bool = False
        ) -> None:
            headers = (
                {"Retry-After": str(RETRY_AFTER_SECONDS)} if retryable else None
            )
            body: dict[str, Any] = {"error": message, "retryable": retryable}
            trace_id = getattr(self, "_trace_id", None)
            if trace_id is not None:
                body["trace_id"] = trace_id
            if status >= 500:
                # a server-side failure freezes the request's span ring so
                # the 503/500 body names the dump that explains it
                record = server.record_failure(
                    status,
                    trace_id,
                    getattr(self, "_tracer", None),
                    message,
                )
                if record is not None:
                    body["flight_dump"] = record["path"]
            self._send_json(status, body, headers=headers)

        # -------------------------------------------------------------- #
        def _dispatch(self, method: str) -> None:
            started = time.perf_counter()
            split = urlsplit(self.path)
            path = split.path.rstrip("/") or "/"
            query = parse_qs(split.query)
            if path.startswith(API_PREFIX + "/"):
                endpoint = path[len(API_PREFIX) + 1:].split("/")[0]
            else:
                endpoint = path
            server.count_request(f"{method} {endpoint}")
            status = 500
            # every request runs under its own registry: whatever the
            # handling records can never bleed into another request's view
            request_registry = perf.PerfRegistry()
            # ... and under its own bounded span ring, so a failing request
            # has a recent timeline to dump without unbounded growth
            self._tracer = obs.Tracer(max_events=obs.DEFAULT_RING_EVENTS)
            self._trace_id = None
            try:
                # the region's timer lands in the request's own registry;
                # the server-wide service.request timer is count_response's
                with obs.using_tracer(self._tracer), \
                        perf.using_registry(request_registry), \
                        obs.region(
                            "service.request", method=method, endpoint=endpoint
                        ) as context:
                    self._trace_id = context.trace_id
                    # the chaos site fires before any state changes: an
                    # injected request fault is answered 503 and nothing
                    # (job queue, sessions, cache) has been touched
                    server.check_request_fault(f"{method} {path}")
                    status = self._route(method, path, query)
            except InjectedFault as fault:
                server.note_injected_request()
                status = 503
                self._send_error_json(
                    503, f"injected request fault: {fault}", retryable=True
                )
            except ServiceError as error:
                status = error.status
                self._send_error_json(
                    error.status, str(error), retryable=error.retryable
                )
            except ProjectError as error:
                # unparsable/inconsistent sources: permanently bad input
                status = 422
                self._send_error_json(422, str(error), retryable=False)
            except BrokenPipeError:
                status = 499  # client went away; nothing left to answer
            except Exception as error:  # noqa: BLE001 - mapped to HTTP
                kind = classify_error(error)
                if kind == "transient":
                    status = 503
                    self._send_error_json(
                        503,
                        f"transient server error: "
                        f"{type(error).__name__}: {error}",
                        retryable=True,
                    )
                else:
                    status = 500
                    self._send_error_json(
                        500,
                        f"internal error: {type(error).__name__}: {error}",
                        retryable=False,
                    )
            finally:
                server.count_response(status, time.perf_counter() - started)

        def do_GET(self) -> None:  # noqa: N802 - http.server API
            self._dispatch("GET")

        def do_POST(self) -> None:  # noqa: N802 - http.server API
            self._dispatch("POST")

        def do_HEAD(self) -> None:  # noqa: N802 - http.server API
            self._dispatch("GET")

        # -------------------------------------------------------------- #
        def _route(
            self, method: str, path: str, query: dict[str, list[str]]
        ) -> int:
            if not path.startswith(API_PREFIX + "/"):
                raise ServiceError(404, f"unknown path {path!r} (try /v1/...)")
            route = path[len(API_PREFIX) + 1:]
            if method == "POST" and route == "analyze":
                return self._handle_analyze(query)
            if method == "GET" and route.startswith("jobs/"):
                return self._handle_job(route[len("jobs/"):], query)
            if method == "GET" and route.startswith("results/"):
                return self._handle_result(route[len("results/"):])
            if method == "GET" and route == "healthz":
                self._send_json(200, server.healthz_payload())
                return 200
            if method == "GET" and route == "stats":
                self._send_json(200, server.stats_payload())
                return 200
            if method == "GET" and route == "metrics":
                self._send_text(
                    200, server.metrics_text(), obs.PROMETHEUS_CONTENT_TYPE
                )
                return 200
            raise ServiceError(404, f"no route for {method} {path}")

        # -------------------------------------------------------------- #
        def _read_body(self) -> dict[str, Any]:
            length = int(self.headers.get("Content-Length") or 0)
            if length <= 0:
                raise ServiceError(400, "request body required")
            raw = self.rfile.read(length)
            try:
                payload = json.loads(raw.decode("utf-8"))
            except (UnicodeDecodeError, ValueError) as error:
                raise ServiceError(400, f"request body is not JSON: {error}")
            if not isinstance(payload, dict):
                raise ServiceError(400, "request body must be a JSON object")
            return payload

        def _handle_analyze(self, query: dict[str, list[str]]) -> int:
            payload = self._read_body()
            units = payload.get("units")
            if not isinstance(units, dict) or not units:
                raise ServiceError(
                    400, "payload needs a non-empty 'units' object "
                    "({unit name: mini-C source})"
                )
            if not all(
                isinstance(name, str) and isinstance(source, str)
                for name, source in units.items()
            ):
                raise ServiceError(400, "'units' must map names to sources")
            session = payload.get("session")
            if session is not None and not isinstance(session, str):
                raise ServiceError(400, "'session' must be a string")
            overrides = payload.get("config")
            if overrides is not None and not isinstance(overrides, dict):
                raise ServiceError(400, "'config' must be a JSON object")
            config = server.client_config(overrides)
            job, deduplicated = server.queue.submit(
                units, config=config, session=session
            )
            wait = payload.get("wait")
            if wait:
                self._wait_for(job, float(wait))
            status = 200 if job.state.is_terminal else 202
            body = job.status_payload()
            body["deduplicated"] = deduplicated
            self._send_json(status, body)
            return status

        def _wait_for(self, job: ServiceJob, wait_seconds: float) -> None:
            """Block until *job* finishes, bounded by the request deadline."""
            deadline = Deadline(
                min(max(wait_seconds, 0.0), server.request_timeout_seconds)
            )
            while not job.event.is_set() and not deadline.expired():
                job.event.wait(timeout=0.1)

        def _handle_job(self, job_id: str, query: dict[str, list[str]]) -> int:
            job = server.queue.get(job_id)
            if job is None:
                raise ServiceError(404, f"no job {job_id!r}")
            if "wait" in query:
                try:
                    wait_seconds = float(query["wait"][0] or 0.0)
                except ValueError:
                    raise ServiceError(400, "wait must be a number of seconds")
                self._wait_for(job, wait_seconds)
            self._send_json(200, job.status_payload())
            return 200

        def _handle_result(self, fingerprint: str) -> int:
            job = server.queue.result_for(fingerprint)
            if job is None or job.report_text is None:
                raise ServiceError(
                    404,
                    f"no completed result for fingerprint {fingerprint[:16]}... "
                    "(submit first, then poll the job)",
                )
            # content-addressed store: the fingerprint IS the strong ETag
            etag = f'"{fingerprint}"'
            candidates = self.headers.get("If-None-Match")
            if candidates:
                tags = {tag.strip() for tag in candidates.split(",")}
                if etag in tags or "*" in tags:
                    perf.add("service.results.not_modified")
                    self._send_empty(304, headers={"ETag": etag})
                    return 304
            self._send_json(200, raw=job.report_text, headers={"ETag": etag})
            return 200

    return Handler


__all__ = [
    "API_PREFIX",
    "AnalysisServer",
    "CLIENT_CONFIG_FIELDS",
    "RETRY_AFTER_SECONDS",
    "ServiceError",
]
