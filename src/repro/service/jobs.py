"""Job queue of the analysis service: dedup, sessions, worker execution.

The daemon's unit of work is one *submission*: a set of mini-C source units
plus an :class:`~repro.pipeline.analyzer.AnalyzerConfig`.  Every submission
is reduced to a content-addressed **project fingerprint** -- a SHA-256 over
the sorted transitive fingerprints of every analyzable function (the PR 3
cache keys) and the config fingerprint -- before anything is enqueued.  Two
properties follow directly:

* **Work deduplication.**  Concurrent clients submitting identical projects
  map to the *same* :class:`ServiceJob`: the first submission enqueues one
  scheduler run, every later one subscribes to it (``submissions`` counts
  them), and all of them read the identical result.  A completed job keeps
  its slot, so re-submitting an unchanged project is a pure lookup that
  never touches the scheduler.
* **Incremental invalidation.**  A client that names a ``session`` gets the
  edit-distance view: the queue remembers the per-function transitive
  fingerprints of the session's previous submission and reports the
  *invalidation frontier* -- exactly the functions whose transitive
  fingerprint changed (the edited functions plus their transitive callers).
  The scheduler then re-analyses only that frontier, because every
  untouched function's cache key is unchanged and hits the shared warm
  :class:`~repro.project.cache.ResultCache`.

Jobs execute on a dedicated worker thread (FIFO), each under its **own**
:class:`~repro.perf.PerfRegistry` activation (:func:`repro.perf.using_registry`),
so the perf counters of concurrent requests never bleed into each other;
the per-job report is served back through the job-status endpoint.
"""

from __future__ import annotations

import collections
import enum
import hashlib
import json
import threading
import time
import zlib
from dataclasses import dataclass, field
from typing import Any

from .. import obs, perf
from ..pipeline.analyzer import AnalyzerConfig
from ..project import (
    AnalysisJob,
    Project,
    ProjectError,
    ProjectReport,
    ProjectScheduler,
    ResultCache,
    SourceUnit,
    config_fingerprint,
)
from ..resilience import FaultPlan, RetryPolicy


class ServiceJobState(enum.Enum):
    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"

    @property
    def is_terminal(self) -> bool:
        return self in (ServiceJobState.DONE, ServiceJobState.FAILED)


def project_fingerprint(
    fingerprints: dict[str, str], config: AnalyzerConfig
) -> str:
    """Content address of one submission.

    Hashes the sorted ``qualified name -> transitive fingerprint`` mapping
    together with the config fingerprint -- the same two components that
    key every per-function entry of the :class:`ResultCache`, lifted to
    project granularity.  Identical projects (up to whitespace/comments,
    which the content fingerprints already ignore) under identical configs
    collide by construction; any semantic edit changes the address.
    """
    parts = [f"config:{config_fingerprint(config)}"]
    parts.extend(
        f"{qualified}:{fingerprint}"
        for qualified, fingerprint in sorted(fingerprints.items())
    )
    return hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()


@dataclass
class ServiceJob:
    """One deduplicated analysis job of the daemon."""

    job_id: str
    fingerprint: str
    #: the parsed submission; released once the job reaches a terminal state
    project: Project | None
    config: AnalyzerConfig
    #: qualified function name -> transitive fingerprint of this submission
    function_fingerprints: dict[str, str]
    session: str | None = None
    state: ServiceJobState = ServiceJobState.QUEUED
    #: POST submissions that mapped to this job (>= 2 means deduplication)
    submissions: int = 1
    #: monotonic timestamps (elapsed arithmetic only -- a stepped wall
    #: clock must never produce a negative or inflated job duration)
    created_at: float = field(default_factory=time.monotonic)
    started_at: float | None = None
    finished_at: float | None = None
    #: serialised span context of the submitting HTTP request; the worker
    #: re-attaches under it so the whole analysis shares one trace_id
    trace_context: dict[str, str] | None = None
    #: functions completed so far: qualified name -> terminal job state
    progress: dict[str, str] = field(default_factory=dict)
    #: functions whose transitive fingerprint changed vs the session's
    #: previous submission (None outside sessions / on first submission)
    frontier: list[str] | None = None
    #: session functions untouched by the edit (the expected cache hits)
    reused: list[str] | None = None
    #: the finished report as served (:func:`report_json`), zlib-compressed
    #: (about 7x smaller: the queue keeps every finished job), plus the
    #: cache counts the status shows
    report_zlib: bytes | None = None
    cache_hits: int = 0
    cache_misses: int = 0
    error: str | None = None
    #: "transient" or "permanent" (drives the HTTP status of failures)
    error_kind: str | None = None
    #: per-job perf snapshot (the job's own isolated registry) as
    #: zlib-compressed JSON, like the report
    perf_zlib: bytes | None = None
    #: set once the job reaches a terminal state
    event: threading.Event = field(default_factory=threading.Event)

    @property
    def report_text(self) -> str | None:
        if self.report_zlib is None:
            return None
        return zlib.decompress(self.report_zlib).decode("utf-8")

    @property
    def perf_report(self) -> dict[str, Any] | None:
        if self.perf_zlib is None:
            return None
        return json.loads(zlib.decompress(self.perf_zlib))

    @property
    def total_functions(self) -> int:
        return len(self.function_fingerprints)

    @property
    def elapsed_seconds(self) -> float:
        if self.started_at is None:
            return 0.0
        return (self.finished_at or time.monotonic()) - self.started_at

    def status_payload(self) -> dict[str, Any]:
        """The JSON body of ``GET /v1/jobs/<id>``."""
        payload: dict[str, Any] = {
            "job_id": self.job_id,
            "state": self.state.value,
            "fingerprint": self.fingerprint,
            "session": self.session,
            "submissions": self.submissions,
            "progress": {
                "total": self.total_functions,
                "completed": len(self.progress),
                "functions": dict(sorted(self.progress.items())),
            },
            "elapsed_seconds": self.elapsed_seconds,
        }
        if self.frontier is not None:
            payload["incremental"] = {
                "session": self.session,
                "frontier": list(self.frontier),
                "reused": list(self.reused or []),
            }
        if self.error is not None:
            payload["error"] = self.error
            payload["error_kind"] = self.error_kind
        if self.state is ServiceJobState.DONE:
            payload["result"] = f"/v1/results/{self.fingerprint}"
            payload["cache"] = {
                "hits": self.cache_hits,
                "misses": self.cache_misses,
            }
        perf_report = self.perf_report
        if perf_report is not None:
            payload["perf"] = perf_report
        return payload


class JobQueue:
    """FIFO queue of deduplicated analysis jobs behind one worker thread."""

    def __init__(
        self,
        cache: ResultCache | None = None,
        config: AnalyzerConfig | None = None,
        workers: int = 1,
        fault_plan: FaultPlan | None = None,
        retry_policy: RetryPolicy | None = None,
        job_timeout_seconds: float | None = None,
        pool_restart_budget: int = 2,
        metrics: perf.PerfRegistry | None = None,
    ):
        self._cache = cache or ResultCache.disabled()
        self._default_config = config or AnalyzerConfig()
        self._workers = max(1, int(workers))
        #: scheduler-facing fault sites only; ``service.request`` belongs
        #: to the HTTP layer and must never reach the analysis pipeline
        self._fault_plan = (
            fault_plan.for_sites(
                "cache.read", "cache.write", "pool.submit",
                "job.execute", "mc.solve", "interp.step",
            )
            if fault_plan is not None
            else FaultPlan()
        )
        self._retry_policy = retry_policy
        self._job_timeout = job_timeout_seconds
        self._pool_restart_budget = pool_restart_budget
        #: aggregate registry every finished job's counters and timers merge
        #: into (the server's, so ``/v1/metrics`` shows analysis work)
        self._metrics = metrics
        self._lock = threading.Lock()
        self._wake = threading.Condition(self._lock)
        self._pending: collections.deque[ServiceJob] = collections.deque()
        self._jobs: dict[str, ServiceJob] = {}
        self._by_fingerprint: dict[str, ServiceJob] = {}
        #: session name -> per-function transitive fingerprints of the
        #: session's most recent *completed* submission
        self._sessions: dict[str, dict[str, str]] = {}
        #: the most recent submission's units by name; the next submission
        #: reuses a unit whose source is unchanged instead of re-parsing it
        #: (safe because nothing downstream mutates an analysed unit)
        self._last_units: dict[str, SourceUnit] = {}
        self._next_id = 0
        self._thread: threading.Thread | None = None
        self._running = False
        #: counters surfaced by ``/v1/stats``
        self.submitted = 0
        self.deduplicated = 0
        self.completed = 0
        self.failed = 0

    # ------------------------------------------------------------------ #
    @property
    def cache(self) -> ResultCache:
        return self._cache

    @property
    def default_config(self) -> AnalyzerConfig:
        return self._default_config

    def fingerprint_submission(
        self, sources: dict[str, str], config: AnalyzerConfig
    ) -> tuple[str, dict[str, str], Project]:
        """Parse *sources* and content-address the submission.

        Raises :class:`ProjectError` for unparsable units -- a *permanent*
        client error (HTTP 422), since resubmitting identical bad sources
        can never succeed.  Only the units whose source differs from the
        previous submission's are parsed.
        """
        from ..callgraph.graph import CallGraph

        with self._lock:
            previous = self._last_units
        units = []
        for name, source in sources.items():
            unit = previous.get(name)
            if unit is None or unit.source != source:
                unit = SourceUnit.from_source(name, source)
            units.append(unit)
        project = Project(units)
        with self._lock:
            self._last_units = {unit.name: unit for unit in units}
        graph = CallGraph.from_project(project)
        fingerprints = graph.transitive_fingerprints()
        return project_fingerprint(fingerprints, config), fingerprints, project

    # ------------------------------------------------------------------ #
    def submit(
        self,
        sources: dict[str, str],
        config: AnalyzerConfig | None = None,
        session: str | None = None,
    ) -> tuple[ServiceJob, bool]:
        """Enqueue one submission; returns ``(job, deduplicated)``.

        An in-flight or completed job with the same project fingerprint is
        returned as-is (one scheduler run serves every identical client);
        only failed jobs are retried with a fresh job on re-submission.
        """
        config = config or self._default_config
        fingerprint, fingerprints, project = self.fingerprint_submission(
            sources, config
        )
        with self._lock:
            self.submitted += 1
            existing = self._by_fingerprint.get(fingerprint)
            if existing is not None and existing.state is not ServiceJobState.FAILED:
                existing.submissions += 1
                self.deduplicated += 1
                perf.add("service.jobs.deduplicated")
                return existing, True
            self._next_id += 1
            job = ServiceJob(
                job_id=f"job-{self._next_id}",
                fingerprint=fingerprint,
                project=project,
                config=config,
                function_fingerprints=fingerprints,
                session=session,
            )
            context = obs.current_context()
            if context is not None:
                job.trace_context = context.to_dict()
            if session is not None:
                previous = self._sessions.get(session)
                if previous is not None:
                    job.frontier = sorted(
                        qualified
                        for qualified, current in fingerprints.items()
                        if previous.get(qualified) != current
                    )
                    job.reused = sorted(
                        set(fingerprints) - set(job.frontier)
                    )
            self._jobs[job.job_id] = job
            self._by_fingerprint[fingerprint] = job
            self._pending.append(job)
            perf.add("service.jobs.submitted")
            self._wake.notify_all()
            return job, False

    def get(self, job_id: str) -> ServiceJob | None:
        with self._lock:
            return self._jobs.get(job_id)

    def result_for(self, fingerprint: str) -> ServiceJob | None:
        """The completed job stored under *fingerprint*, if any."""
        with self._lock:
            job = self._by_fingerprint.get(fingerprint)
        if job is not None and job.state is ServiceJobState.DONE:
            return job
        return None

    # ------------------------------------------------------------------ #
    def start(self) -> None:
        with self._lock:
            if self._running:
                return
            self._running = True
        self._thread = threading.Thread(
            target=self._worker_loop, name="repro-service-worker", daemon=True
        )
        self._thread.start()

    def stop(self, timeout: float = 10.0) -> None:
        with self._lock:
            self._running = False
            self._wake.notify_all()
        if self._thread is not None:
            self._thread.join(timeout)
            self._thread = None

    @property
    def depth(self) -> int:
        with self._lock:
            return len(self._pending)

    # ------------------------------------------------------------------ #
    def _worker_loop(self) -> None:
        while True:
            with self._lock:
                while self._running and not self._pending:
                    self._wake.wait(timeout=0.5)
                if not self._running:
                    return
                job = self._pending.popleft()
            self._execute(job)

    def _execute(self, job: ServiceJob) -> None:
        job.state = ServiceJobState.RUNNING
        job.started_at = time.monotonic()
        registry = perf.PerfRegistry()
        # the worker's own bounded ring, parented on the submitting HTTP
        # request's span -- request, queueing and scheduler run share one
        # trace_id, and a failing job has a timeline to dump
        tracer = obs.Tracer(max_events=obs.DEFAULT_RING_EVENTS)
        parent = obs.SpanContext.from_dict(job.trace_context)

        def on_progress(analysis_job: AnalysisJob) -> None:
            job.progress[analysis_job.qualified_name] = (
                analysis_job.state.value
            )

        try:
            with perf.using_registry(registry), \
                    obs.using_tracer(tracer, parent), \
                    obs.region("service.job", job_id=job.job_id):
                # query_cache is left at its default: service sessions
                # share the warm result cache, so the persistent query
                # store (mc verdicts + witnesses) is shared across
                # sessions exactly like function summaries are
                report = ProjectScheduler(
                    job.project,
                    config=job.config,
                    cache=self._cache,
                    workers=self._workers,
                    fault_plan=self._fault_plan,
                    retry_policy=self._retry_policy,
                    job_timeout_seconds=self._job_timeout,
                    pool_restart_budget=self._pool_restart_budget,
                    progress_callback=on_progress,
                ).run()
        except Exception as error:
            from ..resilience import classify_error

            job.error = f"{type(error).__name__}: {error}"
            job.error_kind = (
                "permanent"
                if isinstance(error, ProjectError)
                else classify_error(error)
            )
            job.project = None
            job.state = ServiceJobState.FAILED
            job.finished_at = time.monotonic()
            self._record_perf(job, registry)
            with self._lock:
                self.failed += 1
            perf.add("service.jobs.failed")
            job.event.set()
            return
        job.project = None
        job.report_zlib = zlib.compress(report_json(report).encode("utf-8"))
        job.cache_hits = report.cache_hits
        job.cache_misses = report.cache_misses
        self._record_perf(job, registry)
        job.state = ServiceJobState.DONE
        job.finished_at = time.monotonic()
        with self._lock:
            self.completed += 1
            if job.session is not None:
                self._sessions[job.session] = dict(job.function_fingerprints)
        perf.add("service.jobs.completed")
        job.event.set()

    def _record_perf(self, job: ServiceJob, registry: perf.PerfRegistry) -> None:
        snapshot = registry.report()
        job.perf_zlib = zlib.compress(json.dumps(snapshot).encode("utf-8"))
        if self._metrics is not None:
            self._metrics.merge(snapshot)

    # ------------------------------------------------------------------ #
    def stats(self) -> dict[str, Any]:
        with self._lock:
            states = collections.Counter(
                job.state.value for job in self._jobs.values()
            )
            return {
                "submitted": self.submitted,
                "deduplicated": self.deduplicated,
                "completed": self.completed,
                "failed": self.failed,
                "queued": len(self._pending),
                "states": dict(sorted(states.items())),
                "sessions": len(self._sessions),
                "scheduler_workers": self._workers,
            }


def report_json(report: ProjectReport) -> str:
    """The canonical JSON serialisation of a project report.

    Exactly what :meth:`ProjectReport.write_json` puts on disk, so a
    service-served result and a direct CLI ``--json`` export of the same
    analysis are byte-comparable.
    """
    return json.dumps(report.to_dict(), indent=2) + "\n"


__all__ = [
    "JobQueue",
    "ServiceJob",
    "ServiceJobState",
    "project_fingerprint",
    "report_json",
]
