"""Job-graph scheduler driving :class:`WcetAnalyzer` over a whole project.

Every analyzable function becomes one :class:`AnalysisJob`.  In the default
interprocedural mode the scheduler builds the project call graph
(:mod:`repro.callgraph`), orders the jobs into topological *dependency
waves* -- callees before callers -- and feeds each completed callee's WCET
bound into its callers as a :class:`~repro.callgraph.summaries.CalleeSummary`:
the caller's measurement charges every summarised call site
``call_overhead + callee bound`` instead of guessing a library cost.  Calls
that cannot be summarised (recursion cycles, ambiguous names) are charged
the pessimistic unknown-call cost, and callees whose stubbing would be
unsound -- the caller uses their return value or reads globals they write
-- are inlined on the caller's board instead; both cases are reported as
call-graph diagnostics.

Result caching keys on *transitive fingerprints* (the function's content
hash closed over its resolved callees), so editing a leaf callee invalidates
exactly the leaf plus its transitive callers while unrelated functions stay
warm.

Within a wave the scheduler first probes the persistent result cache
(:mod:`repro.project.cache`); the remaining jobs are executed either
serially in-process or on a ``concurrent.futures.ProcessPoolExecutor``.  The
analysis is fully seeded (random, genetic and model-checking phases all
derive from the :class:`~repro.pipeline.analyzer.AnalyzerConfig`) and callee
bounds are fixed before a wave starts, so serial and parallel runs produce
bit-identical :class:`~repro.project.report.FunctionSummary` payloads -- the
scheduler only changes *where* a job runs, never *what* it computes.  If the
process pool cannot be created or dies (sandboxed environments, pickling
restrictions), the scheduler falls back to serial execution and records the
reason in ``ProjectReport.fallback_reason`` and the perf registry
(``project.scheduler.pool_fallback.*``) rather than failing the batch.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import dataclasses
import enum
import pickle
import time
from dataclasses import dataclass, field

from .. import obs, perf
from ..mc.store import QueryStore, using_query_store
from ..minic import AnalyzedProgram, parse_and_analyze
from ..pipeline.analyzer import (
    AnalyzerConfig,
    WcetAnalyzer,
    static_pessimised_report,
)
from ..resilience import (
    Deadline,
    FaultInjector,
    FaultKind,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    JobTimeout,
    ResilienceContext,
    RetryPolicy,
    activate,
    classify_error,
)
from .cache import ResultCache
from .model import Project, ProjectError, ProjectFunction
from .report import FunctionSummary, ProjectFailure, ProjectReport


class JobState(enum.Enum):
    PENDING = "pending"
    CACHED = "cached"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    #: the job kept crashing or timed out; the function was pessimised from
    #: static estimates so its callers still analyse against a sound bound
    QUARANTINED = "quarantined"


@dataclass
class AnalysisJob:
    """One function analysis in the project job graph."""

    job_id: int
    function: ProjectFunction
    cache_key: str = ""
    #: job ids that must complete before this job may run
    deps: tuple[int, ...] = ()
    #: dependency wave the job runs on (assigned by the scheduler)
    wave: int = 0
    #: call name -> qualified name of the resolved project callee
    resolved_map: dict[str, str] = field(default_factory=dict)
    #: call names that resolve into the job's own recursion cycle
    cyclic_call_names: tuple[str, ...] = ()
    #: resolved call names that must be inlined instead of summarised
    #: (return value used / global coupling; see the call-graph diagnostics)
    unsummarisable: tuple[str, ...] = ()
    #: call names whose definition is ambiguous across units (charged the
    #: pessimistic unknown-call cost)
    ambiguous_call_names: tuple[str, ...] = ()
    #: True when the job's resolved call closure contains a recursion cycle
    #: (the exhaustive end-to-end comparison is disabled for such jobs)
    reaches_recursion: bool = False
    #: call name -> syntactic site count in the function body
    site_counts: dict[str, int] = field(default_factory=dict)
    #: the job's own call sites charged with a genuine callee summary
    #: (pessimistic recursion/ambiguity charges excluded)
    summary_sites: int = 0
    #: content fingerprint closed over resolved callees (keys the cache)
    transitive_fingerprint: str = ""
    #: call name -> WCET bound charged per call site (fixed per wave)
    callee_bounds: dict[str, int] = field(default_factory=dict)
    state: JobState = JobState.PENDING
    summary: FunctionSummary | None = None
    error: str | None = None
    #: execution attempts so far (pool and serial combined)
    attempts: int = 0
    #: transient failures retried before the job settled
    retries: int = 0
    #: diagnostics of the failures/faults this job survived
    fault_events: list[str] = field(default_factory=list)

    @property
    def qualified_name(self) -> str:
        return self.function.qualified_name

    @property
    def resolved_callees(self) -> tuple[str, ...]:
        """Resolved callee qualified names, sorted and deduplicated."""
        return tuple(sorted(set(self.resolved_map.values())))


def _attempt(
    analyzed: AnalyzedProgram,
    unit_name: str,
    function_name: str,
    qualified_name: str,
    worker: str,
    config: AnalyzerConfig,
    callee_bounds: dict[str, int],
    job_plan: FaultPlan | None,
    job_timeout: float | None,
    execute_spec: FaultSpec | None,
) -> FunctionSummary:
    """One analysis attempt of one function, serial or inside a pool worker.

    The attempt is the ``project.job`` region (``worker`` is ``"serial"`` or
    ``"pool"``), so both paths time and trace a job the same way.
    ``job_plan`` carries only the job-internal fault sites (``mc.solve``,
    ``interp.step``): every attempt evaluates them against a fresh injector
    with its own hit counters, so what fires never depends on how jobs
    interleave across workers.  ``execute_spec`` is the scheduler-decided
    ``job.execute`` fault of this attempt (a pure function of plan seed, job
    name and attempt number): ``raise`` crashes the attempt, ``delay``
    sleeps before the analysis, inside the attempt's deadline.  Without a
    plan, a timeout or a spec no resilience context is activated at all.
    """
    injector = FaultInjector(job_plan) if job_plan is not None else None
    deadline = Deadline(job_timeout) if job_timeout else None
    with obs.region(
        "project.job", function=qualified_name, worker=worker
    ), contextlib.ExitStack() as stack:
        if injector is not None or deadline is not None or execute_spec is not None:
            stack.enter_context(
                activate(ResilienceContext(injector=injector, deadline=deadline))
            )
        if execute_spec is not None and execute_spec.kind is FaultKind.RAISE:
            raise InjectedFault("job.execute", "injected job crash", 1)
        if execute_spec is not None and execute_spec.kind is FaultKind.DELAY:
            time.sleep(execute_spec.delay_ms / 1000.0)
        report = WcetAnalyzer(
            analyzed, function_name, config, callee_bounds=callee_bounds
        ).analyze()
        return FunctionSummary.from_report(unit_name, config.partitioner, report)


def _pool_attempt(
    unit_name: str,
    source: str,
    function_name: str,
    qualified_name: str,
    config: AnalyzerConfig,
    callee_bounds: dict[str, int],
    job_plan: FaultPlan | None,
    job_timeout: float | None,
    execute_spec: FaultSpec | None,
    trace: dict | None,
    query_cache_dir: str | None,
) -> tuple[dict | Exception, dict, list]:
    """:func:`_attempt` inside a process-pool worker.

    Returns ``(summary dict or the attempt's exception, perf report, span
    events)``.  Module-level so it
    pickles; the worker re-parses the unit from source, which keeps the
    inter-process payload to plain strings plus picklable dataclasses.  The
    worker records counters and timers into a private registry and spans
    into a private tracer; the scheduler merges both back into its own, so a
    pool run accounts the same work a serial run does.

    ``trace`` is the serialised span handshake
    (``{"trace_id", "parent_id", "max_events"}``): the worker's spans hang
    under that parent -- the cross-process half of the end-to-end trace
    tree.  ``None`` (untraced run) returns an empty event list.

    ``query_cache_dir`` (the scheduler's cache root) re-opens the shared
    persistent model-checking query store inside the worker: verdicts and
    witnesses flow through the same crash-safe, flock-serialised files the
    serial path uses.
    """
    registry = perf.PerfRegistry()
    tracer: obs.Tracer | None = None
    try:
        with contextlib.ExitStack() as stack:
            stack.enter_context(perf.using_registry(registry))
            if trace is not None:
                tracer = obs.Tracer(max_events=trace.get("max_events"))
                stack.enter_context(
                    obs.using_tracer(
                        tracer,
                        obs.SpanContext(
                            trace_id=trace["trace_id"], span_id=trace["parent_id"]
                        ),
                    )
                )
            if query_cache_dir is not None:
                stack.enter_context(
                    using_query_store(QueryStore(ResultCache(query_cache_dir)))
                )
            analyzed = parse_and_analyze(source, filename=unit_name)
            outcome: dict | Exception = _attempt(
                analyzed,
                unit_name,
                function_name,
                qualified_name,
                "pool",
                config,
                callee_bounds,
                job_plan,
                job_timeout,
                execute_spec,
            ).to_dict()
    except Exception as error:
        # returned, not raised, so the failed attempt's counters and spans
        # reach the scheduler like those of a failed serial attempt
        outcome = error
    events = tracer.events() if tracer is not None else []
    return outcome, registry.report(), events


class ProjectScheduler:
    """Run every analyzable function of a project through the WCET pipeline."""

    def __init__(
        self,
        project: Project,
        config: AnalyzerConfig | None = None,
        cache: ResultCache | None = None,
        workers: int = 1,
        only: list[str] | None = None,
        interprocedural: bool = True,
        unknown_call_cycles: int | None = None,
        fault_plan: FaultPlan | None = None,
        retry_policy: RetryPolicy | None = None,
        job_timeout_seconds: float | None = None,
        pool_restart_budget: int = 2,
        progress_callback=None,
        flight_recorder: obs.FlightRecorder | None = None,
        query_cache: ResultCache | None = None,
    ):
        """``fault_plan``/``retry_policy``/``job_timeout_seconds`` are the
        resilience knobs: the plan injects deterministic faults (chaos
        testing; ``None`` or an empty plan changes nothing), the policy
        bounds transient-failure retries, and the timeout quarantines jobs
        that overrun their wall-clock allowance.  ``pool_restart_budget``
        caps how often a died process pool is re-created before the run
        falls back to serial execution for good.

        The fault plan is deliberately *not* part of :class:`AnalyzerConfig`:
        the config is fingerprinted into every cache key, and injecting
        faults must not re-key (or pollute) the cache of clean runs.

        ``progress_callback`` is invoked with each :class:`AnalysisJob` as
        it reaches a terminal state (cached, done, failed, quarantined) --
        the hook the analysis service uses to stream job progress to
        polling clients.  Callback errors are swallowed: observers must
        never be able to fail an analysis.

        ``flight_recorder`` receives a trace dump whenever a job is
        quarantined or a fault fires; when omitted and the cache is
        persistent, one is created over ``<cache root>/diagnostics`` (next
        to the cache's ``corrupt/`` quarantine).

        ``query_cache`` backs the persistent model-checking query store
        (per-(slice, goal) verdicts + witnesses, :mod:`repro.mc.store`).
        ``None`` shares the result cache -- a plain warm ``project`` run
        answers every unchanged reachability query from disk with zero
        solver calls -- and :meth:`ResultCache.disabled` opts out.  Like
        the fault plan it is deliberately not part of the fingerprinted
        :class:`AnalyzerConfig`: store entries are replay-validated on
        load, so where (or whether) they persist never changes a verdict.
        """
        from ..callgraph.summaries import (
            DEFAULT_UNKNOWN_CALL_CYCLES,
            CalleeSummaryStore,
        )

        self._project = project
        self._config = config or AnalyzerConfig()
        self._cache = cache or ResultCache.disabled()
        self._workers = max(1, int(workers))
        self._only = only
        self._interprocedural = interprocedural
        self._unknown_call_cycles = (
            DEFAULT_UNKNOWN_CALL_CYCLES
            if unknown_call_cycles is None
            else unknown_call_cycles
        )
        self._summaries = CalleeSummaryStore()
        self._jobs: list[AnalysisJob] | None = None
        self._fault_plan = fault_plan or FaultPlan()
        self._retry_policy = retry_policy or RetryPolicy(
            seed=self._fault_plan.seed
        )
        self._job_timeout = job_timeout_seconds
        self._pool_restart_budget = max(0, int(pool_restart_budget))
        self._progress_callback = progress_callback
        #: scheduler-side injector (cache.*, pool.submit); job-internal
        #: sites ship to each attempt as a sub-plan (None when empty), and
        #: job.execute is decided per attempt by :meth:`_job_execute_spec`
        self._injector = (
            FaultInjector(
                self._fault_plan.for_sites(
                    "cache.read", "cache.write", "pool.submit"
                )
            )
            if not self._fault_plan.is_empty
            else None
        )
        job_plan = self._fault_plan.job_plan()
        self._job_plan = job_plan if not job_plan.is_empty else None
        self._job_execute_specs = tuple(
            spec
            for spec in self._fault_plan.specs
            if spec.site == "job.execute"
        )
        if self._injector is not None:
            self._cache.fault_injector = self._injector
        #: persistent model-checking query store (None = disabled)
        self._query_cache = query_cache if query_cache is not None else self._cache
        self._query_store = (
            QueryStore(self._query_cache) if self._query_cache.enabled else None
        )
        if (
            self._injector is not None
            and self._query_cache is not self._cache
            and self._query_store is not None
        ):
            # a dedicated query cache joins the chaos plan like the shared
            # one would (cache.read / cache.write fire on query I/O too)
            self._query_cache.fault_injector = self._injector
        self._flight = flight_recorder
        if self._flight is None and self._cache.root is not None:
            self._flight = obs.FlightRecorder(
                self._cache.root / obs.DIAGNOSTICS_DIR
            )
        #: records of the flight dumps written by the last run
        self.flight_dumps: list[dict] = []
        #: trace id of the last run's root span (None when untraced)
        self.trace_id: str | None = None
        #: the tracer the last run recorded into (ambient or auto-armed ring)
        self._tracer: obs.Tracer | None = None
        #: the resolved project call graph (built lazily with the jobs;
        #: ``None`` in flat mode)
        self.callgraph = None
        #: execution mode of the last run ("serial", "process-pool", or
        #: "serial-fallback" when a pool could not be created or died)
        self.mode = "serial"
        #: why the scheduler fell back to serial execution (None = no fallback)
        self.fallback_reason: str | None = None
        #: number of dependency waves executed by the last run
        self.waves_executed = 0
        #: process pools re-created after a death (capped by the budget)
        self.pool_restarts = 0

    # ------------------------------------------------------------------ #
    @property
    def workers(self) -> int:
        return self._workers

    def _notify(self, job: AnalysisJob) -> None:
        """Report a job's terminal state to the progress observer, if any."""
        if self._progress_callback is None:
            return
        try:
            self._progress_callback(job)
        except Exception:
            # observers are diagnostics-only; they must not fail the run
            pass

    def jobs(self) -> list[AnalysisJob]:
        """The job graph (built once, ordered by (unit, function))."""
        if self._jobs is None:
            if self._interprocedural:
                self._jobs = self._build_interprocedural_jobs()
            else:
                self._jobs = [
                    AnalysisJob(
                        job_id=index,
                        function=function,
                        cache_key=self._cache.key_for(
                            function.fingerprint, self._config
                        ),
                        transitive_fingerprint=function.fingerprint,
                    )
                    for index, function in enumerate(
                        self._project.functions(only=self._only)
                    )
                ]
        return self._jobs

    def _build_interprocedural_jobs(self) -> list[AnalysisJob]:
        """Resolve the call graph and key every job on a transitive fingerprint.

        With an ``only`` filter the selection is closed over resolved callees:
        a caller's bound cannot be computed without its callees' bounds, so
        restricting to ``--function caller`` still analyses (or recalls from
        cache) everything the caller transitively calls.
        """
        # imported lazily: repro.callgraph builds on repro.project.model, so a
        # module-level import would be circular through the package __init__
        from ..callgraph.graph import CallGraph

        graph = CallGraph.from_project(self._project)
        self.callgraph = graph
        if self._only is not None:
            functions = graph.closure(self._only)
        else:
            functions = graph.functions()
        if not functions:
            raise ProjectError("project defines no analyzable functions")
        fingerprints = graph.transitive_fingerprints(
            unknown_call_cycles=self._unknown_call_cycles
        )
        dependencies = graph.dependencies()
        reaches_cycle = graph.reaches_cycle()
        index_of = {
            function.qualified_name: index
            for index, function in enumerate(functions)
        }
        jobs: list[AnalysisJob] = []
        for index, function in enumerate(functions):
            qualified = function.qualified_name
            node = graph.node(qualified)
            jobs.append(
                AnalysisJob(
                    job_id=index,
                    function=function,
                    cache_key=self._cache.key_for(
                        fingerprints[qualified], self._config
                    ),
                    deps=tuple(
                        index_of[callee]
                        for callee in dependencies[qualified]
                        if callee in index_of
                    ),
                    resolved_map=dict(node.resolved),
                    cyclic_call_names=graph.cyclic_callee_names(qualified),
                    unsummarisable=node.unsummarisable,
                    ambiguous_call_names=node.ambiguous,
                    reaches_recursion=qualified in reaches_cycle,
                    site_counts=dict(node.calls.sites),
                    transitive_fingerprint=fingerprints[qualified],
                )
            )
        return jobs

    # ------------------------------------------------------------------ #
    def run(self) -> ProjectReport:
        """Execute the job graph wave by wave and aggregate the project report."""
        started = time.perf_counter()
        jobs = self.jobs()
        perf.add("project.jobs", len(jobs))
        self.flight_dumps = []
        self.trace_id = None

        with contextlib.ExitStack() as stack:
            tracer = obs.active_tracer()
            if tracer is None and not self._fault_plan.is_empty:
                # chaos runs arm a private bounded ring so a quarantine or
                # fired fault always has a recent timeline to freeze into a
                # flight dump, even without --trace
                tracer = obs.Tracer(max_events=obs.DEFAULT_RING_EVENTS)
                stack.enter_context(obs.using_tracer(tracer))
            self._tracer = tracer
            root = stack.enter_context(
                obs.region(
                    "project.run", functions=len(jobs), workers=self._workers
                )
            )
            if root is not None:
                self.trace_id = root.trace_id

            waves = self._waves(jobs)
            self.waves_executed = len(waves)
            perf.add("project.scheduler.waves", len(waves))
            for wave_index, wave in enumerate(waves):
                ready: list[AnalysisJob] = []
                for job in wave:
                    job.wave = wave_index
                    if not self._fail_on_broken_deps(job, jobs):
                        ready.append(job)
                with obs.region(
                    "project.wave", wave=wave_index, jobs=len(ready)
                ):
                    runnable = self._probe_cache(ready)
                    self._execute(runnable)
                self._harvest_summaries(wave)

            if (
                self._query_store is not None
                and self._query_store.replay_failures
            ):
                # a store entry whose witness no longer replays is hard
                # evidence of on-disk tampering/corruption (everything
                # written passed a save-time self-replay): freeze a timeline
                failures = self._query_store.replay_failures
                self._flight_dump(
                    "query-replay-failure",
                    detail=f"{len(failures)} rejected entr(y/ies): "
                    + "; ".join(
                        f"{record['goal']}: {record['reason']}"
                        for record in failures[:8]
                    ),
                )
            if not self.flight_dumps:
                fired = self._fired_fault_summary(jobs)
                if fired is not None:
                    self._flight_dump("faults-injected", detail=fired)

        failures = [
            ProjectFailure(
                unit=job.function.unit,
                function=job.function.name,
                error=job.error or "unknown error",
            )
            for job in jobs
            if job.state is JobState.FAILED
        ]
        summaries = [job.summary for job in jobs if job.summary is not None]
        reused_calls = sum(
            summary.summarised_call_sites for summary in summaries
        )
        perf.add("project.scheduler.summary_reuse_calls", reused_calls)
        # static-analysis totals for cache-served summaries: executed jobs
        # (in-process or merged back from a pool worker) already bumped the
        # sa.* counters inside run_static_analysis, so only results answered
        # from the cache are accounted here
        cached = [summary for summary in summaries if summary.from_cache]
        perf.add(
            "sa.edges_pruned",
            sum(summary.sa_edges_pruned for summary in cached),
        )
        perf.add(
            "sa.loop_bounds_inferred",
            sum(summary.sa_loop_bounds_inferred for summary in cached),
        )
        perf.add(
            "sa.diagnostics",
            sum(len(summary.sa_diagnostics) for summary in cached),
        )
        return ProjectReport(
            functions=summaries,
            failures=failures,
            cache_hits=self._cache.hits,
            cache_misses=self._cache.misses,
            cache_dir=str(self._cache.root) if self._cache.root else None,
            mode=self.mode,
            fallback_reason=self.fallback_reason,
            workers=self._workers,
            waves=self.waves_executed,
            summary_reuse_calls=reused_calls,
            callgraph=self.callgraph.to_dict() if self.callgraph else None,
            elapsed_seconds=time.perf_counter() - started,
            pool_restarts=self.pool_restarts,
            cache_write_failures=self._cache.write_failures,
            cache_quarantined=self._cache.quarantined,
            fault_plan=self._fault_plan.describe(),
            diagnostics=list(self._cache.diagnostics),
            flight_dumps=list(self.flight_dumps),
            trace_id=self.trace_id,
            trace_spans=len(self._tracer) if self._tracer is not None else 0,
        )

    # ------------------------------------------------------------------ #
    @staticmethod
    def _waves(jobs: list[AnalysisJob]) -> list[list[AnalysisJob]]:
        """Topological waves of the dependency graph (callees before callers)."""
        done: set[int] = set()
        remaining = list(jobs)
        waves: list[list[AnalysisJob]] = []
        while remaining:
            wave = [job for job in remaining if all(d in done for d in job.deps)]
            if not wave:
                cycle = ProjectScheduler._find_dependency_cycle(remaining)
                raise ProjectError(
                    "job graph contains a dependency cycle: "
                    + " -> ".join(cycle)
                )
            waves.append(wave)
            done.update(job.job_id for job in wave)
            remaining = [job for job in remaining if job.job_id not in done]
        return waves

    @staticmethod
    def _find_dependency_cycle(remaining: list[AnalysisJob]) -> list[str]:
        """Name the functions on one dependency cycle among *remaining* jobs."""
        by_id = {job.job_id: job for job in remaining}
        visited: set[int] = set()
        for start in remaining:
            if start.job_id in visited:
                continue
            path: list[int] = []
            position: dict[int, int] = {}
            current: AnalysisJob | None = start
            while current is not None:
                if current.job_id in position:
                    cycle = path[position[current.job_id]:] + [current.job_id]
                    return [by_id[job_id].qualified_name for job_id in cycle]
                if current.job_id in visited:
                    break
                position[current.job_id] = len(path)
                path.append(current.job_id)
                current = next(
                    (by_id[d] for d in current.deps if d in by_id), None
                )
            visited.update(path)
        # unsatisfiable deps that point outside the job graph, not a cycle
        return sorted(job.qualified_name for job in remaining)

    def _fail_on_broken_deps(
        self, job: AnalysisJob, jobs: list[AnalysisJob]
    ) -> bool:
        """Fail *job* when a callee it depends on failed; True when failed."""
        broken = [
            jobs[dep].qualified_name
            for dep in job.deps
            if jobs[dep].state is JobState.FAILED
        ]
        if not broken:
            return False
        job.state = JobState.FAILED
        job.error = (
            "callee analysis failed, no summary to charge: "
            + ", ".join(sorted(broken))
        )
        perf.add("project.jobs_failed")
        self._notify(job)
        return True

    def _callee_bounds_for(self, job: AnalysisJob) -> dict[str, int]:
        """The per-call-name charges of one job, fixed before its wave runs.

        Summarisable resolved callees charge their computed bound; calls
        into the job's own recursion cycle and ambiguous names charge the
        pessimistic unknown-call cost; callees flagged unsummarisable by
        the call graph are left out entirely, so the board inlines their
        real body (the seed behaviour) instead of stubbing it.  The map is
        then closed over those inlined bodies: the calls *they* make keep
        exactly the charges they had in the callee's own standalone
        analysis, so inlining never silently downgrades an interprocedural
        charge to the default external cost.
        """
        summarisable = {
            call_name: callee
            for call_name, callee in job.resolved_map.items()
            if call_name not in job.unsummarisable
        }
        bounds = self._summaries.bounds_for(
            summarisable,
            cyclic_names=job.cyclic_call_names,
            unknown_call_cycles=self._unknown_call_cycles,
        )
        for call_name in job.ambiguous_call_names:
            bounds[call_name] = self._unknown_call_cycles
        if job.unsummarisable and self.callgraph is not None:
            frontier = [job.resolved_map[name] for name in job.unsummarisable]
            visited: set[str] = set()
            demanded_inline = set(job.unsummarisable)
            while frontier:
                qualified = frontier.pop()
                if qualified in visited:
                    continue
                visited.add(qualified)
                inlined = self.callgraph.node(qualified)
                # names this body needs executed for real (e.g. a callee
                # whose return value it uses) must not be stubbed on the
                # caller's board either, even if the caller's own call to
                # the same name could have been summarised
                demanded_inline.update(inlined.unsummarisable)
                inner = self._summaries.bounds_for(
                    {
                        call_name: callee
                        for call_name, callee in inlined.resolved.items()
                        if call_name not in inlined.unsummarisable
                    },
                    cyclic_names=self.callgraph.cyclic_callee_names(qualified),
                    unknown_call_cycles=self._unknown_call_cycles,
                )
                for call_name in inlined.ambiguous:
                    inner[call_name] = self._unknown_call_cycles
                for call_name, bound in inner.items():
                    bounds.setdefault(call_name, bound)
                frontier.extend(
                    inlined.resolved[name] for name in inlined.unsummarisable
                )
            for call_name in demanded_inline:
                # never un-stub a call into the job's own recursion cycle:
                # inlining it would not terminate
                if call_name not in job.cyclic_call_names:
                    bounds.pop(call_name, None)
        return bounds

    def _job_config(self, job: AnalysisJob) -> AnalyzerConfig:
        """The analyzer config for one job.

        Jobs whose call closure contains a recursion cycle -- the cycle
        members and their transitive callers -- get the exhaustive
        end-to-end comparison disabled: recursive calls are stubbed during
        measurement, but the exhaustive check runs real callee bodies and
        unbounded recursion would only die against the interpreter's step
        budget.
        """
        if job.reaches_recursion and self._config.exhaustive_limit is not None:
            return dataclasses.replace(self._config, exhaustive_limit=None)
        return self._config

    def _harvest_summaries(self, wave: list[AnalysisJob]) -> None:
        """Feed the wave's completed bounds to the callers of later waves."""
        from ..callgraph.summaries import CalleeSummary

        for job in wave:
            if job.summary is None:
                continue
            self._summaries.add(
                CalleeSummary(
                    qualified_name=job.qualified_name,
                    call_name=job.function.name,
                    wcet_bound_cycles=job.summary.wcet_bound_cycles,
                    transitive_fingerprint=job.transitive_fingerprint,
                    from_cache=job.summary.from_cache,
                )
            )

    def _probe_cache(self, wave: list[AnalysisJob]) -> list[AnalysisJob]:
        """Resolve cached jobs; return the ones that must actually run."""
        runnable: list[AnalysisJob] = []
        for job in wave:
            job.callee_bounds = self._callee_bounds_for(job)
            job.summary_sites = sum(
                job.site_counts.get(name, 0)
                for name in job.callee_bounds
                if name in job.resolved_map
                and name not in job.cyclic_call_names
                and name not in job.ambiguous_call_names
                and self._summaries.get(job.resolved_map[name]) is not None
            )
            summary = self._cache.get(job.cache_key)
            if summary is not None:
                self._adopt_identity(job, summary)
                job.summary = summary
                job.state = JobState.CACHED
                perf.add("project.jobs_cached")
                self._notify(job)
            else:
                runnable.append(job)
        return runnable

    @staticmethod
    def _adopt_identity(job: AnalysisJob, summary: FunctionSummary) -> None:
        """Restore this job's identity over whatever run stored the entry.

        The cache is content-addressed: identical functions in different
        units (or the same entry reached through a differently-filtered run)
        share one entry, so the labels and scheduling facts are the current
        job's, while the analysis payload is whatever the entry holds.
        """
        summary.cache_key = job.cache_key
        summary.unit = job.function.unit
        summary.function = job.function.name
        summary.wave = job.wave
        summary.callees = list(job.resolved_callees)
        # the analyzer counts every interprocedurally-charged site; the
        # reuse metric only counts the ones backed by a genuine summary
        summary.summarised_call_sites = job.summary_sites
        summary.transitive_fingerprint = job.transitive_fingerprint
        # retries and scheduler-level fault events are properties of this
        # run (excluded from the cached result payload), so the current
        # job's bookkeeping always wins over whatever a cache entry holds
        summary.retries = job.retries
        summary.fault_events = list(job.fault_events) + [
            event
            for event in summary.fault_events
            if event not in job.fault_events
        ]

    # ------------------------------------------------------------------ #
    def _execute(self, jobs: list[AnalysisJob]) -> None:
        if not jobs:
            return
        if self._workers > 1 and len(jobs) > 1:
            remaining = self._execute_pool(jobs)
        else:
            remaining = jobs
        for job in remaining:
            self._execute_serial(job)

    def _job_execute_spec(self, job: AnalysisJob, attempt: int) -> FaultSpec | None:
        """The ``job.execute`` fault firing on this job's *attempt*, if any.

        The hit counter of the ``job.execute`` site is the per-job attempt
        number, not a global dispatch counter: the decision is a pure
        function of (plan seed, job name, attempt), so it is identical
        whether the attempt runs serially, on the first pool or on a
        restarted one -- and ``raise@1+`` means "crash every attempt of
        every job" (the retry-exhaustion/quarantine scenario) while
        ``raise@1`` crashes only first attempts, which then retry clean.
        """
        for spec in self._job_execute_specs:
            if spec.fires_on(attempt, self._fault_plan.seed, job.qualified_name):
                perf.add("resilience.injected.job.execute")
                return spec
        return None

    @staticmethod
    def _unfinished(jobs: list[AnalysisJob]) -> list[AnalysisJob]:
        """The jobs of a broken pool cycle still to run, reset to PENDING."""
        survivors = [
            job
            for job in jobs
            if job.summary is None and job.state is not JobState.FAILED
        ]
        for job in survivors:
            job.state = JobState.PENDING
        return survivors

    def _fall_back(self, jobs: list[AnalysisJob], reason: str) -> list[AnalysisJob]:
        """Give up on the pool for this wave; return its unfinished jobs."""
        perf.add("project.scheduler.pool_fallbacks")
        self.mode = "serial-fallback"
        if self.fallback_reason is None:
            self.fallback_reason = reason
        return self._unfinished(jobs)

    def _execute_pool(self, jobs: list[AnalysisJob]) -> list[AnalysisJob]:
        """Run *jobs* on a process pool; return the jobs still to be executed.

        One pool is created per wave rather than per run: a wave is a full
        submit/drain cycle anyway (callee bounds must be final before the
        next wave submits), and a fresh pool keeps the died-pool path simple
        -- the startup cost is tiny next to a function analysis.  A pool
        that dies mid-wave is re-created and the unfinished jobs resubmitted
        up to ``pool_restart_budget`` times; only past that budget (or on a
        permanent pickling error) does the wave fall back to serial
        execution.
        """
        pending_jobs = jobs
        while pending_jobs:
            try:
                pool = concurrent.futures.ProcessPoolExecutor(
                    max_workers=min(self._workers, len(pending_jobs))
                )
            except (OSError, ValueError) as error:
                perf.add("project.scheduler.pool_fallback.create_failed")
                return self._fall_back(
                    pending_jobs,
                    f"pool-create-failed: {type(error).__name__}: {error}",
                )
            try:
                retry_serially = self._pool_cycle(pool, pending_jobs)
            except (
                concurrent.futures.process.BrokenProcessPool,
                InjectedFault,
            ) as error:
                # the pool died (fork bans, OOM-killed worker, an injected
                # pool.submit fault): restart it for the unfinished jobs
                # while the restart budget lasts
                if self.pool_restarts < self._pool_restart_budget:
                    self.pool_restarts += 1
                    perf.add("project.scheduler.pool_restarts")
                    pending_jobs = self._unfinished(pending_jobs)
                    continue
                perf.add("project.scheduler.pool_fallback.pool_died")
                return self._fall_back(
                    pending_jobs,
                    f"pool-died: {type(error).__name__}: {error} "
                    f"(restart budget of {self._pool_restart_budget} spent)",
                )
            except pickle.PicklingError as error:
                # a config that does not pickle is permanent: restarting the
                # pool would fail identically, so go straight to serial
                perf.add("project.scheduler.pool_fallback.pool_died")
                return self._fall_back(
                    pending_jobs,
                    f"pool-died: {type(error).__name__}: {error}",
                )
            if self.mode != "serial-fallback":
                # a fallback in an earlier wave keeps the report honest even
                # if this wave's pool came up fine
                self.mode = "process-pool"
            # jobs whose worker raised a transient error are retried on the
            # serial path (their attempt count carries over)
            return retry_serially
        return []

    def _pool_cycle(
        self,
        pool: concurrent.futures.ProcessPoolExecutor,
        jobs: list[AnalysisJob],
    ) -> list[AnalysisJob]:
        """One submit/drain cycle; returns jobs to retry serially."""
        pending: dict[concurrent.futures.Future, AnalysisJob] = {}
        retry_serially: list[AnalysisJob] = []
        # the cross-process span handshake: workers record under the wave
        # span as parent and ship their events back for merging
        trace_payload = None
        context = obs.current_context()
        if self._tracer is not None and context is not None:
            trace_payload = {
                "trace_id": context.trace_id,
                "parent_id": context.span_id,
                "max_events": self._tracer.max_events,
            }
        query_cache_dir = (
            str(self._query_cache.root)
            if self._query_store is not None and self._query_cache.root is not None
            else None
        )
        with pool:
            for job in jobs:
                unit = self._project.unit(job.function.unit)
                if self._injector is not None:
                    # an injected pool.submit fault == the pool broke while
                    # feeding it work; handled by the restart loop above
                    self._injector.check("pool.submit", job.qualified_name)
                job.state = JobState.RUNNING
                future = pool.submit(
                    _pool_attempt,
                    unit.name,
                    unit.source,
                    job.function.name,
                    job.qualified_name,
                    self._job_config(job),
                    job.callee_bounds,
                    self._job_plan,
                    self._job_timeout,
                    self._job_execute_spec(job, job.attempts + 1),
                    trace_payload,
                    query_cache_dir,
                )
                pending[future] = job
            for future in concurrent.futures.as_completed(pending):
                job = pending.pop(future)
                # a broken pool or pickling error raises here: pool-level
                # trouble, not a property of this job
                outcome, registry_report, span_events = future.result()
                job.attempts += 1
                perf.active_registry().merge(registry_report)
                if span_events and self._tracer is not None:
                    self._tracer.merge(span_events)
                if isinstance(outcome, Exception):
                    if self._attempt_failed(job, outcome):
                        retry_serially.append(job)
                    continue
                self._complete(job, FunctionSummary.from_dict(outcome))
        return retry_serially

    def _execute_serial(self, job: AnalysisJob) -> None:
        """Run one job in-process, retrying transient failures with backoff."""
        unit = self._project.unit(job.function.unit)
        while True:
            job.state = JobState.RUNNING
            if job.attempts > 0:
                # a backoff sleep precedes every retry attempt; the delay is
                # a pure function of (seed, job, attempt) so chaos runs
                # sleep the same deterministic schedule every time
                time.sleep(
                    self._retry_policy.delay_for(job.attempts, job.qualified_name)
                )
            job.attempts += 1
            try:
                with using_query_store(self._query_store):
                    # the unit's already-analysed AST is reused in-process;
                    # the pipeline is deterministic, so this matches a pool
                    # worker's re-parse exactly
                    summary = _attempt(
                        unit.analyzed,
                        unit.name,
                        job.function.name,
                        job.qualified_name,
                        "serial",
                        self._job_config(job),
                        job.callee_bounds,
                        self._job_plan,
                        self._job_timeout,
                        self._job_execute_spec(job, job.attempts),
                    )
            except Exception as error:
                if self._attempt_failed(job, error):
                    continue
                return
            self._complete(job, summary)
            return

    def _attempt_failed(self, job: AnalysisJob, error: Exception) -> bool:
        """Settle a failed attempt of *job*; True when it should be retried.

        A timeout quarantines (a deterministic computation would time out
        again), a transient error retries until the policy's attempts are
        spent and then quarantines, and a permanent error fails the job.
        """
        if isinstance(error, JobTimeout):
            self._quarantine(job, f"wall-clock timeout: {error}")
            return False
        kind = classify_error(error)
        job.fault_events.append(
            f"attempt {job.attempts} failed ({kind}): "
            f"{type(error).__name__}: {error}"
        )
        max_attempts = self._retry_policy.max_attempts
        if kind == "transient" and job.attempts < max_attempts:
            job.retries += 1
            perf.add("project.scheduler.retries")
            job.state = JobState.PENDING
            return True
        if kind == "transient":
            self._quarantine(
                job,
                f"transient failures exhausted {max_attempts} attempt(s): "
                f"{type(error).__name__}: {error}",
            )
        else:
            # a genuine, permanent analysis error: the seed behaviour (fail
            # the job, report it) is the right one
            self._fail(job, error)
        return False

    # ------------------------------------------------------------------ #
    def _flight_dump(self, trigger: str, detail: str | None = None) -> None:
        """Freeze the recent trace timeline into the diagnostics directory."""
        if self._flight is None:
            return
        record = self._flight.dump(
            trigger,
            tracer=self._tracer,
            trace_id=self.trace_id,
            detail=detail,
        )
        if record is not None:
            self.flight_dumps.append(record)
            perf.add("obs.flight.dumps")

    def _fired_fault_summary(self, jobs: list[AnalysisJob]) -> str | None:
        """One line describing the faults this run absorbed (None = clean)."""
        fired: list[str] = []
        if self._injector is not None:
            fired.extend(self._injector.fired)
        for job in jobs:
            fired.extend(job.fault_events)
            if job.summary is not None:
                fired.extend(
                    event
                    for event in job.summary.fault_events
                    if event not in job.fault_events
                )
        if not fired:
            return None
        return f"{len(fired)} fault(s): " + "; ".join(fired[:8])

    def _quarantine(self, job: AnalysisJob, reason: str) -> None:
        """Isolate a crashing/timing-out job behind a static pessimised bound.

        The job's function still gets a *sound* (much coarser) WCET summary
        from :func:`static_pessimised_report`, so its callers analyse
        normally instead of cascading into failures -- one bad job degrades
        one bound, not the wave.
        """
        unit = self._project.unit(job.function.unit)
        try:
            report = static_pessimised_report(
                unit.analyzed,
                job.function.name,
                self._job_config(job),
                callee_bounds=job.callee_bounds,
                reason=f"quarantined: {reason}",
            )
        except Exception as error:
            # not even the static route works (e.g. the partition itself is
            # broken): that is a genuine failure, not a resilience case
            self._fail(job, error)
            return
        summary = FunctionSummary.from_report(
            unit.name, self._config.partitioner, report
        )
        summary.quarantined = True
        self._adopt_identity(job, summary)
        job.summary = summary
        job.state = JobState.QUARANTINED
        job.error = reason
        perf.add("project.jobs_quarantined")
        self._flight_dump(
            f"quarantine-{job.qualified_name}",
            detail=f"{job.qualified_name}: {reason}",
        )
        self._notify(job)

    def _complete(self, job: AnalysisJob, summary: FunctionSummary) -> None:
        self._adopt_identity(job, summary)
        job.summary = summary
        job.state = JobState.DONE
        if not summary.degraded:
            # a degraded result is an artefact of this run's faults; caching
            # it would serve pessimised bounds to later clean runs
            self._cache.put(job.cache_key, summary)
        perf.add("project.jobs_executed")
        self._notify(job)

    def _fail(self, job: AnalysisJob, error: Exception) -> None:
        job.state = JobState.FAILED
        job.error = f"{type(error).__name__}: {error}"
        perf.add("project.jobs_failed")
        self._notify(job)


def analyze_project(project: Project, **options) -> ProjectReport:
    """Convenience wrapper: schedule and run every function of *project*.

    *options* are :class:`ProjectScheduler`'s keyword arguments.
    """
    return ProjectScheduler(project, **options).run()
