"""Project-level aggregation of per-function WCET results.

:class:`FunctionSummary` is the JSON-friendly extract of one
:class:`~repro.wcet.report.WcetReport` -- it is what process-pool workers
return to the scheduler and what the persistent result cache stores, so it
deliberately contains only plain data (no ASTs, CFGs or measurement
databases).  :class:`ProjectReport` aggregates the summaries of a whole
batch run together with cache and scheduling statistics and renders them as
text (CLI) or JSON (``--json`` export / tooling).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any

from ..wcet.report import WcetReport

#: schema tag of the JSON project report
#: bumped to /3 with the query-engine refactor (budget-exhaustion totals);
#: /4 added the resilience section (quarantined/degraded/retries/pool
#: restarts, fault plan, diagnostics); /5 added the observability section
#: (trace id/span count of a traced run) and flight-recorder dump records
#: under resilience; /6 added the static_analysis section and per-function
#: sa fields (diagnostics, pruned edges, inferred loop bounds)
PROJECT_REPORT_SCHEMA = "repro-project-report/6"


@dataclass
class FunctionSummary:
    """Plain-data result of one function analysis."""

    unit: str
    function: str
    path_bound: int
    partitioner: str
    segments: int
    instrumentation_points: int
    measurements_required: int
    #: segment observations measured (one per segment execution, not per
    #: board run; the payload key keeps its name)
    measurement_runs: int
    test_vectors_used: int
    infeasible_paths: int
    wcet_bound_cycles: int
    measured_wcet_cycles: int | None
    overestimation: float | None
    safe: bool
    critical_segments: list[int] = field(default_factory=list)
    generator_statistics: dict[str, int] = field(default_factory=dict)
    #: qualified names (unit:function) of the resolved project callees
    callees: list[str] = field(default_factory=list)
    #: callee name -> WCET bound charged per call site (interprocedural mode)
    callee_bounds_used: dict[str, int] = field(default_factory=dict)
    #: syntactic call sites charged with a callee summary
    summarised_call_sites: int = 0
    #: dependency wave the function was scheduled on (0 = leaf callees)
    wave: int = 0
    #: content fingerprint closed over resolved callees (the cache-key basis)
    transitive_fingerprint: str = ""
    #: result-cache key this summary is stored under ("" when caching is off)
    cache_key: str = ""
    #: True when the summary was loaded from the cache instead of computed
    from_cache: bool = False
    #: True when injected faults forced part of the analysis onto the static
    #: pessimisation route (the bound is still sound, just coarser)
    degraded: bool = False
    #: why the result is degraded (None when ``degraded`` is False)
    degraded_reason: str | None = None
    #: True when the job itself kept crashing/timing out and the whole
    #: function was pessimised from static estimates (no measurement at all)
    quarantined: bool = False
    #: transient failures retried before this result was produced
    retries: int = 0
    #: descriptions of injected faults / degradations observed during the job
    fault_events: list[str] = field(default_factory=list)
    #: static-analysis program diagnostics (``repro.sa``) as plain dicts
    sa_diagnostics: list[dict] = field(default_factory=list)
    #: CFG edges the static feasibility pass proved infeasible
    sa_edges_pruned: int = 0
    #: loop headers whose bound the static pass inferred exactly
    sa_loop_bounds_inferred: int = 0

    # ------------------------------------------------------------------ #
    @classmethod
    def from_report(
        cls, unit: str, partitioner: str, report: WcetReport, cache_key: str = ""
    ) -> "FunctionSummary":
        return cls(
            unit=unit,
            function=report.function_name,
            path_bound=report.path_bound,
            partitioner=partitioner,
            segments=len(report.partition.segments),
            instrumentation_points=report.partition.instrumentation_points,
            measurements_required=report.partition.measurements,
            measurement_runs=len(report.database),
            test_vectors_used=report.test_vectors_used,
            infeasible_paths=report.infeasible_paths,
            wcet_bound_cycles=report.wcet_bound_cycles,
            measured_wcet_cycles=report.measured_wcet_cycles,
            overestimation=report.overestimation_ratio,
            safe=report.is_safe(),
            critical_segments=sorted(report.bound.critical_segments),
            generator_statistics=dict(report.generator_statistics),
            callee_bounds_used=dict(report.callee_bounds_used),
            summarised_call_sites=report.summarised_call_sites,
            cache_key=cache_key,
            degraded=report.degraded,
            degraded_reason="; ".join(report.fault_events) or None
            if report.degraded
            else None,
            fault_events=list(report.fault_events),
            sa_diagnostics=[dict(d) for d in report.sa_diagnostics],
            sa_edges_pruned=report.sa_edges_pruned,
            sa_loop_bounds_inferred=report.sa_loop_bounds_inferred,
        )

    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict[str, Any]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "FunctionSummary":
        known = {f.name for f in fields(cls)}
        return cls(**{key: value for key, value in data.items() if key in known})

    def result_payload(self) -> dict[str, Any]:
        """The cache- and scheduling-independent identity of the result.

        Serial and parallel runs must agree on this payload exactly; it
        excludes ``from_cache``, ``retries`` and ``fault_events`` --
        properties of the run that produced the result (where it ran, what
        infrastructure trouble it survived), not of the result itself.
        """
        payload = self.to_dict()
        payload.pop("from_cache")
        payload.pop("retries")
        payload.pop("fault_events")
        return payload


@dataclass
class ProjectFailure:
    """One function analysis that raised instead of producing a report."""

    unit: str
    function: str
    error: str

    def to_dict(self) -> dict[str, str]:
        return {"unit": self.unit, "function": self.function, "error": self.error}


@dataclass
class ProjectReport:
    """Aggregated result of one project batch run."""

    functions: list[FunctionSummary]
    failures: list[ProjectFailure] = field(default_factory=list)
    cache_hits: int = 0
    cache_misses: int = 0
    cache_dir: str | None = None
    #: "serial", "process-pool", or "serial-fallback" (a pool could not be
    #: created or died / could not pickle, and the batch ran serially)
    mode: str = "serial"
    #: why the scheduler fell back to serial execution (None = no fallback)
    fallback_reason: str | None = None
    workers: int = 1
    #: number of dependency waves the job graph was executed in
    waves: int = 1
    #: total call sites charged with a reused callee summary across the batch
    summary_reuse_calls: int = 0
    #: call-graph export (functions, edges, waves, cycles, diagnostics)
    callgraph: dict[str, Any] | None = None
    elapsed_seconds: float = 0.0
    #: process pools re-created after a death before giving up on pooling
    pool_restarts: int = 0
    #: cache writes that failed (swallowed but never silent)
    cache_write_failures: int = 0
    #: corrupt cache entries quarantined to ``corrupt/`` during the run
    cache_quarantined: int = 0
    #: descriptions of the injected fault plan (empty outside chaos runs)
    fault_plan: list[str] = field(default_factory=list)
    #: warn-once run diagnostics (cache write failures, quarantines, ...)
    diagnostics: list[str] = field(default_factory=list)
    #: ``{trigger, trace_id, path}`` records of the flight-recorder dumps
    #: written during the run (quarantines, fired faults)
    flight_dumps: list[dict[str, Any]] = field(default_factory=list)
    #: trace id of the run's root span (None when the run was untraced)
    trace_id: str | None = None
    #: span events the run's tracer held when the report was built
    trace_spans: int = 0

    # ------------------------------------------------------------------ #
    @property
    def total_functions(self) -> int:
        return len(self.functions)

    @property
    def total_segments(self) -> int:
        return sum(summary.segments for summary in self.functions)

    @property
    def total_instrumentation_points(self) -> int:
        return sum(summary.instrumentation_points for summary in self.functions)

    @property
    def total_measurement_runs(self) -> int:
        return sum(summary.measurement_runs for summary in self.functions)

    @property
    def total_test_vectors(self) -> int:
        return sum(summary.test_vectors_used for summary in self.functions)

    @property
    def all_safe(self) -> bool:
        return all(summary.safe for summary in self.functions)

    @property
    def total_budget_exhausted_queries(self) -> int:
        """Model-checking queries that ran out of their QueryBudget."""
        return sum(
            summary.generator_statistics.get("model_checking_budget_exhausted", 0)
            for summary in self.functions
        )

    @property
    def quarantined_functions(self) -> list[str]:
        """Qualified names of functions analysed via quarantine pessimisation."""
        return [
            f"{summary.unit}:{summary.function}"
            for summary in self.functions
            if summary.quarantined
        ]

    @property
    def degraded_functions(self) -> list[str]:
        """Qualified names of functions with (partially) degraded results."""
        return [
            f"{summary.unit}:{summary.function}"
            for summary in self.functions
            if summary.degraded
        ]

    @property
    def total_retries(self) -> int:
        return sum(summary.retries for summary in self.functions)

    @property
    def total_sa_edges_pruned(self) -> int:
        """CFG edges proven infeasible by the static pass across the batch."""
        return sum(summary.sa_edges_pruned for summary in self.functions)

    @property
    def total_sa_loop_bounds_inferred(self) -> int:
        return sum(summary.sa_loop_bounds_inferred for summary in self.functions)

    @property
    def total_sa_diagnostics(self) -> int:
        return sum(len(summary.sa_diagnostics) for summary in self.functions)

    def sa_diagnostics_by_severity(self) -> dict[str, int]:
        """``{"error": n, "warning": n, "info": n}`` over the whole batch."""
        counts: dict[str, int] = {}
        for summary in self.functions:
            for diagnostic in summary.sa_diagnostics:
                severity = diagnostic.get("severity", "info")
                counts[severity] = counts.get(severity, 0) + 1
        return counts

    def function_payloads(self) -> list[dict[str, Any]]:
        """Per-function result payloads (the serial-vs-parallel invariant)."""
        return [summary.result_payload() for summary in self.functions]

    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict[str, Any]:
        return {
            "schema": PROJECT_REPORT_SCHEMA,
            "totals": {
                "functions": self.total_functions,
                "segments": self.total_segments,
                "instrumentation_points": self.total_instrumentation_points,
                "measurement_runs": self.total_measurement_runs,
                "test_vectors_used": self.total_test_vectors,
                "budget_exhausted_queries": self.total_budget_exhausted_queries,
                "all_safe": self.all_safe,
            },
            "cache": {
                "hits": self.cache_hits,
                "misses": self.cache_misses,
                "directory": self.cache_dir,
                "write_failures": self.cache_write_failures,
                "quarantined_entries": self.cache_quarantined,
            },
            "execution": {
                "mode": self.mode,
                "fallback_reason": self.fallback_reason,
                "workers": self.workers,
                "waves": self.waves,
                "elapsed_seconds": self.elapsed_seconds,
            },
            "resilience": {
                "fault_plan": list(self.fault_plan),
                "quarantined_functions": self.quarantined_functions,
                "degraded_functions": self.degraded_functions,
                "retries": self.total_retries,
                "pool_restarts": self.pool_restarts,
                "diagnostics": list(self.diagnostics),
                "flight_dumps": [dict(dump) for dump in self.flight_dumps],
            },
            "observability": {
                "trace_id": self.trace_id,
                "trace_spans": self.trace_spans,
                "flight_dumps": len(self.flight_dumps),
            },
            "static_analysis": {
                "edges_pruned": self.total_sa_edges_pruned,
                "loop_bounds_inferred": self.total_sa_loop_bounds_inferred,
                "diagnostics": self.total_sa_diagnostics,
                "diagnostics_by_severity": self.sa_diagnostics_by_severity(),
            },
            "interprocedural": {
                "summary_reuse_calls": self.summary_reuse_calls,
                "callgraph": self.callgraph,
            },
            "functions": [summary.to_dict() for summary in self.functions],
            "failures": [failure.to_dict() for failure in self.failures],
        }

    def write_json(self, path: str | Path) -> None:
        Path(path).write_text(
            json.dumps(self.to_dict(), indent=2) + "\n", encoding="utf-8"
        )

    # ------------------------------------------------------------------ #
    def to_text(self) -> str:
        lines = [
            f"Project WCET report: {self.total_functions} function(s)",
            f"  execution mode            : {self.mode} ({self.workers} worker(s), "
            f"{self.waves} wave(s), {self.elapsed_seconds:.2f}s)",
        ]
        if self.fallback_reason:
            lines.append(f"  serial fallback reason    : {self.fallback_reason}")
        lines += [
            f"  callee summaries reused   : {self.summary_reuse_calls} call site(s)",
            f"  result cache              : {self.cache_hits} hit(s), "
            f"{self.cache_misses} miss(es)"
            + (f" in {self.cache_dir}" if self.cache_dir else " (disabled)"),
            f"  total segments            : {self.total_segments}",
            f"  total instrumentation pts : {self.total_instrumentation_points}",
            f"  total segment observations: {self.total_measurement_runs}",
            f"  total test vectors        : {self.total_test_vectors}",
            f"  all bounds safe           : {self.all_safe}",
        ]
        if self.total_budget_exhausted_queries:
            lines.append(
                f"  mc budget exhausted       : "
                f"{self.total_budget_exhausted_queries} query(ies) "
                "(segments pessimised, not hung)"
            )
        if (
            self.total_sa_edges_pruned
            or self.total_sa_loop_bounds_inferred
            or self.total_sa_diagnostics
        ):
            by_severity = self.sa_diagnostics_by_severity()
            severity_text = (
                " ("
                + ", ".join(
                    f"{count} {severity}"
                    for severity, count in sorted(by_severity.items())
                )
                + ")"
                if by_severity
                else ""
            )
            lines.append(
                f"  static analysis           : "
                f"{self.total_sa_edges_pruned} edge(s) pruned, "
                f"{self.total_sa_loop_bounds_inferred} loop bound(s) inferred, "
                f"{self.total_sa_diagnostics} diagnostic(s){severity_text}"
            )
        if self.fault_plan:
            lines.append(
                f"  injected fault plan       : {', '.join(self.fault_plan)}"
            )
        quarantined = self.quarantined_functions
        degraded = self.degraded_functions
        if quarantined:
            lines.append(
                f"  quarantined functions     : {len(quarantined)} "
                f"({', '.join(quarantined)}) -- static pessimisation, "
                "bounds remain sound"
            )
        if degraded:
            lines.append(
                f"  degraded functions        : {len(degraded)} "
                f"({', '.join(degraded)})"
            )
        if self.total_retries:
            lines.append(f"  transient retries         : {self.total_retries}")
        if self.pool_restarts:
            lines.append(f"  pool restarts             : {self.pool_restarts}")
        if self.cache_write_failures:
            lines.append(
                f"  cache write failures      : {self.cache_write_failures}"
            )
        if self.cache_quarantined:
            lines.append(
                f"  cache entries quarantined : {self.cache_quarantined}"
            )
        if self.trace_id:
            lines.append(
                f"  trace                     : {self.trace_id} "
                f"({self.trace_spans} span(s))"
            )
        for dump in self.flight_dumps:
            lines.append(
                f"  flight dump               : {dump.get('path')} "
                f"(trigger: {dump.get('trigger')}, "
                f"trace: {dump.get('trace_id')})"
            )
        for diagnostic in self.diagnostics:
            lines.append(f"  ! {diagnostic}")
        lines.append("  per-function results:")
        header = (
            f"    {'unit':<16} {'function':<16} {'wave':>4} {'seg':>4} {'ip':>5} "
            f"{'obs':>6} {'bound':>7} {'measured':>9} {'safe':>5} {'cache':>6}"
        )
        lines.append(header)
        for summary in self.functions:
            measured = (
                str(summary.measured_wcet_cycles)
                if summary.measured_wcet_cycles is not None
                else "---"
            )
            state = ""
            if summary.quarantined:
                state = "  [quarantined]"
            elif summary.degraded:
                state = "  [degraded]"
            lines.append(
                f"    {summary.unit:<16} {summary.function:<16} "
                f"{summary.wave:>4} "
                f"{summary.segments:>4} {summary.instrumentation_points:>5} "
                f"{summary.measurement_runs:>6} {summary.wcet_bound_cycles:>7} "
                f"{measured:>9} {str(summary.safe):>5} "
                f"{'hit' if summary.from_cache else 'miss':>6}"
                f"{state}"
            )
        for failure in self.failures:
            lines.append(
                f"    {failure.unit:<16} {failure.function:<16} FAILED: {failure.error}"
            )
        return "\n".join(lines)
