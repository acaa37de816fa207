"""WCET analysis reports.

Collects the quantities the paper reports for its case study -- the
partitioned WCET bound, the exhaustively measured WCET, the overestimation --
plus the partition/measurement statistics, and renders them as a plain-text
table for examples and the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..measurement.database import MeasurementDatabase
from ..partition.segment import PartitionResult
from .end_to_end import EndToEndResult
from .timing_schema import WcetBound


@dataclass
class WcetReport:
    """Complete result of one WCET analysis."""

    function_name: str
    path_bound: int
    partition: PartitionResult
    bound: WcetBound
    database: MeasurementDatabase
    end_to_end: EndToEndResult | None = None
    test_vectors_used: int = 0
    infeasible_paths: int = 0
    generator_statistics: dict[str, int] = field(default_factory=dict)
    #: callee name -> WCET bound charged per call site (interprocedural mode)
    callee_bounds_used: dict[str, int] = field(default_factory=dict)
    #: syntactic call sites charged interprocedurally -- via a genuine
    #: callee summary or the pessimistic unknown-call constant
    summarised_call_sites: int = 0
    #: model-checking query-engine counters (planned/sliced/prefix_hits/
    #: budget_exhausted/...).  A budget-exhausted target stays uncovered.
    #: Its segment gets the static charge only when no path of it was
    #: measured; otherwise the path is left out of the bound, which is
    #: unsound (``tests/test_soundness_repros.py`` pins a repro as a strict
    #: xfail)
    mc_diagnostics: dict[str, int] = field(default_factory=dict)
    #: True when injected faults forced part of the analysis onto the static
    #: pessimisation route; the bound is sound but coarser than a clean run's
    degraded: bool = False
    #: diagnostics of the faults/degradations observed during the analysis
    fault_events: list[str] = field(default_factory=list)
    #: program diagnostics from the static analysis pass (``repro.sa``),
    #: as :meth:`repro.sa.diagnostics.Diagnostic.to_dict` payloads
    sa_diagnostics: list[dict] = field(default_factory=list)
    #: CFG edges the static feasibility pass proved infeasible
    sa_edges_pruned: int = 0
    #: loop headers whose bound the static pass inferred exactly
    sa_loop_bounds_inferred: int = 0

    # ------------------------------------------------------------------ #
    @property
    def wcet_bound_cycles(self) -> int:
        return self.bound.bound_cycles

    @property
    def measured_wcet_cycles(self) -> int | None:
        return self.end_to_end.max_cycles if self.end_to_end is not None else None

    @property
    def overestimation_ratio(self) -> float | None:
        """bound / measured WCET (the paper's 274/250 ≈ 1.096)."""
        measured = self.measured_wcet_cycles
        if measured in (None, 0):
            return None
        return self.bound.bound_cycles / measured

    def is_safe(self) -> bool:
        """True when the bound is >= every end-to-end observation."""
        measured = self.measured_wcet_cycles
        return measured is None or self.bound.bound_cycles >= measured

    # ------------------------------------------------------------------ #
    def to_text(self) -> str:
        lines = [
            f"WCET analysis report for {self.function_name!r}",
            f"  path bound b              : {self.path_bound}",
            f"  program segments          : {len(self.partition.segments)}",
            f"  instrumentation points ip : {self.partition.instrumentation_points}",
            f"  required measurements m   : {self.partition.measurements}",
            f"  segment observations      : {len(self.database)}",
            f"  test vectors used         : {self.test_vectors_used}",
            f"  infeasible paths          : {self.infeasible_paths}",
            f"  WCET bound (timing schema): {self.bound.bound_cycles} cycles",
        ]
        if self.callee_bounds_used:
            charged = ", ".join(
                f"{name}={bound}" for name, bound in self.callee_bounds_used.items()
            )
            lines.append(
                f"  callee summaries charged  : {self.summarised_call_sites} "
                f"call site(s) [{charged}]"
            )
        if self.mc_diagnostics:
            planned = self.mc_diagnostics.get("planned", 0)
            sliced = self.mc_diagnostics.get("sliced", 0)
            exhausted = self.mc_diagnostics.get("budget_exhausted", 0)
            shared = self.mc_diagnostics.get("prefix_hits", 0)
            lines.append(
                f"  mc queries planned        : {planned} "
                f"({sliced} sliced, {shared} answered by shared work)"
            )
            if exhausted:
                lines.append(
                    f"  mc budget exhausted       : {exhausted} "
                    "(targets pessimised, not hung)"
                )
        if self.sa_edges_pruned or self.sa_loop_bounds_inferred or self.sa_diagnostics:
            lines.append(
                f"  static analysis           : {self.sa_edges_pruned} edge(s) "
                f"proven infeasible, {self.sa_loop_bounds_inferred} loop "
                f"bound(s) inferred, {len(self.sa_diagnostics)} diagnostic(s)"
            )
        if self.degraded:
            lines.append(
                "  DEGRADED result           : faults forced static "
                "pessimisation (bound remains sound)"
            )
            for event in self.fault_events:
                lines.append(f"    - {event}")
        pessimised = self.bound.pessimised_segments
        if pessimised:
            lines.append(
                f"  segments pessimised       : {len(pessimised)} "
                f"(static estimate, no measurement: "
                f"{', '.join(str(s) for s in pessimised)})"
            )
        if self.end_to_end is not None:
            lines.append(
                f"  exhaustive end-to-end WCET: {self.end_to_end.max_cycles} cycles "
                f"({self.end_to_end.runs} runs)"
            )
            ratio = self.overestimation_ratio
            if ratio is not None:
                lines.append(f"  overestimation            : {ratio:.3f}x")
            lines.append(f"  bound is safe             : {self.is_safe()}")
        lines.append("  per-segment worst-case times:")
        for segment in self.partition.segments:
            stats = self.database.statistics(segment.segment_id)
            observed = stats.max_cycles if stats is not None else None
            marker = "*" if segment.segment_id in self.bound.critical_segments else " "
            lines.append(
                f"   {marker} segment {segment.segment_id:>3} "
                f"[{segment.kind.value:>14}] paths {segment.path_count:>3} "
                f"max {observed if observed is not None else '---':>6} cycles  "
                f"{segment.description}"
            )
        lines.append("  (* = on the critical path of the bound)")
        return "\n".join(lines)
