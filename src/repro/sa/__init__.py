"""``repro.sa`` — sound static analysis in front of the model checker.

One call, :func:`run_static_analysis`, bundles the three layers:

* :mod:`repro.sa.feasibility` — interval/branch-correlation propagation that
  proves edges and blocks statically infeasible; its
  :class:`~repro.sa.feasibility.StaticPrefilter` answers reachability goals
  as ``UNREACHABLE`` before :mod:`repro.mc.query` ever plans a solver call,
* :mod:`repro.sa.loopbounds` — proven iteration counts for counted ``for``
  loops, fed to :class:`repro.wcet.timing_schema.TimingSchema` (precedence:
  pragma > inferred > default),
* :mod:`repro.sa.diagnostics` — SA001..SA005 program diagnostics rendered
  into reports and the ``lint`` CLI subcommand.

:mod:`repro.sa.selflint` (SL001, SL002, SL004) lints the repo's own sources
and is wired through ``tests/test_selflint.py`` rather than this
orchestrator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .. import obs, perf
from ..cfg.graph import ControlFlowGraph
from ..minic.symbols import FunctionSymbolTable
from .diagnostics import (
    Diagnostic,
    diagnose,
    diagnostics_payload,
    max_severity,
    render_diagnostics,
)
from .feasibility import FeasibilityResult, StaticPrefilter, analyze_feasibility
from .loopbounds import infer_loop_bounds

__all__ = [
    "Diagnostic",
    "FeasibilityResult",
    "StaticAnalysisResult",
    "StaticPrefilter",
    "analyze_feasibility",
    "diagnose",
    "diagnostics_payload",
    "infer_loop_bounds",
    "max_severity",
    "render_diagnostics",
    "run_static_analysis",
]


@dataclass
class StaticAnalysisResult:
    """Everything the static pre-analysis proved about one function."""

    feasibility: FeasibilityResult
    loop_bounds: dict[int, int]
    diagnostics: list[Diagnostic] = field(default_factory=list)
    prefilter: StaticPrefilter | None = None

    @property
    def edges_pruned(self) -> int:
        return len(self.feasibility.infeasible_edges)

    def payload(self) -> dict:
        """JSON-ready summary for reports."""
        return {
            "edges_pruned": self.edges_pruned,
            "unreachable_blocks": sorted(self.feasibility.unreachable_blocks),
            "loop_bounds_inferred": len(self.loop_bounds),
            "diagnostics": diagnostics_payload(self.diagnostics),
        }


def run_static_analysis(
    cfg: ControlFlowGraph, table: FunctionSymbolTable
) -> StaticAnalysisResult:
    """Run feasibility, loop-bound inference and diagnostics on one CFG."""
    with obs.region("sa.prefilter"):
        feasibility = analyze_feasibility(cfg, table)
        loop_bounds = infer_loop_bounds(cfg, table)
        diagnostics = diagnose(cfg, table, feasibility)
    perf.add("sa.edges_pruned", len(feasibility.infeasible_edges))
    perf.add("sa.loop_bounds_inferred", len(loop_bounds))
    perf.add("sa.diagnostics", len(diagnostics))
    return StaticAnalysisResult(
        feasibility=feasibility,
        loop_bounds=loop_bounds,
        diagnostics=diagnostics,
        prefilter=StaticPrefilter(feasibility),
    )
