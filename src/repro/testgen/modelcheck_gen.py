"""Model-checking test-data generation (the paper's exact phase).

    "A method of generating test data is model checking [...].  If there
    exists a test data pattern that leads to the execution of a distinct path
    it will always be found with model checking. [...] If no data pattern is
    found for a selected path the path is deemed infeasible." (Section 3)

Since the query-engine refactor the generator builds **one** optimised
model per function (protecting the control-relevant variables computed by
:mod:`repro.analysis.relevance`, which is what the old per-target
"protected variables" re-translation guaranteed) and batches every path
target into a single :class:`~repro.mc.query.QueryPlan`: shared path
prefixes are probed once, an infeasible prefix settles every target
extending it, and every query runs under the configured
:class:`~repro.mc.query.QueryBudget` with cone-of-influence slicing.  A
target whose budget runs out is reported as
:attr:`TargetStatus.BUDGET_EXHAUSTED` -- the WCET layer keeps its
pessimistic charge instead of hanging.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..analysis.relevance import control_relevant_variables
from ..cfg.builder import build_cfg
from ..cfg.graph import ControlFlowGraph
from ..minic.semantic import AnalyzedProgram
from ..mc.checker import ModelChecker
from ..mc.query import QueryBudget, QueryEngineOptions, QueryPlan
from ..mc.result import CheckResult, CheckStatistics, Verdict
from ..optim.pipeline import OptimizationConfig, build_optimized_model
from .targets import PathTarget


class TargetStatus(enum.Enum):
    """Outcome of the model-checking attempt for one path target."""

    COVERED = "covered"
    INFEASIBLE = "infeasible"
    UNKNOWN = "unknown"
    BUDGET_EXHAUSTED = "budget-exhausted"
    #: every engine stage died on an (injected) solver fault; the target
    #: stays uncovered and its segment keeps the pessimistic static charge
    ENGINE_FAULT = "engine-fault"


@dataclass
class ModelCheckOutcome:
    """Result of one model-checking query for one target path."""

    target: PathTarget
    status: TargetStatus
    vector: dict[str, int] | None = None
    statistics: CheckStatistics | None = None


@dataclass
class ModelCheckGeneratorStatistics:
    queries: int = 0
    covered: int = 0
    infeasible: int = 0
    unknown: int = 0
    budget_exhausted: int = 0
    engine_faults: int = 0
    total_time_seconds: float = 0.0


def default_options() -> QueryEngineOptions:
    """The generator's query configuration: budgeted and sliced."""
    return QueryEngineOptions(budget=QueryBudget())


class ModelCheckingTestDataGenerator:
    """Generates test data for path targets via planned reachability queries."""

    def __init__(
        self,
        analyzed: AnalyzedProgram,
        function_name: str,
        options: QueryEngineOptions | None = None,
        cfg: ControlFlowGraph | None = None,
    ):
        """``cfg`` is the function's CFG when the caller has built it."""
        self._analyzed = analyzed
        self._function = function_name
        self._options = options or default_options()
        self._cfg = cfg
        self.statistics = ModelCheckGeneratorStatistics()
        self._checker: ModelChecker | None = None

    # ------------------------------------------------------------------ #
    def generate_for_target(self, target: PathTarget) -> ModelCheckOutcome:
        """Find test data forcing execution along *target* (or prove infeasibility)."""
        return self.generate_for_targets([target])[0]

    def generate_for_targets(self, targets: list[PathTarget]) -> list[ModelCheckOutcome]:
        """Answer all *targets* through one shared query plan.

        Batching is what enables the cross-target optimisations: prefix
        probes and infeasible-prefix subsumption live on the query engine
        shared by the batch (and by later batches -- the checker persists
        across calls).
        """
        if not targets:
            return []
        checker = self._checker_instance()
        plan = QueryPlan.build(
            [
                (target.key, checker.goal_for_edge_sequence(list(target.edges)))
                for target in targets
            ]
        )
        results = checker.run_plan(plan)
        return [self._outcome(target, results[target.key]) for target in targets]

    def query_diagnostics(self) -> dict[str, int]:
        """Planner counters (planned/sliced/prefix_hits/solver_runs/...)."""
        if self._checker is None:
            return {}
        return self._checker.query_engine.stats.as_dict()

    # ------------------------------------------------------------------ #
    def _checker_instance(self) -> ModelChecker:
        """The one checker of this generator (one optimised model, reused).

        The control-relevant variable set (backward closure over all branch
        conditions, :func:`control_relevant_variables`) is protected from
        dead-code elimination, which subsumes the old per-target
        "protected variables" guarantee: every variable any target path's
        decisions read is control-relevant by definition.
        """
        if self._checker is not None:
            return self._checker
        cfg = self._cfg
        if cfg is None:
            cfg = build_cfg(self._analyzed.program.function(self._function))
        protected = control_relevant_variables(cfg)
        # the prefilter ran the fixpoint the model's range analysis needs
        prefilter = self._options.prefilter
        model = build_optimized_model(
            self._analyzed,
            self._function,
            OptimizationConfig.cfg_preserving(),
            keep_variables=protected,
            cfg=cfg,
            feasibility=prefilter.feasibility if prefilter is not None else None,
        )
        self._checker = ModelChecker(model.translation, self._options)
        return self._checker

    def _outcome(self, target: PathTarget, result: CheckResult) -> ModelCheckOutcome:
        self.statistics.queries += 1
        self.statistics.total_time_seconds += result.statistics.time_seconds
        if result.verdict is Verdict.REACHABLE and result.counterexample is not None:
            self.statistics.covered += 1
            return ModelCheckOutcome(
                target=target,
                status=TargetStatus.COVERED,
                vector=dict(result.counterexample.inputs),
                statistics=result.statistics,
            )
        if result.verdict is Verdict.UNREACHABLE:
            self.statistics.infeasible += 1
            return ModelCheckOutcome(
                target=target, status=TargetStatus.INFEASIBLE, statistics=result.statistics
            )
        if result.verdict is Verdict.BUDGET_EXHAUSTED:
            self.statistics.budget_exhausted += 1
            return ModelCheckOutcome(
                target=target,
                status=TargetStatus.BUDGET_EXHAUSTED,
                statistics=result.statistics,
            )
        if result.verdict is Verdict.ENGINE_FAULT:
            self.statistics.engine_faults += 1
            return ModelCheckOutcome(
                target=target,
                status=TargetStatus.ENGINE_FAULT,
                statistics=result.statistics,
            )
        self.statistics.unknown += 1
        return ModelCheckOutcome(
            target=target, status=TargetStatus.UNKNOWN, statistics=result.statistics
        )
