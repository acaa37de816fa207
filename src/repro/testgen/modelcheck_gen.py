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
prefixes are probed once, witnesses found for one target answer sibling
targets, and every query runs under the configured
:class:`~repro.mc.query.QueryBudget` with cone-of-influence slicing.  A
target whose budget runs out is reported as
:attr:`TargetStatus.BUDGET_EXHAUSTED` -- the WCET layer keeps its
pessimistic charge instead of hanging.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from ..analysis.relevance import control_relevant_variables
from ..cfg.builder import build_cfg
from ..minic.semantic import AnalyzedProgram
from ..mc.checker import ModelChecker, ModelCheckerOptions
from ..mc.query import EngineKind, QueryBudget, QueryPlan
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


@dataclass
class ModelCheckGeneratorOptions:
    """Configuration of the model-checking generator."""

    optimizations: OptimizationConfig = field(
        default_factory=OptimizationConfig.cfg_preserving
    )
    engine: EngineKind = EngineKind.AUTO
    checker: ModelCheckerOptions | None = None
    #: step/solver-call/deadline limits of every reachability query
    budget: QueryBudget = field(default_factory=QueryBudget)
    #: per-goal cone-of-influence slicing (``--no-slicing`` disables it)
    slicing: bool = True
    #: optional sound static prefilter handed down to the query engine
    #: (see :class:`repro.sa.feasibility.StaticPrefilter`)
    prefilter: object | None = None


class ModelCheckingTestDataGenerator:
    """Generates test data for path targets via planned reachability queries."""

    def __init__(
        self,
        analyzed: AnalyzedProgram,
        function_name: str,
        options: ModelCheckGeneratorOptions | None = None,
    ):
        self._analyzed = analyzed
        self._function = function_name
        self._options = options or ModelCheckGeneratorOptions()
        self.statistics = ModelCheckGeneratorStatistics()
        self._checker: ModelChecker | None = None

    # ------------------------------------------------------------------ #
    def generate_for_target(self, target: PathTarget) -> ModelCheckOutcome:
        """Find test data forcing execution along *target* (or prove infeasibility)."""
        return self.generate_for_targets([target])[0]

    def generate_for_targets(self, targets: list[PathTarget]) -> list[ModelCheckOutcome]:
        """Answer all *targets* through one shared query plan.

        Batching is what enables the cross-target optimisations: prefix
        probes, witness reuse and the per-(slice, goal) memo all live on the
        query engine shared by the batch (and by later batches -- the
        checker persists across calls).
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
        """Planner counters (planned/sliced/cache_hits/escalations/...)."""
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
        cfg = build_cfg(self._analyzed.program.function(self._function))
        protected = control_relevant_variables(cfg)
        model = build_optimized_model(
            self._analyzed,
            self._function,
            self._options.optimizations,
            keep_variables=protected,
        )
        checker_options = self._options.checker or ModelCheckerOptions(
            engine=self._options.engine,
            budget=self._options.budget,
            slicing=self._options.slicing,
            prefilter=self._options.prefilter,
        )
        if (
            checker_options.prefilter is None
            and self._options.prefilter is not None
        ):
            from dataclasses import replace as dc_replace

            checker_options = dc_replace(
                checker_options, prefilter=self._options.prefilter
            )
        self._checker = ModelChecker(model.translation, checker_options)
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
