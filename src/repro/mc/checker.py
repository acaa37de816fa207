"""Model-checker facade.

:class:`ModelChecker` is what the rest of the tool chain talks to: a thin
facade over :class:`repro.mc.query.QueryEngine`, configured by the same
:class:`~repro.mc.query.QueryEngineOptions`.  Every check -- the two
queries test-data generation needs ("give me test data reaching this
block" / "drive execution along this exact edge sequence"), whole
:class:`~repro.mc.query.QueryPlan` batches, and the raw :meth:`check` entry
point used by the Table 2 benchmark -- runs through the query engine's one
path: static prefilter, persistent store, prefix subsumption, then the
budgeted explicit -> symbolic portfolio.

Without options the facade keeps the historical full-model behaviour (no
slicing, no external budget) so the paper-reproduction benchmarks stay
comparable; the test-data generation layer turns slicing and budgets on.
"""

from __future__ import annotations

from ..transsys.translate import TranslationResult, edge_label
from .property import GoalBuilder, ReachabilityGoal
from .query import QueryEngine, QueryEngineOptions, QueryPlan
from .result import CheckResult, Verdict


class ModelChecker:
    """Reachability checking against one translated function."""

    def __init__(
        self, translation: TranslationResult, options: QueryEngineOptions | None = None
    ):
        self._translation = translation
        self._goal_builder = GoalBuilder(block_location=translation.block_location)
        self._engine = QueryEngine(
            translation, options or QueryEngineOptions(slicing=False)
        )

    # ------------------------------------------------------------------ #
    @property
    def system(self):
        return self._translation.system

    @property
    def query_engine(self) -> QueryEngine:
        """The underlying planner (budget and slice statistics live here)."""
        return self._engine

    def check(self, goal: ReachabilityGoal) -> CheckResult:
        """Run the budgeted engine portfolio on *goal*."""
        return self._engine.check(goal)

    def run_plan(self, plan: QueryPlan) -> dict[object, CheckResult]:
        """Execute a whole query plan (infeasible shared prefixes reused)."""
        return self._engine.run_plan(plan)

    # ------------------------------------------------------------------ #
    # the two queries test-data generation needs
    # ------------------------------------------------------------------ #
    def find_test_data_for_block(self, block_id: int) -> CheckResult:
        """Test data that makes execution reach the given CFG block."""
        return self.check(self._goal_builder.reach_block(block_id))

    def goal_for_edge_sequence(
        self, edges: list[tuple[int, int, str]]
    ) -> ReachabilityGoal:
        """The path-precise goal for a CFG edge sequence.

        ``edges`` are ``(source block, target block, edge kind value)``
        triples as produced by :mod:`repro.cfg`.
        """
        from ..cfg.graph import EdgeKind

        labels = [
            edge_label(source, target, EdgeKind(kind)) for source, target, kind in edges
        ]
        return self._goal_builder.follow_edges(labels)

    def find_test_data_for_edge_sequence(
        self, edges: list[tuple[int, int, str]]
    ) -> CheckResult:
        """Test data that drives execution along the given CFG edges in order."""
        return self.check(self.goal_for_edge_sequence(edges))

    def is_path_infeasible(self, edges: list[tuple[int, int, str]]) -> bool:
        """True when the engine *proved* that no input follows this path.

        "If no data pattern is found for a selected path the path is deemed
        infeasible." (Section 3) -- only a completed, exhaustive search counts
        as proof; an exhausted budget keeps the path in the unknown bucket.
        """
        result = self.find_test_data_for_edge_sequence(edges)
        return result.verdict is Verdict.UNREACHABLE
