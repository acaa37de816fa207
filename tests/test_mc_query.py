"""Tests of the unified query engine (repro.mc.query + repro.mc.slicing).

All cases are bounded (tiny models, tight budgets) and carry the ``mc``
marker; the cross-check class is the sliced-vs-unsliced soundness guarantee
the query-engine refactor rests on: identical verdicts, and every witness
found with slicing replays identically on the unstubbed interpreter.
"""

from __future__ import annotations

import time

import pytest

from repro.cfg.builder import build_cfg
from repro.cfg.graph import TerminatorKind
from repro.hw.board import EvaluationBoard
from repro.mc import (
    BudgetExhausted,
    EngineKind,
    ExplicitEngineOptions,
    GoalBuilder,
    ModelChecker,
    QueryBudget,
    QueryEngine,
    QueryEngineOptions,
    QueryPlan,
    ReachabilityGoal,
    SymbolicEngine,
    SymbolicEngineOptions,
    Verdict,
    slice_for_goal,
)
from repro.minic import parse_and_analyze
from repro.optim.pipeline import OptimizationConfig, build_optimized_model
from repro.pipeline.analyzer import AnalyzerConfig, analyze_source
from repro.testgen.hybrid import HybridOptions
from repro.transsys import translate_function
from repro.transsys.translate import TranslationOptions

pytestmark = pytest.mark.mc


GUARDED = """
#pragma input a
#pragma input b
#pragma range a 0 20
#pragma range b 0 20
int a; int b; int out;
void f(void) {
    out = 0;
    if (a > 10) {
        if (b == a - 3) {
            out = 1;
            target_hit();
        } else {
            out = 2;
        }
    } else {
        out = 3;
    }
}
"""

#: a free 16-bit variable chain: large enough that tiny budgets trip
#: mid-search, small enough that a sane budget answers instantly
SLOW = """
#pragma input x
#pragma input y
int x; int y; int acc;
void f(void) {
    acc = 0;
    if (x > 100) { acc = acc + 1; } else { acc = acc - 1; }
    if (y > 200) { acc = acc + 2; } else { acc = acc - 2; }
    if (x + y == 12345) { acc = acc + 4; } else { acc = acc - 4; }
    if (x - y == 4321) { target_hit(); }
}
"""


def translate(source: str, use_ranges: bool = True):
    analyzed = parse_and_analyze(source)
    options = TranslationOptions(
        use_declared_ranges=use_ranges, initialize_variables=use_ranges
    )
    return analyzed, translate_function(analyzed, "f", options)


def block_calling(translation, name: str) -> int:
    from repro.minic.ast_nodes import CallExpr

    for block in translation.cfg.real_blocks():
        for stmt in block.statements:
            for node in stmt.walk():
                if isinstance(node, CallExpr) and node.name == name:
                    return block.block_id
    raise AssertionError(f"no block calls {name}")


# ---------------------------------------------------------------------- #
# slicing
# ---------------------------------------------------------------------- #
class TestSlicing:
    def test_slice_drops_control_irrelevant_variables(self):
        _, translation = translate(GUARDED)
        builder = GoalBuilder(block_location=translation.block_location)
        goal = builder.reach_block(block_calling(translation, "target_hit"))
        goal_slice = slice_for_goal(translation, goal)
        # `out` feeds no branch: the slice must not materialise it
        assert "out" in goal_slice.dropped_variables
        assert {"a", "b"} <= set(goal_slice.kept_variables)
        assert goal_slice.is_proper
        assert (
            goal_slice.kept_transition_count
            < goal_slice.original_transition_count
        )
        assert (
            goal_slice.translation.system.total_state_bits()
            < translation.system.total_state_bits()
        )

    def test_slice_drops_branches_that_cannot_reach_the_goal(self):
        _, translation = translate(GUARDED)
        builder = GoalBuilder(block_location=translation.block_location)
        goal = builder.reach_block(block_calling(translation, "target_hit"))
        goal_slice = slice_for_goal(translation, goal)
        kept_labels = {
            label
            for transition in goal_slice.translation.system.transitions
            for label in transition.labels
        }
        # the else-branches (out = 2 / out = 3) cannot lead to target_hit
        all_labels = {
            label
            for transition in translation.system.transitions
            for label in transition.labels
        }
        assert kept_labels < all_labels

    def test_sliced_witness_is_completed_to_the_full_variable_set(self):
        _, translation = translate(GUARDED)
        engine = QueryEngine(translation, QueryEngineOptions(slicing=True))
        builder = GoalBuilder(block_location=translation.block_location)
        result = engine.check(
            builder.reach_block(block_calling(translation, "target_hit"))
        )
        assert result.verdict is Verdict.REACHABLE
        # even though `out` was sliced away, the witness carries every model
        # variable so the measurement layer gets a complete initial state
        assert set(result.counterexample.initial_state) == set(
            translation.system.variables
        )
        inputs = result.counterexample.inputs
        assert inputs["a"] > 10 and inputs["b"] == inputs["a"] - 3

    def test_statistics_report_full_and_sliced_model_sizes(self):
        _, translation = translate(GUARDED)
        engine = QueryEngine(translation, QueryEngineOptions(slicing=True))
        builder = GoalBuilder(block_location=translation.block_location)
        result = engine.check(
            builder.reach_block(block_calling(translation, "target_hit"))
        )
        stats = result.statistics
        assert stats.state_bits == translation.system.total_state_bits()
        assert stats.sliced_state_bits < stats.state_bits
        assert stats.sliced_transitions < stats.transitions_in_model


# ---------------------------------------------------------------------- #
# sliced vs unsliced cross-check (the refactor's soundness guarantee)
# ---------------------------------------------------------------------- #
class TestSlicedUnslicedAgree:
    """Every verdict with slicing matches the unsliced engine, and every
    sliced witness replays identically on the unstubbed interpreter."""

    def _cross_check(self, analyzed, function_name):
        model = build_optimized_model(
            analyzed, function_name, OptimizationConfig.cfg_preserving()
        )
        translation = model.translation
        board = EvaluationBoard(model.analyzed)
        builder = GoalBuilder(block_location=translation.block_location)
        sliced = QueryEngine(translation, QueryEngineOptions(slicing=True))
        unsliced = QueryEngine(translation, QueryEngineOptions(slicing=False))
        compared = 0
        for block in translation.cfg.real_blocks():
            goal = builder.reach_block(block.block_id)
            sliced_result = sliced.check(goal)
            unsliced_result = unsliced.check(goal)
            definitive = (Verdict.REACHABLE, Verdict.UNREACHABLE)
            if (
                sliced_result.verdict in definitive
                and unsliced_result.verdict in definitive
            ):
                assert sliced_result.verdict == unsliced_result.verdict, (
                    f"block {block.block_id}: sliced says "
                    f"{sliced_result.verdict}, unsliced says "
                    f"{unsliced_result.verdict}"
                )
                compared += 1
            if sliced_result.verdict is Verdict.REACHABLE:
                run = board.run(
                    function_name, dict(sliced_result.counterexample.inputs)
                )
                assert block.block_id in run.trace, (
                    f"sliced witness for block {block.block_id} does not "
                    "replay on the interpreter"
                )
        assert compared > 0

    def test_cross_check_branching_program(self, branching_program):
        self._cross_check(branching_program, "classify")

    def test_cross_check_loop_program(self, small_loop_program):
        self._cross_check(small_loop_program, "accumulate")

    def test_cross_check_wiper_case_study(self, wiper_code, wiper_function_name):
        self._cross_check(wiper_code.analyzed, wiper_function_name)

    def test_edge_sequence_goals_agree(self, branching_program):
        model = build_optimized_model(
            branching_program, "classify", OptimizationConfig.cfg_preserving()
        )
        translation = model.translation
        cfg = translation.cfg
        checker_sliced = ModelChecker(
            translation, QueryEngineOptions(slicing=True)
        )
        checker_unsliced = ModelChecker(
            translation, QueryEngineOptions(slicing=False)
        )
        board = EvaluationBoard(model.analyzed)
        for block in cfg.real_blocks():
            if block.terminator.kind is not TerminatorKind.BRANCH:
                continue
            for edge in cfg.out_edges(block):
                edges = [(edge.source, edge.target, edge.kind.value)]
                sliced_result = checker_sliced.find_test_data_for_edge_sequence(
                    edges
                )
                unsliced_result = (
                    checker_unsliced.find_test_data_for_edge_sequence(edges)
                )
                assert sliced_result.verdict == unsliced_result.verdict
                if sliced_result.verdict is Verdict.REACHABLE:
                    run = board.run(
                        "classify", dict(sliced_result.counterexample.inputs)
                    )
                    executed = run.trace
                    pairs = list(zip(executed, executed[1:]))
                    assert (edge.source, edge.target) in pairs


# ---------------------------------------------------------------------- #
# budgets
# ---------------------------------------------------------------------- #
class TestQueryBudget:
    def _engine(self, budget: QueryBudget, slicing: bool = False) -> tuple:
        # no declared ranges: 2 x 16-bit free inputs make the search space
        # big enough that tight budgets trip mid-search
        _, translation = translate(SLOW, use_ranges=False)
        engine = QueryEngine(
            translation,
            QueryEngineOptions(
                engine=EngineKind.SYMBOLIC, budget=budget, slicing=slicing
            ),
        )
        goal = ReachabilityGoal(
            target_labels=frozenset({"call:target_hit"}),
            description="reach the guarded call",
        )
        return engine, goal

    def test_deadline_hit_mid_search(self):
        engine, goal = self._engine(QueryBudget(deadline_ms=0, max_steps=None))
        result = engine.check(goal)
        assert result.verdict is Verdict.BUDGET_EXHAUSTED
        assert isinstance(result.exhaustion, BudgetExhausted)
        assert result.exhaustion.limit == "deadline"
        assert engine.stats.budget_exhausted == 1

    def test_step_cap(self):
        engine, goal = self._engine(
            QueryBudget(max_steps=2, deadline_ms=None, max_solver_calls=None)
        )
        result = engine.check(goal)
        assert result.verdict is Verdict.BUDGET_EXHAUSTED
        assert result.exhaustion.limit == "steps"
        assert result.exhaustion.spent_steps >= 2

    def test_solver_call_cap(self):
        engine, goal = self._engine(
            QueryBudget(max_steps=None, deadline_ms=None, max_solver_calls=1)
        )
        result = engine.check(goal)
        assert result.verdict is Verdict.BUDGET_EXHAUSTED
        assert result.exhaustion.limit == "solver_calls"
        assert result.exhaustion.spent_solver_calls >= 1

    def test_generous_budget_answers(self):
        engine, goal = self._engine(
            QueryBudget(max_steps=50_000, deadline_ms=60_000), slicing=True
        )
        result = engine.check(goal)
        assert result.verdict is Verdict.REACHABLE
        inputs = result.counterexample.inputs
        assert inputs["x"] - inputs["y"] == 4321

    def test_exhaustion_describes_itself(self):
        engine, goal = self._engine(QueryBudget(deadline_ms=0))
        result = engine.check(goal)
        assert "deadline" in result.exhaustion.describe()

    def test_deadline_reaches_the_solver(self):
        # one solve on this model outlasts the deadline: only a solver that
        # polls the query's remaining time stops within the budget
        engine, goal = self._engine(QueryBudget(deadline_ms=500, max_steps=None))
        started = time.perf_counter()
        result = engine.check(goal)
        elapsed = time.perf_counter() - started
        assert result.verdict is Verdict.BUDGET_EXHAUSTED
        assert result.exhaustion.limit == "deadline"
        assert elapsed < 1.0

    def test_solver_cut_off_is_not_a_proof(self):
        # the target is reachable; a witness solve stopped by the node cap
        # must leave the verdict open instead of pruning the path
        _, translation = translate(SLOW, use_ranges=False)
        goal = ReachabilityGoal(target_labels=frozenset({"call:target_hit"}))
        capped = SymbolicEngine(
            translation.system, SymbolicEngineOptions(solver_max_nodes=2)
        ).check(goal)
        assert capped.verdict is Verdict.UNKNOWN
        assert capped.statistics.stop_reason == "solver_nodes"
        roomy = SymbolicEngine(
            translation.system, SymbolicEngineOptions(solver_max_nodes=50)
        ).check(goal)
        assert roomy.verdict is Verdict.REACHABLE


# ---------------------------------------------------------------------- #
# escalation
# ---------------------------------------------------------------------- #
class TestEscalation:
    def test_explicit_escalates_to_sliced_symbolic(self):
        # ranged model: small enough for explicit, but a 1-state explicit cap
        # forces the portfolio to escalate to the sliced symbolic engine
        _, translation = translate(GUARDED)
        engine = QueryEngine(
            translation,
            QueryEngineOptions(
                engine=EngineKind.AUTO,
                slicing=True,
                explicit=ExplicitEngineOptions(max_explored_states=1),
            ),
        )
        builder = GoalBuilder(block_location=translation.block_location)
        result = engine.check(
            builder.reach_block(block_calling(translation, "target_hit"))
        )
        assert result.verdict is Verdict.REACHABLE
        assert result.statistics.engines_tried == ("explicit", "symbolic:sliced")
        assert engine.stats.solver_runs == 2

    def test_escalation_order_is_explicit_then_symbolic(self):
        # both stages search one model: the proper slice, or the full model
        # with slicing off
        _, translation = translate(GUARDED)
        for slicing, expected in (
            (True, ["explicit", "symbolic:sliced"]),
            (False, ["explicit", "symbolic:full"]),
        ):
            engine = QueryEngine(translation, QueryEngineOptions(slicing=slicing))
            builder = GoalBuilder(block_location=translation.block_location)
            goal = builder.reach_block(block_calling(translation, "target_hit"))
            goal_slice = engine._slice_for(goal)
            stages = engine._stages(goal_slice)
            assert [label for label, _ in stages] == expected
            model = goal_slice.translation if slicing else translation
            assert all(stage_model is model for _, stage_model in stages)

    def test_open_sliced_goal_does_not_escalate_to_the_full_model(self):
        # the node-capped solver leaves the sliced search open well inside
        # the step budget; the slice is verdict-exact, so the query ends
        # there instead of re-searching the full model with the rest
        _, translation = translate(SLOW, use_ranges=False)
        engine = QueryEngine(
            translation,
            QueryEngineOptions(
                engine=EngineKind.SYMBOLIC,
                budget=QueryBudget(max_steps=50, deadline_ms=None),
                slicing=True,
                symbolic=SymbolicEngineOptions(solver_max_nodes=2),
            ),
        )
        goal = ReachabilityGoal(target_labels=frozenset({"call:target_hit"}))
        result = engine.check(goal)
        assert engine.stats.sliced == 1
        assert result.verdict in (Verdict.UNKNOWN, Verdict.BUDGET_EXHAUSTED)
        assert result.statistics.engines_tried == ("symbolic:sliced",)
        assert engine.stats.solver_runs == 1

    def test_forced_explicit_does_not_escalate(self):
        _, translation = translate(GUARDED)
        engine = QueryEngine(
            translation,
            QueryEngineOptions(engine=EngineKind.EXPLICIT, slicing=True),
        )
        builder = GoalBuilder(block_location=translation.block_location)
        result = engine.check(
            builder.reach_block(block_calling(translation, "target_hit"))
        )
        assert result.verdict is Verdict.REACHABLE
        assert result.statistics.engines_tried == ("explicit",)


# ---------------------------------------------------------------------- #
# shared work: prefix subsumption and probes
# ---------------------------------------------------------------------- #
class TestSharedWork:
    def test_infeasible_prefix_subsumes_extensions(self, figure1):
        translation = translate_function(figure1, "main")
        checker = ModelChecker(translation, QueryEngineOptions(slicing=True))
        # outer if false (i != 0) then second if true (i == 0): contradictory
        assert checker.is_path_infeasible([(4, 9, "false"), (9, 10, "true")])
        engine = checker.query_engine
        before = engine.stats.prefix_hits
        # any extension of the infeasible prefix is answered without a search
        assert checker.is_path_infeasible(
            [(4, 9, "false"), (9, 10, "true"), (10, 11, "fallthrough")]
        )
        assert engine.stats.prefix_hits == before + 1

    def test_plan_inserts_probes_for_shared_prefixes(self):
        shared = ("edge:1->2:true", "edge:2->3:true")
        goals = [
            (index, ReachabilityGoal(ordered_labels=shared + (tail,)))
            for index, tail in enumerate(
                ("edge:3->4:true", "edge:3->5:false", "edge:3->6:none")
            )
        ]
        plan = QueryPlan.build(goals)
        assert plan.goal_count == 3
        assert plan.probe_count == 1
        probe = next(item for item in plan.items if item.is_probe)
        assert probe.goal.ordered_labels == shared
        # probes run before the goals they can subsume
        assert plan.items[0].is_probe

    def test_plan_without_shared_prefixes_has_no_probes(self):
        goals = [
            (0, ReachabilityGoal(ordered_labels=("edge:1->2:true",))),
            (1, ReachabilityGoal(ordered_labels=("edge:1->3:false",))),
        ]
        plan = QueryPlan.build(goals)
        assert plan.probe_count == 0


# ---------------------------------------------------------------------- #
# budget exhaustion propagation into the WCET report
# ---------------------------------------------------------------------- #
class TestWcetPropagation:
    HARD = """
    #pragma input a
    #pragma input b
    int a; int b; int out;
    void f(void) {
        out = 0;
        if (a * 181 + b * 59 == 28657) {
            if (b - a == 777) {
                out = 1;
            }
        } else {
            out = 2;
        }
    }
    """

    def _config(self, budget: QueryBudget) -> AnalyzerConfig:
        hybrid = HybridOptions(
            plateau_patterns=5,
            max_random_vectors=10,
            use_genetic=False,
            model_checking=QueryEngineOptions(budget=budget),
        )
        return AnalyzerConfig(
            path_bound=2,
            hybrid=hybrid,
            extra_random_vectors=2,
            exhaustive_limit=None,
        )

    def test_budget_exhaustion_reaches_the_report(self):
        config = self._config(
            QueryBudget(max_steps=1, max_solver_calls=1, deadline_ms=None)
        )
        report = analyze_source(self.HARD, "f", config)
        # the starved budget exhausts on the hard targets ...
        assert report.generator_statistics["model_checking_budget_exhausted"] > 0
        assert report.mc_diagnostics["budget_exhausted"] > 0
        assert report.mc_diagnostics["planned"] > 0
        # ... the analysis still terminates with a bound (pessimise, not hang)
        assert report.wcet_bound_cycles > 0
        text = report.to_text()
        diagnostics = report.mc_diagnostics
        assert (
            f"mc budget exhausted       : {diagnostics['budget_exhausted']} "
        ) in text
        assert (
            f"mc queries planned        : {diagnostics['planned']} "
            f"({diagnostics['sliced']} sliced, "
            f"{diagnostics['prefix_hits']} answered by shared work)"
        ) in text

    def test_generous_budget_reports_no_exhaustion(self):
        report = analyze_source(self.HARD, "f", self._config(QueryBudget()))
        assert report.generator_statistics["model_checking_budget_exhausted"] == 0
        assert "mc budget exhausted" not in report.to_text()
