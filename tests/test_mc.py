"""Tests of the model-checking engines (explicit and symbolic)."""

from __future__ import annotations

import pytest

from repro.mc import (
    EngineKind,
    ExplicitEngineOptions,
    ExplicitStateEngine,
    ModelChecker,
    QueryEngineOptions,
    ReachabilityGoal,
    StateSpaceTooLarge,
    SymbolicEngine,
    SymbolicEngineOptions,
    Verdict,
)
from repro.minic import parse_and_analyze
from repro.transsys import TranslationOptions, translate_function
from repro.transsys.translate import block_label


#: the symbolic engine on the full model (no slicing, no budget)
FULL_SYMBOLIC = QueryEngineOptions(engine=EngineKind.SYMBOLIC, slicing=False)


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


def make_checker(source: str, engine: EngineKind, use_ranges: bool = True):
    """Translate and wrap in a checker.

    Declared input ranges and concrete initial values for the non-input
    variables keep the initial state space small enough for the explicit
    engine (the same combination of optimisations the paper needs before
    explicit techniques become possible at all).
    """
    analyzed = parse_and_analyze(source)
    options = TranslationOptions(
        use_declared_ranges=use_ranges, initialize_variables=use_ranges
    )
    translation = translate_function(analyzed, "f", options)
    return translation, ModelChecker(
        translation, QueryEngineOptions(engine=engine, slicing=False)
    )


def block_calling(translation, name: str) -> int:
    from repro.minic.ast_nodes import CallExpr

    for block in translation.cfg.real_blocks():
        for stmt in block.statements:
            for node in stmt.walk():
                if isinstance(node, CallExpr) and node.name == name:
                    return block.block_id
    raise AssertionError(f"no block calls {name}")


class TestGoals:
    def test_goal_requires_a_target(self):
        with pytest.raises(ValueError):
            ReachabilityGoal()

    def test_ordered_labels_progress(self):
        from repro.transsys.system import Transition

        goal = ReachabilityGoal(ordered_labels=("x", "y"))
        transition = Transition(source=0, target=1, labels=("x",))
        assert goal.progress_after(transition, 0) == 1
        assert goal.progress_after(transition, 1) == 1  # 'y' not present

    def test_fused_transition_advances_multiple_labels(self):
        from repro.transsys.system import Transition

        goal = ReachabilityGoal(ordered_labels=("x", "y"))
        fused = Transition(source=0, target=1, labels=("x", "y"))
        assert goal.progress_after(fused, 0) == 2
        assert goal.satisfied(1, fused, 2)


@pytest.mark.parametrize("engine", [EngineKind.EXPLICIT, EngineKind.SYMBOLIC])
class TestEnginesAgree:
    def test_reachable_goal_produces_valid_inputs(self, engine):
        translation, checker = make_checker(GUARDED, engine)
        target = block_calling(translation, "target_hit")
        result = checker.find_test_data_for_block(target)
        assert result.verdict is Verdict.REACHABLE
        inputs = result.counterexample.inputs
        assert inputs["a"] > 10 and inputs["b"] == inputs["a"] - 3

    def test_unreachable_goal_proven(self, engine):
        source = GUARDED.replace("if (b == a - 3)", "if (b == a + 30)")
        translation, checker = make_checker(source, engine)
        target = block_calling(translation, "target_hit")
        result = checker.find_test_data_for_block(target)
        assert result.verdict is Verdict.UNREACHABLE

    def test_edge_sequence_goal(self, engine):
        translation, checker = make_checker(GUARDED, engine)
        cfg = translation.cfg
        # follow: outer if TRUE edge then inner if FALSE edge -> out = 2
        from repro.cfg.graph import EdgeKind, TerminatorKind

        branch_blocks = [
            b for b in cfg.real_blocks() if b.terminator.kind is TerminatorKind.BRANCH
        ]
        outer = min(branch_blocks, key=lambda b: b.block_id)
        inner = sorted(branch_blocks, key=lambda b: b.block_id)[1]
        outer_true = next(e for e in cfg.out_edges(outer) if e.kind is EdgeKind.TRUE)
        inner_false = next(e for e in cfg.out_edges(inner) if e.kind is EdgeKind.FALSE)
        edges = [
            (outer_true.source, outer_true.target, "true"),
            (inner_false.source, inner_false.target, "false"),
        ]
        result = checker.find_test_data_for_edge_sequence(edges)
        assert result.verdict is Verdict.REACHABLE
        inputs = result.counterexample.inputs
        assert inputs["a"] > 10 and inputs["b"] != inputs["a"] - 3

    def test_counterexample_steps_positive(self, engine):
        translation, checker = make_checker(GUARDED, engine)
        target = block_calling(translation, "target_hit")
        result = checker.find_test_data_for_block(target)
        assert result.counterexample.steps == result.statistics.steps > 0

    def test_statistics_populated(self, engine):
        translation, checker = make_checker(GUARDED, engine)
        target = block_calling(translation, "target_hit")
        result = checker.find_test_data_for_block(target)
        stats = result.statistics
        assert stats.time_seconds >= 0.0
        assert stats.memory_bytes > 0
        assert stats.state_bits == translation.system.total_state_bits()


class TestExplicitEngineSpecifics:
    def test_refuses_huge_initial_state_space(self):
        translation, _ = make_checker(GUARDED, EngineKind.EXPLICIT, use_ranges=False)
        engine = ExplicitStateEngine(
            translation.system, ExplicitEngineOptions(max_initial_states=1000)
        )
        goal = ReachabilityGoal(target_labels=frozenset({block_label(2)}))
        with pytest.raises(StateSpaceTooLarge):
            engine.check(goal)

    def test_counterexample_is_shortest(self):
        translation, checker = make_checker(GUARDED, EngineKind.EXPLICIT)
        target = block_calling(translation, "target_hit")
        explicit = checker.find_test_data_for_block(target)
        symbolic_checker = ModelChecker(translation, FULL_SYMBOLIC)
        symbolic = symbolic_checker.find_test_data_for_block(target)
        assert explicit.statistics.steps <= symbolic.statistics.steps


class TestSymbolicEngineSpecifics:
    def test_handles_16_bit_free_variables(self):
        # without declared ranges the initial state space is 2^48 -- explicit
        # enumeration is impossible but the symbolic engine answers quickly
        translation, checker = make_checker(GUARDED, EngineKind.SYMBOLIC, use_ranges=False)
        target = block_calling(translation, "target_hit")
        result = checker.find_test_data_for_block(target)
        assert result.verdict is Verdict.REACHABLE

    def test_unknown_verdict_when_budget_too_small(self):
        translation, _ = make_checker(GUARDED, EngineKind.SYMBOLIC)
        engine = SymbolicEngine(
            translation.system, SymbolicEngineOptions(max_depth=1, max_paths=2)
        )
        goal = ReachabilityGoal(
            target_labels=frozenset({"call:target_hit"}), description="tiny budget"
        )
        result = engine.check(goal)
        assert result.verdict in (Verdict.UNKNOWN, Verdict.REACHABLE)

    def test_auto_engine_selection(self):
        translation, checker = make_checker(GUARDED, EngineKind.AUTO)
        target = block_calling(translation, "target_hit")
        result = checker.find_test_data_for_block(target)
        assert result.verdict is Verdict.REACHABLE

    def test_infeasible_path_detection(self, figure1):
        translation = translate_function(figure1, "main")
        checker = ModelChecker(translation, FULL_SYMBOLIC)
        # outer if false (i != 0) then second if true (i == 0): contradictory
        assert checker.is_path_infeasible([(4, 9, "false"), (9, 10, "true")])
        assert not checker.is_path_infeasible([(4, 9, "false"), (9, 12, "false")])

    def test_witness_respects_input_domains(self):
        translation, checker = make_checker(GUARDED, EngineKind.SYMBOLIC)
        target = block_calling(translation, "target_hit")
        result = checker.find_test_data_for_block(target)
        for name, value in result.counterexample.inputs.items():
            domain = translation.system.variables[name].domain
            assert domain.lo <= value <= domain.hi
