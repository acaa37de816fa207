"""Tests of the six state-space optimisations and the optimisation pipeline."""

from __future__ import annotations

import pytest

from repro.cfg import build_cfg
from repro.mc import EngineKind, ModelChecker, QueryEngineOptions, Verdict
from repro.minic import parse_and_analyze, print_program
from repro.optim import (
    OptimizationConfig,
    TABLE2_CONFIGURATIONS,
    apply_dead_code_elimination,
    apply_live_variable_optimisation,
    apply_reverse_cse,
    apply_statement_concatenation,
    build_optimized_model,
    dead_variable_set,
    find_substitutable_temporaries,
)
from repro.transsys import translate_function
from repro.workloads.optimisation_eval import (
    CONTROL_FLOW_IRRELEVANT,
    EVAL_FUNCTION_NAME,
    REVERSE_CSE_CANDIDATES,
    UNUSED_VARIABLES,
    find_target_block,
)


#: the symbolic engine on the full model (no slicing, no budget)
FULL_SYMBOLIC = QueryEngineOptions(engine=EngineKind.SYMBOLIC, slicing=False)


CSE_SOURCE = """
#pragma input u
#pragma range u 0 50
int u; int out;
void f(void) {
    int tmp;
    int twice;
    tmp = u + 1;
    twice = tmp + tmp;
    if (twice > 40) {
        out = 1;
    } else {
        out = 0;
    }
}
"""


class TestReverseCse:
    def test_candidates_found(self):
        analyzed = parse_and_analyze(CSE_SOURCE)
        function = analyzed.program.function("f")
        substitution, report = find_substitutable_temporaries(function, analyzed.table("f"))
        assert set(substitution) == {"tmp", "twice"}
        assert set(report.substituted) == {"tmp", "twice"}

    def test_chained_substitution_resolved(self):
        analyzed = parse_and_analyze(CSE_SOURCE)
        function = analyzed.program.function("f")
        substitution, _ = find_substitutable_temporaries(function, analyzed.table("f"))
        from repro.minic.folding import expression_variables

        assert expression_variables(substitution["twice"]) == {"u"}

    def test_multiply_assigned_variable_rejected(self):
        source = CSE_SOURCE.replace("twice = tmp + tmp;", "twice = tmp + tmp; tmp = 0;")
        analyzed = parse_and_analyze(source)
        substitution, report = find_substitutable_temporaries(
            analyzed.program.function("f"), analyzed.table("f")
        )
        assert "tmp" not in substitution
        assert "tmp" in report.rejected

    def test_transformed_function_drops_temporaries(self):
        analyzed = parse_and_analyze(CSE_SOURCE)
        new_function, _ = apply_reverse_cse(
            analyzed.program.function("f"), analyzed.table("f")
        )
        from repro.minic.ast_nodes import DeclStmt

        names = [n.name for n in new_function.walk() if isinstance(n, DeclStmt)]
        assert "tmp" not in names and "twice" not in names

    def test_transformed_program_is_semantically_equivalent(self):
        analyzed = parse_and_analyze(CSE_SOURCE)
        new_function, _ = apply_reverse_cse(
            analyzed.program.function("f"), analyzed.table("f")
        )
        from dataclasses import replace as dc_replace

        new_program = dc_replace(analyzed.program, functions=[new_function])
        new_analyzed = parse_and_analyze(print_program(new_program))
        from repro.hw import EvaluationBoard

        original_board = EvaluationBoard(analyzed)
        transformed_board = EvaluationBoard(new_analyzed)
        for u in (0, 19, 20, 25, 50):
            original = original_board.run("f", {"u": u}).final_environment["out"]
            transformed = transformed_board.run("f", {"u": u}).final_environment["out"]
            assert original == transformed

    def test_eval_program_candidates_match_paper(self, eval_program, eval_function_name):
        function = eval_program.program.function(eval_function_name)
        substitution, _ = find_substitutable_temporaries(
            function, eval_program.table(eval_function_name)
        )
        assert set(REVERSE_CSE_CANDIDATES) <= set(substitution)


class TestLiveVariable:
    def test_unused_variables_removed(self, eval_program, eval_function_name):
        function = eval_program.program.function(eval_function_name)
        new_function, report = apply_live_variable_optimisation(
            function, eval_program.table(eval_function_name)
        )
        assert set(UNUSED_VARIABLES) <= set(report.removed_unused)
        from repro.minic.ast_nodes import DeclStmt

        names = {n.name for n in new_function.walk() if isinstance(n, DeclStmt)}
        assert not (set(UNUSED_VARIABLES) & names)

    def test_merged_variables_do_not_interfere(self):
        source = """
        #pragma input u
        int u; int out;
        void f(void) {
            int first; int second;
            first = u + 1;
            out = first;
            second = u + 2;
            out = out + second;
        }
        """
        analyzed = parse_and_analyze(source)
        _, report = apply_live_variable_optimisation(
            analyzed.program.function("f"), analyzed.table("f")
        )
        assert report.merged  # first/second share a location

    def test_transformation_preserves_behaviour(self):
        source = """
        #pragma input u
        #pragma range u 0 9
        int u; int out;
        void f(void) {
            int first; int second; int unused_one;
            first = u * 2;
            out = first + 1;
            second = u + 7;
            out = out + second;
        }
        """
        analyzed = parse_and_analyze(source)
        new_function, _ = apply_live_variable_optimisation(
            analyzed.program.function("f"), analyzed.table("f")
        )
        from dataclasses import replace as dc_replace

        from repro.hw import EvaluationBoard

        new_analyzed = parse_and_analyze(
            print_program(dc_replace(analyzed.program, functions=[new_function]))
        )
        for u in range(10):
            before = EvaluationBoard(analyzed).run("f", {"u": u}).final_environment["out"]
            after = EvaluationBoard(new_analyzed).run("f", {"u": u}).final_environment["out"]
            assert before == after


class TestDeadElimination:
    def test_dead_variable_set_matches_paper_inventory(self, eval_program, eval_function_name):
        function = eval_program.program.function(eval_function_name)
        eliminated, _ = dead_variable_set(function, eval_program.table(eval_function_name))
        assert set(CONTROL_FLOW_IRRELEVANT) <= eliminated

    def test_inputs_never_eliminated(self, eval_program, eval_function_name):
        function = eval_program.program.function(eval_function_name)
        eliminated, _ = dead_variable_set(function, eval_program.table(eval_function_name))
        assert not ({"sensor_temp", "sensor_rpm", "sensor_load"} & eliminated)

    def test_keep_set_respected(self, eval_program, eval_function_name):
        function = eval_program.program.function(eval_function_name)
        eliminated, _ = dead_variable_set(
            function, eval_program.table(eval_function_name),
            keep=frozenset({"counter_x"}),
        )
        assert "counter_x" not in eliminated

    def test_dead_code_elimination_removes_statements(self, eval_program, eval_function_name):
        function = eval_program.program.function(eval_function_name)
        new_function, report = apply_dead_code_elimination(
            function, eval_program.table(eval_function_name)
        )
        assert report.removed_statements > 0
        before = sum(1 for _ in function.walk())
        after = sum(1 for _ in new_function.walk())
        assert after < before


class TestStatementConcatenation:
    def test_reduces_transition_count(self, eval_program, eval_function_name):
        translation = translate_function(eval_program, eval_function_name)
        before = len(translation.system.transitions)
        _, report = apply_statement_concatenation(translation.system)
        assert report.transitions_after < before
        assert report.fusions > 0

    def test_does_not_fuse_guarded_transitions(self, eval_program, eval_function_name):
        translation = translate_function(eval_program, eval_function_name)
        guarded_before = sum(1 for t in translation.system.transitions if t.guard is not None)
        apply_statement_concatenation(translation.system)
        guarded_after = sum(1 for t in translation.system.transitions if t.guard is not None)
        assert guarded_before == guarded_after

    def test_fused_updates_preserve_reachability(self, eval_program, eval_function_name):
        cfg = build_cfg(eval_program.program.function(eval_function_name))
        target = find_target_block(cfg)
        plain = translate_function(eval_program, eval_function_name)
        fused = translate_function(eval_program, eval_function_name)
        apply_statement_concatenation(fused.system)
        for translation in (plain, fused):
            checker = ModelChecker(translation, FULL_SYMBOLIC)
            result = checker.find_test_data_for_block(target)
            assert result.verdict is Verdict.REACHABLE
        # and the fused model needs fewer steps
        plain_steps = (
            ModelChecker(plain, FULL_SYMBOLIC)
            .find_test_data_for_block(target)
            .statistics.steps
        )
        fused_steps = (
            ModelChecker(fused, FULL_SYMBOLIC)
            .find_test_data_for_block(target)
            .statistics.steps
        )
        assert fused_steps < plain_steps


class TestOptimizationPipeline:
    def test_configurations_list_matches_table2(self):
        names = [name for name, _ in TABLE2_CONFIGURATIONS]
        assert names[0] == "unoptimized"
        assert "all optimisations used" in names
        assert len(names) == 8

    def test_all_optimisations_shrink_state_bits(self, eval_program, eval_function_name):
        unopt = build_optimized_model(
            eval_program, eval_function_name, OptimizationConfig.none()
        )
        optimised = build_optimized_model(
            eval_program, eval_function_name, OptimizationConfig.all()
        )
        assert optimised.state_bits < unopt.state_bits / 2

    @pytest.mark.parametrize("name,config", TABLE2_CONFIGURATIONS[2:])
    def test_each_single_optimisation_never_increases_state_bits(
        self, eval_program, eval_function_name, name, config
    ):
        unopt = build_optimized_model(
            eval_program, eval_function_name, OptimizationConfig.none()
        )
        single = build_optimized_model(eval_program, eval_function_name, config)
        assert single.state_bits <= unopt.state_bits, name

    def test_every_configuration_reaches_the_target(self, eval_program, eval_function_name):
        for name, config in TABLE2_CONFIGURATIONS:
            model = build_optimized_model(eval_program, eval_function_name, config)
            target = find_target_block(model.translation.cfg)
            checker = ModelChecker(model.translation, FULL_SYMBOLIC)
            result = checker.find_test_data_for_block(target)
            assert result.verdict is Verdict.REACHABLE, name

    def test_witnesses_agree_with_concrete_execution(self, eval_program, eval_function_name):
        """Test data from the optimised model drives the real program to the target."""
        from repro.hw import EvaluationBoard

        model = build_optimized_model(
            eval_program, eval_function_name, OptimizationConfig.cfg_preserving()
        )
        target = find_target_block(model.translation.cfg)
        checker = ModelChecker(model.translation, FULL_SYMBOLIC)
        result = checker.find_test_data_for_block(target)
        assert result.verdict is Verdict.REACHABLE
        board = EvaluationBoard(eval_program)
        run = board.run(eval_function_name, result.counterexample.inputs)
        assert target in run.executed_blocks

    def test_describe_and_notes(self, eval_program, eval_function_name):
        model = build_optimized_model(
            eval_program, eval_function_name, OptimizationConfig.all()
        )
        assert model.config.describe() != "unoptimised"
        assert model.notes
        summary = model.summary()
        assert summary["configuration"] == model.config.describe()

    def test_unknown_single_optimisation_raises(self):
        with pytest.raises(ValueError):
            OptimizationConfig.only("turbo_mode")
