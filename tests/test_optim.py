"""Tests of the six state-space optimisations and the optimisation pipeline."""

from __future__ import annotations

import copy
import itertools

import pytest

from repro.analysis.relevance import control_relevant_variables
from repro.cfg import build_cfg
from repro.hw import Interpreter
from repro.mc import EngineKind, ModelChecker, QueryEngineOptions, Verdict
from repro.minic import parse_and_analyze, print_program
from repro.optim import (
    ConcatenationReport,
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
from repro.optim import pipeline
from repro.optim.statement_concat import _independent
from repro.testgen.inputs import InputSpace
from repro.transsys import Transition, translate_function
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


def reference_concatenation(system):
    """The rescan-after-every-fusion concatenation the one-pass version replaced."""
    report = ConcatenationReport(transitions_before=len(system.transitions))
    changed = True
    while changed:
        changed = False
        incoming: dict[int, list[Transition]] = {}
        outgoing: dict[int, list[Transition]] = {}
        for transition in system.transitions:
            outgoing.setdefault(transition.source, []).append(transition)
            incoming.setdefault(transition.target, []).append(transition)
        protected = {system.initial_location} | set(system.final_locations)
        for first in list(system.transitions):
            middle = first.target
            if middle in protected:
                continue
            if len(incoming.get(middle, ())) != 1 or len(outgoing.get(middle, ())) != 1:
                continue
            second = outgoing[middle][0]
            if second.source == second.target or first.source == middle:
                continue
            if first.guard is not None or second.guard is not None:
                continue
            if not _independent(first, second):
                continue
            fused = Transition(
                source=first.source,
                target=second.target,
                guard=None,
                updates=list(first.updates) + list(second.updates),
                labels=tuple(dict.fromkeys(first.labels + second.labels)),
                statement_count=first.statement_count + second.statement_count,
            )
            system.transitions.remove(first)
            system.transitions.remove(second)
            system.transitions.append(fused)
            report.fusions += 1
            changed = True
            break
    report.transitions_after = len(system.transitions)
    system.annotations.append(
        f"statement concatenation: {report.transitions_before} -> "
        f"{report.transitions_after} transitions"
    )
    return system, report


def _system_image(system) -> tuple:
    return (
        [
            (t.source, t.target, t.guard, t.updates, t.labels, t.statement_count, t.describe())
            for t in system.transitions
        ],
        list(system.annotations),
    )


class TestStatementConcatenationIdentity:
    """The one-pass concatenation against the rescanning reference, on the
    models the model checker builds for the pinned programs and on every
    Table 2 configuration."""

    @pytest.fixture()
    def compared(self, monkeypatch):
        compared: list[int] = []
        one_pass = pipeline.apply_statement_concatenation

        def compare(system):
            reference = copy.deepcopy(system)
            _, expected = reference_concatenation(reference)
            result = one_pass(system)
            assert result[1] == expected
            assert _system_image(system) == _system_image(reference)
            compared.append(expected.fusions)
            return result

        monkeypatch.setattr(pipeline, "apply_statement_concatenation", compare)
        return compared

    def test_table2_configurations(self, compared, eval_program, eval_function_name):
        for _, config in TABLE2_CONFIGURATIONS:
            build_optimized_model(eval_program, eval_function_name, config)
        assert len(compared) == 2 and min(compared) > 0

    def test_pinned_program_models(self, compared):
        from repro.workloads.multi import generate_call_chain_workload
        from repro.workloads.targetlink import generate_small_application
        from repro.workloads.wiper import wiper_case_study

        programs = [
            parse_and_analyze(source)
            for source in generate_call_chain_workload(2005).sources.values()
        ]
        programs.append(wiper_case_study().analyzed)
        programs.extend(
            generate_small_application(seed=seed).analyzed for seed in (11, 2, 5)
        )
        for analyzed in programs:
            for function in analyzed.program.functions:
                cfg = build_cfg(function)
                build_optimized_model(
                    analyzed,
                    function.name,
                    OptimizationConfig.cfg_preserving(),
                    keep_variables=control_relevant_variables(cfg),
                )
        assert len(compared) > 10 and sum(compared) > 100


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
        assert target in run.trace

    def test_describe_and_notes(self, eval_program, eval_function_name):
        model = build_optimized_model(
            eval_program, eval_function_name, OptimizationConfig.all()
        )
        assert model.config.describe() != "unoptimised"
        assert model.notes
        summary = model.summary()
        assert summary["configuration"] == model.config.describe()

    def test_unoptimised_bits_are_translated_only_on_demand(
        self, eval_program, eval_function_name, monkeypatch
    ):
        baseline = translate_function(eval_program, eval_function_name)
        expected = baseline.system.total_state_bits()
        translations: list[str] = []
        translate = pipeline.translate_function

        def counting(*args, **kwargs):
            translations.append(args[1])
            return translate(*args, **kwargs)

        monkeypatch.setattr(pipeline, "translate_function", counting)
        for name, config in TABLE2_CONFIGURATIONS:
            translations.clear()
            model = build_optimized_model(eval_program, eval_function_name, config)
            assert len(translations) == 1, name
            assert model.unoptimized_state_bits == expected, name
            assert model.unoptimized_state_bits == expected, name
            assert len(translations) == 2, name

    def test_unknown_single_optimisation_raises(self):
        with pytest.raises(ValueError):
            OptimizationConfig.only("turbo_mode")



WRAPPING_STORE = """
#pragma input a
#pragma range a 100 200
UInt8 a; Int8 t; int r;
void f(void) {
    t = a;
    if (t < 0) { r = 1; } else { r = 2; }
}
"""

CONDITION_STORE = """
#pragma input a
#pragma range a 100 200
UInt8 a; Int8 u; int r;
void f(void) {
    if ((u = a) < 0) { r = 1; } else { r = 2; }
}
"""

CALLEE_STORE = """
#pragma input a
#pragma range a 0 3
UInt8 a; Int8 g; int r;
void set_g(void) { g = 0 - 5; }
void f(void) {
    g = 1;
    if (a > 1) { set_g(); }
    if (g < 0) { r = 1; } else { r = 2; }
}
"""


ANY_START = """
#pragma input a
#pragma range a 0 3
int a; int g = 0; int r;
void f(void) {
    if (g > 5) { r = 7; } else { r = a; }
}
"""


class TestVariableRangeSoundness:
    """Every value the board stores fits the model domain of its variable.

    The variable range analysis (Section 3.2.4) shrinks each state variable
    of the cfg-preserving model to the hull of the values it can hold; a
    domain that misses a value the board produces makes the model checker
    reason about a different program.  Each program runs on every input of
    its space.  Call-chain functions are left out: the board's final
    environment is flat, so a callee's local shadows a caller's variable of
    the same name.
    """

    @staticmethod
    def runs_with_final_values_in_domains(
        analyzed, function_name: str, modelled: frozenset[str] = frozenset()
    ) -> int:
        """Run every input; *modelled* is kept out of dead-variable elimination."""
        model = build_optimized_model(
            analyzed,
            function_name,
            OptimizationConfig.cfg_preserving(),
            keep_variables=modelled,
        )
        domains = {name: var.domain for name, var in model.system.variables.items()}
        assert modelled <= set(domains)
        ranges = InputSpace.from_program(analyzed, function_name).ranges()
        board = Interpreter(analyzed)
        runs = 0
        for values in itertools.product(
            *(range(rng.lo, rng.hi + 1) for rng in ranges.values())
        ):
            inputs = dict(zip(ranges, values))
            final = board.run(function_name, inputs).final_environment
            for name, domain in domains.items():
                assert final[name] in domain, (name, final[name], domain, inputs)
            runs += 1
        return runs

    def test_store_that_wraps_at_the_variable_type(self):
        # the board stores -128..-56 into t for a in 128..200
        analyzed = parse_and_analyze(WRAPPING_STORE)
        runs = self.runs_with_final_values_in_domains(analyzed, "f", frozenset({"t"}))
        assert runs == 101

    def test_store_inside_a_branch_condition(self):
        analyzed = parse_and_analyze(CONDITION_STORE)
        runs = self.runs_with_final_values_in_domains(analyzed, "f", frozenset({"u"}))
        assert runs == 101

    def test_global_written_by_a_callee(self):
        analyzed = parse_and_analyze(CALLEE_STORE)
        runs = self.runs_with_final_values_in_domains(analyzed, "f", frozenset({"g"}))
        assert runs == 4

    def test_uninitialised_model_lets_globals_start_anywhere(self):
        # g starts at 0 on the board and in the initialised model, so r = 7
        # never runs there; a model without variable initialisation starts
        # g anywhere, so r's domain must hold 7
        analyzed = parse_and_analyze(ANY_START)
        domains = {
            config.variable_initialisation: build_optimized_model(
                analyzed, "f", config, keep_variables=frozenset({"r"})
            ).system.variables["r"].domain
            for config in (
                OptimizationConfig.only("variable_range_analysis"),
                OptimizationConfig.cfg_preserving(),
            )
        }
        assert 7 in domains[False]
        assert 7 not in domains[True]

    def test_wiper_on_its_whole_input_space(self, wiper_code, wiper_function_name):
        runs = self.runs_with_final_values_in_domains(
            wiper_code.analyzed, wiper_function_name
        )
        assert runs == 108
