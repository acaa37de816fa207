"""Tests of the Stateflow/TargetLink code generator and the workload programs."""

from __future__ import annotations

import pytest

from repro.cfg import TerminatorKind, build_cfg, count_ast_paths
from repro.codegen import (
    ChartError,
    ChartVariable,
    StateflowChart,
    generate_chart_code,
)
from repro.hw import EvaluationBoard
from repro.minic.types import BOOL, IntRange, UINT8
from repro.workloads.figure1 import (
    EXPECTED_BASIC_BLOCKS,
    EXPECTED_TOTAL_PATHS,
    figure1_analyzed,
)
from repro.workloads.optimisation_eval import (
    BOOLEAN_VARIABLES,
    BYTE_VARIABLES,
    EVAL_FUNCTION_NAME,
    find_target_block,
    optimisation_eval_program,
    source_line_count,
)
from repro.workloads.targetlink import generate_small_application
from repro.workloads.wiper import (
    WIPER_FUNCTION_NAME,
    WIPER_STATES,
    wiper_chart,
    wiper_input_ranges,
)


def tiny_chart() -> StateflowChart:
    chart = StateflowChart(name="toggle", state_variable="mode")
    chart.inputs = [ChartVariable("button", BOOL, IntRange(0, 1))]
    chart.outputs = [ChartVariable("lamp", BOOL, IntRange(0, 1))]
    chart.add_state("Off", entry_actions=["lamp = 0"])
    chart.add_state("On", entry_actions=["lamp = 1"])
    chart.add_transition("Off", "On", "button == 1")
    chart.add_transition("On", "Off", "button == 1")
    return chart


class TestChartModel:
    def test_validation_passes_for_well_formed_chart(self):
        tiny_chart().validate()

    def test_duplicate_state_rejected(self):
        chart = tiny_chart()
        with pytest.raises(ChartError):
            chart.add_state("Off")

    def test_transition_to_unknown_state_rejected(self):
        chart = tiny_chart()
        chart.add_transition("On", "Missing", "1")
        with pytest.raises(ChartError):
            chart.validate()

    def test_unreachable_state_rejected(self):
        chart = tiny_chart()
        chart.add_state("Orphan")
        with pytest.raises(ChartError):
            chart.validate()

    def test_empty_chart_rejected(self):
        with pytest.raises(ChartError):
            StateflowChart(name="empty").validate()

    def test_block_count_metric(self):
        assert tiny_chart().block_count() > 4

    def test_state_range_and_type(self):
        chart = tiny_chart()
        assert chart.state_range() == IntRange(0, 1)
        assert chart.state_variable_type() is UINT8


class TestCodeGeneration:
    def test_generated_code_parses_and_analyses(self):
        code = generate_chart_code(tiny_chart(), "toggle_step")
        assert code.function_name == "toggle_step"
        assert "toggle_step" in [f.name for f in code.program.functions]

    def test_generated_structure_is_switch_of_ifs(self):
        code = generate_chart_code(tiny_chart(), "toggle_step")
        cfg = build_cfg(code.program.function("toggle_step"))
        kinds = {b.terminator.kind for b in cfg.real_blocks()}
        assert TerminatorKind.SWITCH in kinds
        assert TerminatorKind.BRANCH in kinds

    def test_generated_chart_semantics(self):
        code = generate_chart_code(tiny_chart(), "toggle_step")
        board = EvaluationBoard(code.analyzed)
        # pressing the button in state Off moves to On and switches the lamp on
        run = board.run("toggle_step", {"button": 1, "mode": 0})
        assert run.final_environment["mode"] == 1
        assert run.final_environment["lamp"] == 1
        # not pressing it keeps the state
        run = board.run("toggle_step", {"button": 0, "mode": 0})
        assert run.final_environment["mode"] == 0

    def test_state_variable_annotated_as_input(self):
        code = generate_chart_code(tiny_chart(), "toggle_step")
        assert "mode" in code.program.input_variables
        assert "button" in code.program.input_variables


class TestWiperCaseStudy:
    def test_chart_has_nine_states(self):
        chart = wiper_chart()
        assert len(chart.states) == 9
        assert tuple(s.name for s in chart.states) == WIPER_STATES

    def test_chart_is_about_seventy_blocks(self):
        assert 55 <= wiper_chart().block_count() <= 95

    def test_input_space_is_exhaustively_measurable(self):
        ranges = wiper_input_ranges()
        size = 1
        for value_range in ranges.values():
            size *= value_range.size()
        assert size == 3 * 2 * 2 * 9

    def test_generated_function_single_and_named_like_paper(self, wiper_code):
        assert [f.name for f in wiper_code.program.functions] == [WIPER_FUNCTION_NAME]

    def test_every_state_reachable_by_execution(self, wiper_code):
        board = EvaluationBoard(wiper_code.analyzed)
        seen_states = set()
        for state in range(9):
            for selector in range(3):
                for pump in range(2):
                    for end in range(2):
                        run = board.run(
                            WIPER_FUNCTION_NAME,
                            {
                                "wiper_state": state,
                                "speed_selector": selector,
                                "pump_button": pump,
                                "end_position": end,
                            },
                        )
                        seen_states.add(run.final_environment["wiper_state"])
        assert seen_states == set(range(9))

    def test_wiper_outputs_follow_selector(self, wiper_code):
        board = EvaluationBoard(wiper_code.analyzed)
        run = board.run(
            WIPER_FUNCTION_NAME,
            {"wiper_state": 0, "speed_selector": 2, "pump_button": 0, "end_position": 0},
        )
        assert run.final_environment["motor_speed"] == 2


class TestFigure1Workload:
    def test_expected_constants(self):
        analyzed = figure1_analyzed()
        cfg = build_cfg(analyzed.program.function("main"))
        assert len(cfg.real_blocks()) == EXPECTED_BASIC_BLOCKS
        assert count_ast_paths(analyzed.program.function("main")) == EXPECTED_TOTAL_PATHS


class TestOptimisationEvalWorkload:
    def test_variable_inventory_matches_paper(self):
        assert len(BOOLEAN_VARIABLES) == 4
        assert len(BYTE_VARIABLES) == 13

    def test_line_count_close_to_105(self):
        assert 80 <= source_line_count() <= 115

    def test_target_block_is_reachable_by_execution(self):
        analyzed = optimisation_eval_program()
        cfg = build_cfg(analyzed.program.function(EVAL_FUNCTION_NAME))
        target = find_target_block(cfg)
        board = EvaluationBoard(analyzed)
        run = board.run(
            EVAL_FUNCTION_NAME,
            {"sensor_temp": 100, "sensor_rpm": 60, "sensor_load": 90},
        )
        assert target in run.trace

    def test_missing_marker_call_raises(self):
        analyzed = optimisation_eval_program()
        cfg = build_cfg(analyzed.program.function(EVAL_FUNCTION_NAME))
        with pytest.raises(LookupError):
            find_target_block(cfg, "no_such_marker")


class TestSyntheticTargetLink:
    def test_small_application_matches_requested_size(self):
        app = generate_small_application(seed=7, target_blocks=120)
        assert 90 <= app.basic_blocks <= 160
        assert app.conditional_branches > 10

    def test_generation_is_deterministic(self):
        first = generate_small_application(seed=13, target_blocks=80)
        second = generate_small_application(seed=13, target_blocks=80)
        assert first.source == second.source

    def test_different_seeds_differ(self):
        first = generate_small_application(seed=1, target_blocks=80)
        second = generate_small_application(seed=2, target_blocks=80)
        assert first.source != second.source

    def test_generated_code_is_partitionable(self):
        from repro.partition import partition_function

        app = generate_small_application(seed=5, target_blocks=100)
        function = app.analyzed.program.function(app.function_name)
        for bound in (1, 4, 1000):
            result = partition_function(function, bound, app.cfg)
            result.validate(app.cfg)

    def test_generated_code_executes(self):
        app = generate_small_application(seed=9, target_blocks=80)
        board = EvaluationBoard(app.analyzed)
        run = board.run(app.function_name, {"u0": 1, "u1": 2})
        assert run.total_cycles > 0
