"""Tests of the Stateflow/TargetLink code generator and the workload programs."""

from __future__ import annotations

import hashlib

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
from repro.workloads import targetlink
from repro.workloads.targetlink import (
    generate_small_application,
    generate_synthetic_application,
)
from repro.workloads.wiper import (
    WIPER_FUNCTION_NAME,
    WIPER_STATES,
    wiper_chart,
    wiper_input_ranges,
)


#: SHA-256 of the source of every ``generate_small_application(seed,
#: target_blocks)`` call the tests, examples and benchmark make
SMALL_APPLICATION_SHA256 = [
    ((11, 120), "9347bc47eca37312ca1eb1468be1c5a00c910ebb3e4712962fa4f037a9f9f22e"),
    ((2, 120), "e1cfa7d849271c09ad88a9852a65223e4f6d76e7958864039919fa18e59c377e"),
    ((5, 120), "74febb7220d4b09ef44ab6c4ecb5828e7d3473c8eb15f188a38fea2e9cf61ad2"),
    ((7, 120), "57e094d3224bef055b17821cf411670e79a025f27525d44ba1e51ff1e820450c"),
    ((7, 200), "57cbf81191efe63673f79318e290bc27fd9e0fb33c3b978c48674220d84be1ab"),
    ((5, 100), "adae3c50e1669335c5b5bed557b94d0a10d8eb2394fb18e31ed45ca5a91a7773"),
    ((21, 90), "c3a20643b2d553b0fccbf4c19599087dc2dec4932bd26aca6adfc99107ace02a"),
    ((1, 80), "9c3589b94759dd85d7766f7d3abd3c11f5b2863d0788151dbfb6ece690a5bbfe"),
    ((2, 80), "0dece2d99c2412aa362f5470b3c724f4b5e4e7601b86343013805740cf5f21d5"),
    ((9, 80), "460a36e05a1edbddc44c90e4f39baf6548027355c7751835573c16f6f3b67b13"),
    ((13, 80), "9b8247404a2b1249c18c29970622064ac51cc1d1626b55ec6dea798f2c5ee6d1"),
]

#: SHA-256 of ``generate_synthetic_application(seed=2005)``'s source
INDUSTRIAL_SHA256 = "a0cf54eeb26ca9c359893c20e76fd536a8d6afdee936277768def780b42a8eed"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


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

    @pytest.mark.parametrize(("arguments", "digest"), SMALL_APPLICATION_SHA256)
    def test_small_application_source_is_pinned(self, arguments, digest):
        seed, target_blocks = arguments
        app = generate_small_application(seed=seed, target_blocks=target_blocks)
        assert sha256(app.source) == digest

    def test_industrial_source_is_pinned(self):
        app = generate_synthetic_application(seed=2005)
        assert sha256(app.source) == INDUSTRIAL_SHA256
        assert app.basic_blocks == 817

    def test_only_the_returned_program_is_parsed_and_analysed(self, monkeypatch):
        parsed = []
        original = targetlink.parse_and_analyze

        def counting(source, filename="<source>"):
            parsed.append(source)
            return original(source, filename=filename)

        monkeypatch.setattr(targetlink, "parse_and_analyze", counting)
        for generate in (
            lambda: generate_small_application(seed=11),
            lambda: generate_synthetic_application(seed=2005),
        ):
            parsed.clear()
            app = generate()
            assert parsed == [app.source]

    def test_a_miscounted_leaf_makes_generation_raise(self, monkeypatch):
        original = targetlink._leaf_blocks
        monkeypatch.setattr(targetlink, "_leaf_blocks", lambda leaf: original(leaf) + 1)
        with pytest.raises(RuntimeError, match="calibration counted"):
            generate_small_application(seed=11)
