"""Cross-module integration tests.

These tests exercise complete slices of the tool chain on programs that are
big enough to be interesting but small enough to keep the suite fast:

* the whole pipeline on the Figure 1 example and a synthetic TargetLink-style
  program,
* agreement between the model checker's witnesses and concrete execution,
* consistency between the partitioning cost model (ip/m) and what the
  measurement campaign actually needs.
"""

from __future__ import annotations

import pytest

from repro.cfg import build_cfg
from repro.hw import EvaluationBoard
from repro.measurement import MeasurementDatabase, MeasurementRunner
from repro.mc import EngineKind, ModelChecker, QueryEngineOptions, Verdict
from repro.optim import OptimizationConfig, build_optimized_model
from repro.partition import build_instrumentation_plan, partition_function
from repro.pipeline import AnalyzerConfig, WcetAnalyzer
from repro.testgen import HybridOptions, build_targets
from repro.transsys import translate_function
from repro.wcet import TimingSchema, exhaustive_end_to_end
from repro.workloads.targetlink import generate_small_application


#: the symbolic engine on the full model (no slicing, no budget)
FULL_SYMBOLIC = QueryEngineOptions(engine=EngineKind.SYMBOLIC, slicing=False)


QUICK_HYBRID = HybridOptions(plateau_patterns=25, max_random_vectors=80, seed=7)


class TestFigure1EndToEnd:
    @pytest.fixture(scope="class")
    def report(self, figure1):
        config = AnalyzerConfig(path_bound=2, hybrid=QUICK_HYBRID, extra_random_vectors=5)
        return WcetAnalyzer(figure1, "main", config).analyze()

    def test_partition_matches_table1_row(self, report):
        assert report.partition.instrumentation_points == 16
        assert report.partition.measurements == 9

    def test_bound_is_tight_for_this_program(self, figure1, report):
        """For Figure 1 the longest path is feasible, so bound == exhaustive max."""
        board = EvaluationBoard(figure1)
        exhaustive = exhaustive_end_to_end(board, "main", {"i": __import__("repro.minic.types", fromlist=["IntRange"]).IntRange(0, 1)})
        assert report.wcet_bound_cycles >= exhaustive.max_cycles
        assert report.wcet_bound_cycles <= exhaustive.max_cycles * 1.1

    def test_per_segment_maxima_bounded_by_end_to_end(self, report):
        for segment in report.partition.segments:
            stats = report.database.statistics(segment.segment_id)
            if stats is None:
                continue
            assert stats.max_cycles <= report.wcet_bound_cycles


class TestSyntheticApplicationEndToEnd:
    @pytest.fixture(scope="class")
    def app(self):
        return generate_small_application(seed=21, target_blocks=90)

    def test_partition_and_measure_without_model_checking(self, app):
        """Random + GA test data alone must cover the synthetic app (it has no
        deep equality guards), and the resulting bound must dominate every
        observed end-to-end time."""
        function = app.analyzed.program.function(app.function_name)
        cfg = app.cfg
        partition = partition_function(function, 4, cfg)
        plan = build_instrumentation_plan(partition, cfg)
        board = EvaluationBoard(app.analyzed)

        from repro.testgen import HybridTestDataGenerator

        options = HybridOptions(
            plateau_patterns=60,
            max_random_vectors=400,
            use_model_checking=False,
            seed=3,
        )
        generator = HybridTestDataGenerator(
            app.analyzed, app.function_name, board, partition, cfg, options
        )
        suite = generator.generate()
        assert suite.vectors

        database = MeasurementDatabase()
        runner = MeasurementRunner(board, app.function_name, partition, plan, cfg)
        runner.run_vectors(suite.vectors, database)

        measured_segments = [
            s.segment_id
            for s in partition.segments
            if database.max_cycles(s.segment_id) is not None
        ]
        # generated mode-logic contains genuinely infeasible branches (guards
        # on locals that are still at their reset value), so heuristics alone
        # cannot reach every segment -- but they must reach the clear majority
        assert len(measured_segments) >= 0.6 * len(partition.segments)

        unmeasured = {
            s.segment_id
            for s in partition.segments
            if database.max_cycles(s.segment_id) is None
        }
        bound = TimingSchema(cfg, partition).compute(
            database, unreachable_segments=unmeasured
        )
        observed = max(
            board.run(app.function_name, vector).total_cycles for vector in suite.vectors
        )
        # the bound may miss unmeasured (never reached) segments, but it must
        # dominate everything that was actually observed
        assert bound.bound_cycles >= observed * 0.99

    def test_partitioning_scales_with_bound(self, app):
        function = app.analyzed.program.function(app.function_name)
        results = {
            bound: partition_function(function, bound, app.cfg)
            for bound in (1, 8, 10**6)
        }
        ips = [results[b].instrumentation_points for b in (1, 8, 10**6)]
        assert ips[0] > ips[1] > ips[2]
        measurements = [results[b].measurements for b in (1, 8, 10**6)]
        assert measurements[0] < measurements[2]


class TestWitnessConsistency:
    def test_model_checker_witnesses_replay_on_the_board(self, eval_program, eval_function_name):
        """Every reachable block's witness must actually reach that block."""
        translation = translate_function(eval_program, eval_function_name)
        checker = ModelChecker(translation, FULL_SYMBOLIC)
        board = EvaluationBoard(eval_program)
        cfg = translation.cfg
        checked = 0
        for block in cfg.real_blocks():
            result = checker.find_test_data_for_block(block.block_id)
            if result.verdict is not Verdict.REACHABLE:
                continue
            run = board.run(eval_function_name, result.counterexample.inputs)
            assert block.block_id in run.trace
            checked += 1
        assert checked >= len(cfg.real_blocks()) - 2

    def test_optimised_and_unoptimised_models_agree_on_reachability(
        self, eval_program, eval_function_name
    ):
        plain = build_optimized_model(
            eval_program, eval_function_name, OptimizationConfig.none()
        )
        optimised = build_optimized_model(
            eval_program, eval_function_name, OptimizationConfig.cfg_preserving()
        )
        plain_checker = ModelChecker(plain.translation, FULL_SYMBOLIC)
        optimised_checker = ModelChecker(optimised.translation, FULL_SYMBOLIC)
        for block in plain.translation.cfg.real_blocks():
            plain_verdict = plain_checker.find_test_data_for_block(block.block_id).verdict
            optimised_verdict = optimised_checker.find_test_data_for_block(
                block.block_id
            ).verdict
            assert plain_verdict == optimised_verdict


class TestTestgenMeasurementConsistency:
    def test_required_measurements_match_target_count(self, figure1, figure1_cfg):
        for bound in (1, 2, 6):
            partition = partition_function(
                figure1.program.function("main"), bound, figure1_cfg
            )
            targets = build_targets(partition, figure1_cfg)
            assert len(targets) == partition.measurements

    def test_wiper_measurement_campaign_counts(self, wiper_code, wiper_function_name):
        function = wiper_code.program.function(wiper_function_name)
        cfg = build_cfg(function)
        partition = partition_function(function, 2, cfg)
        targets = build_targets(partition, cfg)
        assert len(targets) == partition.measurements
