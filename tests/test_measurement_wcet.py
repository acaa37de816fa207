"""Tests of the measurement subsystem and the WCET bound computation."""

from __future__ import annotations

import contextlib
import random

import pytest

import measurement_reference
import repro.hw.interpreter as interpreter_module
from repro.cfg import build_cfg
from repro.hw import EvaluationBoard
from repro.measurement import MeasurementDatabase, MeasurementRunner, SegmentMeasurement
from repro.minic import parse_and_analyze
from repro.partition import build_instrumentation_plan, partition_function
from repro.resilience import FaultInjector, FaultPlan, ResilienceContext, activate
from repro.wcet import (
    EndToEndResult,
    InputSpaceTooLarge,
    TimingSchema,
    WcetComputationError,
    WcetReport,
    enumerate_input_space,
    exhaustive_end_to_end,
    measure_vectors,
)
from repro.minic.types import IntRange


@pytest.fixture()
def figure1_setup(figure1, figure1_cfg):
    board = EvaluationBoard(figure1)
    partition = partition_function(figure1.program.function("main"), 2, figure1_cfg)
    plan = build_instrumentation_plan(partition, figure1_cfg)
    runner = MeasurementRunner(board, "main", partition, plan, figure1_cfg)
    return board, partition, plan, runner


class TestMeasurementDatabase:
    def test_statistics_aggregate(self):
        database = MeasurementDatabase()
        database.add(SegmentMeasurement(segment_id=1, path=(1, 2), cycles=10))
        database.add(SegmentMeasurement(segment_id=1, path=(1, 3), cycles=30))
        database.add(SegmentMeasurement(segment_id=1, path=(1, 2), cycles=20))
        stats = database.statistics(1)
        assert stats.max_cycles == 30
        assert stats.min_cycles == 10
        assert stats.observations == 3
        assert stats.observed_path_count == 2
        assert database.max_cycles(1) == 30

    def test_worst_inputs_tracked(self):
        database = MeasurementDatabase()
        database.add(SegmentMeasurement(segment_id=0, path=(), cycles=5, inputs={"i": 1}))
        database.add(SegmentMeasurement(segment_id=0, path=(), cycles=9, inputs={"i": 0}))
        assert database.statistics(0).worst_inputs == {"i": 0}

    def test_counted_add_equals_repeated_adds(self):
        measurements = [
            (SegmentMeasurement(2, (4, 5), 12, {"i": 1}), 3),
            (SegmentMeasurement(2, (4,), 7, {"i": 0}), 2),
            (SegmentMeasurement(2, (4, 5), 12, {"i": 2}), 1),
            (SegmentMeasurement(3, (), 0, {"i": 3}), 4),
        ]
        counted, repeated = MeasurementDatabase(), MeasurementDatabase()
        for measurement, count in measurements:
            counted.add(measurement, count)
            for _ in range(count):
                repeated.add(measurement)
        assert len(counted) == len(repeated) == 10
        for segment_id in (2, 3):
            assert counted.statistics(segment_id) == repeated.statistics(segment_id)
        assert counted.statistics(2).total_cycles == 4 * 12 + 2 * 7
        assert counted.statistics(2).worst_inputs == {"i": 1}

    def test_unmeasured_segment_queries(self):
        database = MeasurementDatabase()
        assert database.max_cycles(7) is None
        assert database.unmeasured_segments([1, 2]) == [1, 2]
        assert database.observed_paths(3) == set()


class TestMeasurementRunner:
    def test_both_inputs_measure_every_segment(self, figure1_setup):
        board, partition, plan, runner = figure1_setup
        database = MeasurementDatabase()
        campaign = runner.run_vectors([{"i": 0}, {"i": 1}], database)
        assert campaign.runs == 2
        # every segment is observed at least once ...
        assert not database.unmeasured_segments([s.segment_id for s in partition.segments])
        # ... but full *path* coverage is impossible: the printf5 path of the
        # inner-if region is infeasible (it needs i == 0 and i != 0 at once)
        assert not runner.fully_covered(database)
        region = next(s for s in partition.segments if len(s.block_ids) > 1)
        observed, required = runner.coverage(database)[region.segment_id]
        assert (observed, required) == (1, 2)

    def test_single_input_leaves_paths_uncovered(self, figure1_setup):
        board, partition, plan, runner = figure1_setup
        database = MeasurementDatabase()
        runner.run_vectors([{"i": 1}], database)
        assert not runner.fully_covered(database)

    def test_segment_times_sum_close_to_total(self, figure1_setup):
        """Per-segment times of one run must sum to (almost) the end-to-end time."""
        board, partition, plan, runner = figure1_setup
        run = board.run("main", {"i": 0})
        covered = sum(cycles for _, _, cycles in runner.segment_times(run))
        assert covered <= run.total_cycles
        assert covered >= run.total_cycles * 0.8

    def test_measurement_paths_stay_inside_segment(self, figure1_setup):
        board, partition, plan, runner = figure1_setup
        run = board.run("main", {"i": 0})
        for segment_id, path, _ in runner.segment_times(run):
            segment = partition.segment(segment_id)
            assert path[0] == segment.entry_block
            assert set(path) <= set(segment.block_ids)

    def test_coverage_report_structure(self, figure1_setup):
        _, partition, _, runner = figure1_setup
        database = MeasurementDatabase()
        report = runner.coverage(database)
        assert set(report) == {s.segment_id for s in partition.segments}


@pytest.fixture(scope="module")
def pinned_campaigns():
    """(runner, vectors) of every measurement campaign of the pinned programs.

    The call chain, the wiper and controllers 11/2/5 are analysed uncached;
    each campaign's runner and vector list (suite plus the extra random
    vectors) are kept as the analyzer built them.
    """
    from repro.project import Project, ProjectScheduler, ResultCache
    from repro.workloads.multi import generate_call_chain_workload
    from repro.workloads.targetlink import generate_small_application
    from repro.workloads.wiper import wiper_case_study

    projects = [
        generate_call_chain_workload(2005).sources,
        {"wiper.c": wiper_case_study().source},
        *(
            {f"controller_{seed}.c": generate_small_application(seed=seed).source}
            for seed in (11, 2, 5)
        ),
    ]
    campaigns = []
    original = MeasurementRunner.run_vectors

    def keep(self, vectors, database):
        campaigns.append((self, list(vectors)))
        return original(self, vectors, database)

    MeasurementRunner.run_vectors = keep
    try:
        for sources in projects:
            report = ProjectScheduler(
                Project.from_sources(sources), cache=ResultCache.disabled()
            ).run()
            assert not report.failures
    finally:
        MeasurementRunner.run_vectors = original
    assert len(campaigns) == 13
    return campaigns


class TestCampaignAgainstReference:
    """``run_vectors`` against the per-vector extraction of
    ``measurement_reference``: same statistics, same campaign."""

    @staticmethod
    def assert_same_campaign(runner, vectors, context=contextlib.nullcontext):
        """Run both campaigns, each inside a fresh ``context()``."""
        ours, theirs = MeasurementDatabase(), MeasurementDatabase()
        with context():
            campaign = runner.run_vectors(vectors, ours)
        with context():
            expected = measurement_reference.run_vectors(runner, vectors, theirs)
        assert campaign == expected
        assert len(ours) == len(theirs)
        for segment in runner._partition.segments:
            segment_id = segment.segment_id
            stats, reference = ours.statistics(segment_id), theirs.statistics(segment_id)
            assert stats == reference
            if stats is not None:
                assert list(stats.paths.items()) == list(reference.paths.items())
            assert ours.observed_paths(segment_id) == theirs.observed_paths(segment_id)
        return campaign

    def test_analyzer_vectors(self, pinned_campaigns):
        for runner, vectors in pinned_campaigns:
            campaign = self.assert_same_campaign(runner, vectors)
            assert campaign.runs == len(vectors)

    def test_segment_times_of_every_run(self, pinned_campaigns):
        """The single pass yields the reference's observations, in order."""
        for runner, vectors in pinned_campaigns:
            for vector in vectors:
                run = runner._board.run(runner._function, vector)
                expected = measurement_reference.extract_measurements(
                    run, runner._plan, runner._partition, vector
                )
                assert runner.segment_times(run) == tuple(
                    (m.segment_id, m.path, m.cycles) for m in expected
                )

    def test_shuffled_vectors_with_repeats(self, pinned_campaigns):
        rng = random.Random(35)
        for runner, vectors in pinned_campaigns:
            shuffled = rng.choices(vectors, k=2 * len(vectors))
            assert len({tuple(sorted(v.items())) for v in shuffled}) < len(shuffled)
            self.assert_same_campaign(runner, shuffled)

    def test_vectors_lost_to_injected_faults(self, pinned_campaigns, monkeypatch):
        # the pinned runs take fewer steps than one poll interval; polling
        # every 16 steps lets the ``interp.step`` site fire inside them
        monkeypatch.setattr(interpreter_module, "POLL_INTERVAL", 16)
        plan = FaultPlan.from_args(["interp.step:rate=0.2"], seed=35)

        def armed():
            return activate(ResilienceContext(injector=FaultInjector(plan)))

        lost = 0
        for runner, vectors in pinned_campaigns:
            campaign = self.assert_same_campaign(runner, vectors, armed)
            assert campaign.runs + campaign.faulted_runs == len(vectors)
            lost += campaign.faulted_runs
        assert lost > 0


class TestTimingSchema:
    def test_bound_is_safe_for_figure1(self, figure1, figure1_cfg, figure1_setup):
        board, partition, plan, runner = figure1_setup
        database = MeasurementDatabase()
        runner.run_vectors([{"i": 0}, {"i": 1}], database)
        bound = TimingSchema(figure1_cfg, partition).compute(database)
        worst_observed = max(
            board.run("main", {"i": value}).total_cycles for value in (0, 1)
        )
        assert bound.bound_cycles >= worst_observed

    def test_missing_measurement_raises(self, figure1, figure1_cfg, figure1_setup):
        _, partition, _, _ = figure1_setup
        database = MeasurementDatabase()
        with pytest.raises(WcetComputationError):
            TimingSchema(figure1_cfg, partition).compute(database)

    def test_unreachable_segments_contribute_zero(self, figure1, figure1_cfg, figure1_setup):
        board, partition, plan, runner = figure1_setup
        database = MeasurementDatabase()
        runner.run_vectors([{"i": 0}, {"i": 1}], database)
        # pretend one segment is infeasible: removing its measurements and
        # declaring it unreachable must not raise
        victim = partition.segments[-1].segment_id
        clean = MeasurementDatabase()
        for segment in partition.segments:
            stats = database.statistics(segment.segment_id)
            if segment.segment_id == victim or stats is None:
                continue
            for path, cycles in stats.paths.items():
                clean.add(SegmentMeasurement(segment.segment_id, path, cycles))
        assert clean.statistics(victim) is None
        bound = TimingSchema(figure1_cfg, partition).compute(
            clean, unreachable_segments={victim}
        )
        assert bound.bound_cycles > 0

    def test_critical_path_segments_are_flagged(self, figure1, figure1_cfg, figure1_setup):
        board, partition, plan, runner = figure1_setup
        database = MeasurementDatabase()
        runner.run_vectors([{"i": 0}, {"i": 1}], database)
        bound = TimingSchema(figure1_cfg, partition).compute(database)
        assert bound.critical_segments
        for segment_id in bound.critical_segments:
            assert bound.contribution(segment_id).on_critical_path

    def test_loop_iteration_factors(self, small_loop_program):
        function = small_loop_program.program.function("accumulate")
        cfg = build_cfg(function)
        partition = partition_function(function, 1, cfg)
        board = EvaluationBoard(small_loop_program)
        plan = build_instrumentation_plan(partition, cfg)
        runner = MeasurementRunner(board, "accumulate", partition, plan, cfg)
        database = MeasurementDatabase()
        runner.run_vectors([{"n": value} for value in range(0, 11)], database)
        bound = TimingSchema(cfg, partition, default_loop_bound=10).compute(database)
        worst = max(
            board.run("accumulate", {"n": value}).total_cycles for value in range(0, 11)
        )
        assert bound.bound_cycles >= worst


class TestEndToEnd:
    def test_enumerate_input_space(self):
        vectors = enumerate_input_space({"a": IntRange(0, 1), "b": IntRange(0, 2)})
        assert len(vectors) == 6

    def test_enumeration_limit(self):
        with pytest.raises(InputSpaceTooLarge):
            enumerate_input_space({"x": IntRange(0, 10**7)}, limit=1000)

    def test_exhaustive_measurement_finds_worst_case(self, figure1):
        board = EvaluationBoard(figure1)
        result = exhaustive_end_to_end(board, "main", {"i": IntRange(0, 1)})
        assert result.runs == 2
        assert result.worst_inputs == {"i": 0}
        assert result.max_cycles > result.min_cycles

    def test_measure_vectors_requires_input(self, figure1):
        board = EvaluationBoard(figure1)
        with pytest.raises(ValueError):
            measure_vectors(board, "main", [])

    def test_spread(self):
        result = EndToEndResult(function_name="f", runs=2, max_cycles=10, min_cycles=4)
        assert result.spread == 6


class TestWcetReport:
    def test_report_text_and_ratios(self, figure1, figure1_cfg, figure1_setup):
        board, partition, plan, runner = figure1_setup
        database = MeasurementDatabase()
        runner.run_vectors([{"i": 0}, {"i": 1}], database)
        bound = TimingSchema(figure1_cfg, partition).compute(database)
        end_to_end = exhaustive_end_to_end(board, "main", {"i": IntRange(0, 1)})
        report = WcetReport(
            function_name="main",
            path_bound=2,
            partition=partition,
            bound=bound,
            database=database,
            end_to_end=end_to_end,
            test_vectors_used=2,
        )
        assert report.is_safe()
        assert report.overestimation_ratio >= 1.0
        text = report.to_text()
        assert "WCET bound" in text and "main" in text
