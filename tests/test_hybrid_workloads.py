"""The hybrid generator on the pinned workloads: provenance and sa skips.

Each workload (the call-chain demo, the wiper, controllers 11/2/5) is
analysed once per module under the default :class:`AnalyzerConfig`, with
every hybrid generation recorded: its targets, the targets still uncovered
when the genetic phase starts, the targets it searched and the suite it
returned.  The tests then check

* provenance: exactly one report per target, and every RANDOM, GENETIC or
  MODEL_CHECKING vector covers its target when replayed on a fresh board;
* the sa skip: the genetic phase searches no target whose path the static
  analysis proved infeasible, each skipped target ends with exactly one
  INFEASIBLE report, and no other search is lost; on the controllers sa
  proves every INFEASIBLE target before any search runs;
* sa moves no result: the INFEASIBLE targets and the bounds are the same
  with the static analysis off;
* the work: on the controllers, the board runs and genetic evaluations of
  each analysis are pinned, so a change meant to make them cheaper cannot
  quietly change how many there are.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import NamedTuple

import pytest

import repro.pipeline.analyzer as analyzer_module
from repro.hw import EvaluationBoard, Interpreter
from repro.pipeline import AnalyzerConfig
from repro.project import Project, ProjectScheduler, ResultCache
from repro.testgen import (
    CoverageSource,
    CoverageTracker,
    GeneticTestDataGenerator,
    HybridTestDataGenerator,
)
from repro.workloads.multi import generate_call_chain_workload
from repro.workloads.targetlink import generate_small_application
from repro.workloads.wiper import wiper_case_study

pytestmark = pytest.mark.sa

WORKLOADS = {
    "callchain": lambda: generate_call_chain_workload(2005).sources,
    "wiper": lambda: {"wiper.c": wiper_case_study().source},
    **{
        f"controller_{seed}": (
            lambda seed=seed: {
                f"controller_{seed}.c": generate_small_application(seed=seed).source
            }
        )
        for seed in (11, 2, 5)
    },
}

#: workload -> (searches run, searches skipped, searches run without sa).
#: Without sa every target left uncovered by the random phase is searched
#: unless an earlier search covered it as a by-product.  Searches on
#: sa-infeasible targets produced some of those by-products on the
#: controllers, so there the skip hands 6, 6 and 7 targets a search of their
#: own.  The call chain keeps 3 searches: their targets are infeasible only
#: by a correlation between two branches, which the interval domain cannot
#: prove and the model checker does.
SEARCHES = {
    "callchain": (3, 9, 12),
    "wiper": (1, 1, 2),
    "controller_11": (9, 19, 22),
    "controller_2": (16, 18, 28),
    "controller_5": (12, 17, 22),
}

#: controller -> (``Interpreter.run`` calls, genetic evaluations) of its
#: analysis.  The searches of a genetic phase share their seed vectors'
#: runs, so board runs are below the 4393/6472/5771 of one run per seed
#: evaluation; the evaluations are what they were.
WORK = {
    "controller_11": (4265, 4094),
    "controller_2": (6277, 6188),
    "controller_5": (5595, 5409),
}


@dataclass
class Generation:
    """One recorded hybrid generation of one function."""

    analyzed: object
    function: str
    partition: object
    cfg: object
    board_options: dict
    targets: list = field(default_factory=list)
    uncovered_at_genetic_start: set = field(default_factory=set)
    searched: list = field(default_factory=list)
    suite: object = None
    #: ``Interpreter.run`` calls from this generator's creation until the next
    board_runs: int = 0


class Recording(NamedTuple):
    """The hybrid generations and the bounds of one uncached project run."""

    generations: list[Generation]
    #: function -> WCET bound cycles
    bounds: dict[str, int]


def record_generations(sources: dict[str, str], **config) -> Recording:
    """Analyse *sources* uncached and record every hybrid generation."""
    generations: list[Generation] = []
    board_options: dict[int, dict] = {}
    by_generator: dict[int, Generation] = {}
    created: list[Generation] = []

    class RecordingBoard(EvaluationBoard):
        def __init__(self, analyzed, **options):
            super().__init__(analyzed, **options)
            board_options[id(self)] = options

    hybrid_init = HybridTestDataGenerator.__init__
    genetic_phase = HybridTestDataGenerator._genetic_phase
    generate = HybridTestDataGenerator.generate
    search = GeneticTestDataGenerator.search
    interpreter_run = Interpreter.run

    def init_spy(self, analyzed, function_name, board, partition, cfg, options=None):
        hybrid_init(self, analyzed, function_name, board, partition, cfg, options)
        by_generator[id(self)] = Generation(
            analyzed, function_name, partition, cfg, board_options[id(board)]
        )
        created.append(by_generator[id(self)])

    def genetic_phase_spy(self, coverage, suite):
        generation = by_generator[id(self)]
        generation.targets = list(coverage.targets)
        generation.uncovered_at_genetic_start = {
            target.key for target in coverage.uncovered_targets()
        }
        generations.append(generation)
        return genetic_phase(self, coverage, suite)

    def generate_spy(self):
        suite = generate(self)
        by_generator[id(self)].suite = suite
        return suite

    def search_spy(self, target, *args, **kwargs):
        generations[-1].searched.append(target.key)
        return search(self, target, *args, **kwargs)

    def run_spy(self, *args, **kwargs):
        created[-1].board_runs += 1
        return interpreter_run(self, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(analyzer_module, "EvaluationBoard", RecordingBoard)
        patch.setattr(HybridTestDataGenerator, "__init__", init_spy)
        patch.setattr(HybridTestDataGenerator, "_genetic_phase", genetic_phase_spy)
        patch.setattr(HybridTestDataGenerator, "generate", generate_spy)
        patch.setattr(GeneticTestDataGenerator, "search", search_spy)
        patch.setattr(Interpreter, "run", run_spy)
        report = ProjectScheduler(
            Project.from_sources(sources),
            config=AnalyzerConfig(**config),
            cache=ResultCache.disabled(),
        ).run()
    assert not report.failures
    bounds = {summary.function: summary.wcet_bound_cycles for summary in report.functions}
    return Recording(generations, bounds)


@pytest.fixture(scope="module")
def recordings() -> dict[str, Recording]:
    return {name: record_generations(sources()) for name, sources in WORKLOADS.items()}


@pytest.fixture(scope="module")
def recordings_without_sa() -> dict[str, Recording]:
    return {
        name: record_generations(sources(), static_analysis=False)
        for name, sources in WORKLOADS.items()
    }


@pytest.fixture(scope="module")
def recorded(recordings) -> dict[str, list[Generation]]:
    return {name: recording.generations for name, recording in recordings.items()}


def skipped_keys(generation: Generation) -> list:
    return [target.key for target in generation.suite.static_skips]


def infeasible_targets(generations: list[Generation]) -> set:
    """``(function, target key)`` of every target reported INFEASIBLE."""
    return {
        (generation.function, report.target.key)
        for generation in generations
        for report in generation.suite.reports
        if report.source is CoverageSource.INFEASIBLE
    }


# ---------------------------------------------------------------------- #
# provenance
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_target_has_exactly_one_report(recorded, workload):
    for generation in recorded[workload]:
        keys = Counter(report.target.key for report in generation.suite.reports)
        assert sorted(keys) == sorted(target.key for target in generation.targets)
        assert set(keys.values()) == {1}, generation.function


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_covering_vectors_cover_their_targets_on_a_fresh_board(recorded, workload):
    covering = {
        CoverageSource.RANDOM,
        CoverageSource.GENETIC,
        CoverageSource.MODEL_CHECKING,
    }
    for generation in recorded[workload]:
        options = dict(generation.board_options, memoise=False)
        board = EvaluationBoard(generation.analyzed, **options)
        for report in generation.suite.reports:
            if report.source not in covering:
                assert report.vector is None
                continue
            tracker = CoverageTracker.create(generation.partition, generation.cfg)
            tracker.record_run(board.run(generation.function, report.vector))
            assert tracker.covering_vector(report.target) is not None, (
                generation.function,
                report.source,
                report.target.describe(),
            )


# ---------------------------------------------------------------------- #
# the sa skip
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_skipped_targets_end_with_one_infeasible_report(recorded, workload):
    for generation in recorded[workload]:
        sources = {
            report.target.key: report.source for report in generation.suite.reports
        }
        for key in skipped_keys(generation):
            assert sources[key] is CoverageSource.INFEASIBLE, (generation.function, key)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_skips_lose_no_other_search(recorded, workload):
    searches = skips = 0
    for generation in recorded[workload]:
        searched = set(generation.searched)
        skipped = set(skipped_keys(generation))
        assert len(searched) == len(generation.searched)
        assert not searched & skipped
        # every other target left over by the random phase was covered by
        # a run of an earlier search before its turn came
        by_products = generation.uncovered_at_genetic_start - searched - skipped
        covered = {
            report.target.key
            for report in generation.suite.reports
            if report.source is CoverageSource.RANDOM
        }
        assert by_products <= covered, generation.function
        searches += len(searched)
        skips += len(skipped)
    assert (searches, skips) == SEARCHES[workload][:2]


@pytest.mark.parametrize("workload", sorted(WORK))
def test_board_runs_and_genetic_evaluations_are_pinned(recorded, workload):
    (generation,) = recorded[workload]
    runs = (generation.board_runs, generation.suite.genetic_evaluations)
    assert runs == WORK[workload]


def test_call_chain_searches_only_targets_sa_cannot_prove(recorded):
    generations = recorded["callchain"]
    # a failed search scores 30 individuals, then 28 per generation for 40
    # generations (the 2 elites keep their fitness)
    assert sum(g.suite.genetic_evaluations for g in generations) == 3 * 1150
    for generation in generations:
        if generation.searched:
            # the model checker needs the solver for these targets
            assert generation.suite.mc_diagnostics["static_prunes"] == 0
            assert generation.suite.mc_diagnostics["solver_runs"] > 0


@pytest.mark.parametrize("workload", sorted(WORK))
def test_sa_proves_every_infeasible_target_before_a_search(recorded, workload):
    # skipped targets are never searched (test_skips_lose_no_other_search)
    (generation,) = recorded[workload]
    infeasible = infeasible_targets([generation])
    assert infeasible
    assert {(generation.function, key) for key in skipped_keys(generation)} == (
        infeasible
    )


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_sa_moves_no_infeasible_target(recorded, recordings_without_sa, workload):
    assert infeasible_targets(recorded[workload]) == infeasible_targets(
        recordings_without_sa[workload].generations
    )


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_sa_moves_no_bound(recordings, recordings_without_sa, workload):
    assert recordings[workload].bounds == recordings_without_sa[workload].bounds


@pytest.mark.parametrize("workload", ["callchain", "controller_5"])
def test_without_sa_every_skipped_target_is_searched_again(
    recorded, recordings_without_sa, workload
):
    generations = recordings_without_sa[workload].generations
    searched_off = [(g.function, key) for g in generations for key in g.searched]
    assert not any(g.suite.static_skips for g in generations)
    assert len(searched_off) == SEARCHES[workload][2]
    skipped_on = {
        (g.function, key) for g in recorded[workload] for key in skipped_keys(g)
    }
    assert skipped_on <= set(searched_off)
