"""The hybrid generator on the pinned workloads: provenance and sa skips.

Each workload (the call-chain demo, the wiper, controllers 11/2/5) is
analysed once per module under the default :class:`AnalyzerConfig`, with
every hybrid generation recorded: its targets, the targets the first phase
left uncovered, the targets the genetic phase searched, the targets handed
to the model checker and the suite it returned.  The tests then check

* provenance: exactly one report per target, and every RANDOM, GENETIC or
  MODEL_CHECKING vector covers its target when replayed on a fresh board;
* the sa skip: the genetic phase searches no target whose path the static
  analysis proved infeasible, each skipped target ends with exactly one
  INFEASIBLE report, and no other search is lost; on the controllers sa
  proves every INFEASIBLE target before any search runs;
* small spaces (the call chain, the wiper) run whole in the first phase: no
  search runs, no vector of the space covers a target left to the model
  checker, which proves each of them INFEASIBLE, and another seed gives the
  same bounds and target sources;
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
    HybridOptions,
    HybridTestDataGenerator,
    InputSpace,
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
#: own.  The call chain (64 vectors per function) and the wiper (108) run
#: their whole input space in the first phase, so no search runs at all,
#: with sa or without (:data:`LEFT_TO_MC`).
SEARCHES = {
    "callchain": (0, 0, 0),
    "wiper": (0, 0, 0),
    "controller_11": (9, 19, 22),
    "controller_2": (16, 18, 28),
    "controller_5": (12, 17, 22),
}

#: small-space workload -> function -> (targets the first phase left to the
#: model checker, how many of them sa cannot prove).  Every one of them is
#: INFEASIBLE; the ones sa cannot prove are infeasible only by a correlation
#: between two branches, which the interval domain cannot see and the
#: solver does.
LEFT_TO_MC = {
    "callchain": {
        "chain_leaf": (1, 1),
        "chain_mid": (1, 1),
        "chain_top": (2, 0),
        "diamond_left": (1, 1),
        "diamond_right": (2, 0),
        "local_helper": (2, 0),
        "solo_task": (0, 0),
        "task_0": (1, 0),
        "task_1": (2, 0),
    },
    "wiper": {"wiper_control": (2, 1)},
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
    #: the sa prefilter the generator was given (None with sa off)
    prefilter: object = None
    targets: list = field(default_factory=list)
    #: input vectors of the function's space
    space_size: int = 0
    #: the first phase ran every vector of the space
    exhausted: bool = False
    #: target keys the first phase left uncovered
    uncovered_after_random: set = field(default_factory=set)
    genetic_ran: bool = False
    searched: list = field(default_factory=list)
    #: target keys handed to the model-checking phase
    mc_targets: set = field(default_factory=set)
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

    class RecordingBoard(EvaluationBoard):
        def __init__(self, analyzed, **options):
            super().__init__(analyzed, **options)
            board_options[id(self)] = options

    hybrid_init = HybridTestDataGenerator.__init__
    random_phase = HybridTestDataGenerator._random_phase
    genetic_phase = HybridTestDataGenerator._genetic_phase
    model_checking_phase = HybridTestDataGenerator._model_checking_phase
    generate = HybridTestDataGenerator.generate
    search = GeneticTestDataGenerator.search
    interpreter_run = Interpreter.run

    def init_spy(self, analyzed, function_name, board, partition, cfg, options=None):
        hybrid_init(self, analyzed, function_name, board, partition, cfg, options)
        by_generator[id(self)] = Generation(
            analyzed,
            function_name,
            partition,
            cfg,
            board_options[id(board)],
            prefilter=self._options.model_checking.prefilter,
            space_size=self._space.size(),
        )
        generations.append(by_generator[id(self)])

    def random_phase_spy(self, coverage, suite):
        generation = by_generator[id(self)]
        generation.targets = list(coverage.targets)
        generation.exhausted = random_phase(self, coverage, suite)
        generation.uncovered_after_random = {
            target.key for target in coverage.uncovered_targets()
        }
        return generation.exhausted

    def genetic_phase_spy(self, coverage, suite):
        by_generator[id(self)].genetic_ran = True
        return genetic_phase(self, coverage, suite)

    def model_checking_phase_spy(self, coverage, suite):
        by_generator[id(self)].mc_targets = {
            target.key for target in coverage.uncovered_targets()
        }
        return model_checking_phase(self, coverage, suite)

    def generate_spy(self):
        suite = generate(self)
        by_generator[id(self)].suite = suite
        return suite

    def search_spy(self, target, *args, **kwargs):
        generations[-1].searched.append(target.key)
        return search(self, target, *args, **kwargs)

    def run_spy(self, *args, **kwargs):
        generations[-1].board_runs += 1
        return interpreter_run(self, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(analyzer_module, "EvaluationBoard", RecordingBoard)
        patch.setattr(HybridTestDataGenerator, "__init__", init_spy)
        patch.setattr(HybridTestDataGenerator, "_random_phase", random_phase_spy)
        patch.setattr(HybridTestDataGenerator, "_genetic_phase", genetic_phase_spy)
        patch.setattr(
            HybridTestDataGenerator, "_model_checking_phase", model_checking_phase_spy
        )
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
        if not generation.genetic_ran:
            assert not generation.searched and not generation.suite.static_skips
            continue
        searched = set(generation.searched)
        skipped = set(skipped_keys(generation))
        assert len(searched) == len(generation.searched)
        assert not searched & skipped
        # every other target left over by the random phase was covered by
        # a run of an earlier search before its turn came
        by_products = generation.uncovered_after_random - searched - skipped
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


def sa_unproved(generation: Generation, keys: set) -> set:
    """The target keys among *keys* whose path sa does not prove infeasible."""
    prefilter = generation.prefilter
    return {
        target.key
        for target in generation.targets
        if target.key in keys
        and not (
            prefilter is not None
            and prefilter.path_is_infeasible(target.blocks, target.edges)
        )
    }


@pytest.mark.parametrize("workload", sorted(LEFT_TO_MC))
def test_small_spaces_leave_pinned_infeasible_targets_to_mc_without_a_search(
    recorded, workload
):
    left = {}
    for generation in recorded[workload]:
        suite = generation.suite
        assert suite.random_vectors_used <= generation.space_size <= 2_000
        # the whole space ran, or coverage completed first
        assert generation.exhausted or not generation.uncovered_after_random
        assert generation.genetic_ran is not generation.exhausted
        assert not generation.searched and suite.genetic_evaluations == 0
        assert not suite.static_skips
        # the model checker settles exactly what the permutation left
        assert generation.mc_targets == generation.uncovered_after_random
        sources = {report.target.key: report.source for report in suite.reports}
        assert {sources[key] for key in generation.mc_targets} <= {
            CoverageSource.INFEASIBLE
        }
        unproved = sa_unproved(generation, generation.mc_targets)
        left[generation.function] = (len(generation.mc_targets), len(unproved))
    assert left == LEFT_TO_MC[workload]


def test_call_chain_solver_runs_only_on_targets_sa_cannot_prove(recorded):
    generations = recorded["callchain"]
    assert sum(g.suite.genetic_evaluations for g in generations) == 0
    totals = Counter()
    for generation in generations:
        diagnostics = generation.suite.mc_diagnostics
        totals.update(diagnostics)
        unproved = sa_unproved(generation, generation.mc_targets)
        # the solver runs once per target sa cannot prove, and there the
        # prefilter prunes nothing
        assert diagnostics.get("solver_runs", 0) == len(unproved)
        if unproved:
            assert diagnostics["static_prunes"] == 0
    # mc.queries / mc.solver_runs / mc.static_prunes of one cold unit
    assert (totals["planned"], totals["solver_runs"], totals["static_prunes"]) == (
        14,
        3,
        11,
    )


@pytest.mark.parametrize("workload", sorted(LEFT_TO_MC))
def test_no_vector_of_a_small_space_covers_a_target_left_to_mc(recorded, workload):
    for generation in recorded[workload]:
        if not generation.mc_targets:
            continue
        board = EvaluationBoard(
            generation.analyzed, **dict(generation.board_options, memoise=False)
        )
        tracker = CoverageTracker.create(generation.partition, generation.cfg)
        space = InputSpace.from_program(generation.analyzed, generation.function)
        for genome in space.genomes():
            tracker.record_run(board.run(generation.function, space.vector(genome)))
        covered = {target.key for target in tracker.targets} - {
            target.key for target in tracker.uncovered_targets()
        }
        assert not covered & generation.mc_targets, generation.function


@pytest.mark.parametrize("workload", sorted(LEFT_TO_MC))
def test_small_space_results_do_not_depend_on_the_seed(recordings, workload):
    def outcome(recording):
        return recording.bounds, {
            (g.function, report.target.key, report.source)
            for g in recording.generations
            for report in g.suite.reports
        }

    reseeded = record_generations(WORKLOADS[workload](), hybrid=HybridOptions(seed=7))
    # another order picks other covering vectors, to the same effect
    assert [g.suite.vectors for g in reseeded.generations] != [
        g.suite.vectors for g in recordings[workload].generations
    ]
    assert outcome(reseeded) == outcome(recordings[workload])


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


@pytest.mark.parametrize("workload", sorted(LEFT_TO_MC))
def test_without_sa_small_spaces_leave_mc_the_same_targets(
    recorded, recordings_without_sa, workload
):
    def left(generations):
        return {g.function: g.mc_targets for g in generations}

    generations = recordings_without_sa[workload].generations
    assert not any(g.searched or g.suite.static_skips for g in generations)
    assert left(generations) == left(recorded[workload])


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
