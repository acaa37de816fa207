"""The hybrid test-data generation driver (heuristics first, model checking last).

Section 3 of the paper:

    "For this reason a hybrid approach has been chosen: first, test data are
    generated using heuristic methods (i.e. genetic algorithms) until a given
    coverage bound is reached.  A possible bound could be that no new paths
    have been reached with the last 10^6 generated data patterns. [...] In a
    second step the remaining test data are generated using model checking.
    If no data pattern is found for a selected path the path is deemed
    infeasible."

:class:`HybridTestDataGenerator` implements exactly that control loop:

1. random data: a space of at most ``max_random_vectors`` vectors is run
   once, in a seeded random order, until every target is covered or the
   space is exhausted (the paper's own case study measures the wiper's whole
   input space); a larger space is sampled until no new segment path is
   covered for ``plateau_patterns`` consecutive vectors,
2. one genetic-algorithm search per still-uncovered path target, except
   targets the static analysis (:mod:`repro.sa`) already proved infeasible;
   skipped when phase 1 ran the whole space, since no vector can cover
   more on the board,
3. one model-checking query per target that the heuristics missed, yielding
   either a test vector or an infeasibility proof.  An exhausted space does
   not make a target infeasible: the analysis board stubs summarised
   callees, so only the model checker decides.

The resulting :class:`TestSuite` carries the vectors, the per-target
provenance (random / genetic / model checking / infeasible) and the statistics
the paper cites (the share of targets the heuristics covered, expected to be
above 90 %).
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field

from ..cfg.graph import ControlFlowGraph
from ..hw.board import EvaluationBoard
from ..mc.query import QueryEngineOptions
from ..minic.semantic import AnalyzedProgram
from ..resilience import InjectedFault
from ..partition.segment import PartitionResult
from .genetic import GeneticOptions, GeneticTestDataGenerator
from .inputs import InputSpace
from .modelcheck_gen import (
    ModelCheckingTestDataGenerator,
    TargetStatus,
    default_options,
)
from .random_gen import RandomTestDataGenerator
from .targets import CoverageTracker, PathTarget


class CoverageSource(enum.Enum):
    """How a path target was covered."""

    #: by a vector of the first phase (sampled or permuted)
    RANDOM = "random"
    GENETIC = "genetic"
    MODEL_CHECKING = "model-checking"
    INFEASIBLE = "infeasible"
    UNCOVERED = "uncovered"


@dataclass
class HybridOptions:
    """Budgets of the hybrid generation process."""

    #: stop sampling after this many consecutive vectors without a newly
    #: covered path (the paper suggests 10^6; simulation is slower than
    #: silicon, so the default is smaller but plays the same role); a
    #: permuted space never repeats a vector and ignores it
    plateau_patterns: int = 200
    #: hard cap on random vectors; a space with no more vectors than this is
    #: run as a seeded permutation instead of sampled
    max_random_vectors: int = 2_000
    genetic: GeneticOptions = field(default_factory=GeneticOptions)
    model_checking: QueryEngineOptions = field(default_factory=default_options)
    #: random seed of the random phase (sampling stream or permutation)
    seed: int = 0
    #: skip the genetic phase entirely (for experiments)
    use_genetic: bool = True
    #: skip the model-checking phase entirely (for experiments)
    use_model_checking: bool = True


@dataclass
class TargetReport:
    """Provenance of one path target."""

    target: PathTarget
    source: CoverageSource
    vector: dict[str, int] | None = None


@dataclass
class TestSuite:
    """The outcome of hybrid test-data generation."""

    function_name: str
    vectors: list[dict[str, int]] = field(default_factory=list)
    reports: list[TargetReport] = field(default_factory=list)
    #: vectors the first phase ran, also when a fault cut it short (at most
    #: the space size when permuted)
    random_vectors_used: int = 0
    genetic_evaluations: int = 0
    #: targets whose genetic search was skipped because sa proved their
    #: path infeasible (the model-checking phase settles them)
    static_skips: list[PathTarget] = field(default_factory=list)
    model_checking_queries: int = 0
    #: queries whose QueryBudget ran out (reported uncovered, pessimised)
    budget_exhausted_queries: int = 0
    #: queries where every engine stage died on an (injected) solver fault
    engine_fault_queries: int = 0
    #: query-engine counters (planned/sliced/prefix_hits/solver_runs/...)
    mc_diagnostics: dict[str, int] = field(default_factory=dict)
    #: injected faults that cut a generation phase short (degradation
    #: diagnostics; the analyzer pessimises the bound when any occurred)
    fault_events: list[str] = field(default_factory=list)

    # ------------------------------------------------------------------ #
    def targets_by_source(self, source: CoverageSource) -> list[TargetReport]:
        return [report for report in self.reports if report.source is source]

    @property
    def infeasible_targets(self) -> list[TargetReport]:
        return self.targets_by_source(CoverageSource.INFEASIBLE)

    @property
    def uncovered_targets(self) -> list[TargetReport]:
        return self.targets_by_source(CoverageSource.UNCOVERED)

    @property
    def heuristic_share(self) -> float:
        """Fraction of feasible, covered targets found without model checking.

        The paper (citing Tracey et al.) expects heuristics to deliver more
        than 90 % of the required test cases.
        """
        heuristic = len(self.targets_by_source(CoverageSource.RANDOM)) + len(
            self.targets_by_source(CoverageSource.GENETIC)
        )
        exact = len(self.targets_by_source(CoverageSource.MODEL_CHECKING))
        total = heuristic + exact
        return heuristic / total if total else 1.0

    def is_complete(self) -> bool:
        """True when every target is covered or proven infeasible."""
        return not self.uncovered_targets

    def add_vector(self, vector: dict[str, int]) -> None:
        if vector not in self.vectors:
            self.vectors.append(dict(vector))

    def summary(self) -> dict[str, object]:
        return {
            "targets": len(self.reports),
            "vectors": len(self.vectors),
            "random": len(self.targets_by_source(CoverageSource.RANDOM)),
            "genetic": len(self.targets_by_source(CoverageSource.GENETIC)),
            "model_checking": len(self.targets_by_source(CoverageSource.MODEL_CHECKING)),
            "infeasible": len(self.infeasible_targets),
            "uncovered": len(self.uncovered_targets),
            "budget_exhausted": self.budget_exhausted_queries,
            "heuristic_share": round(self.heuristic_share, 3),
        }


class HybridTestDataGenerator:
    """Runs the three-phase test-data generation process."""

    def __init__(
        self,
        analyzed: AnalyzedProgram,
        function_name: str,
        board: EvaluationBoard,
        partition: PartitionResult,
        cfg: ControlFlowGraph,
        options: HybridOptions | None = None,
    ):
        self._analyzed = analyzed
        self._function = function_name
        self._board = board
        self._partition = partition
        self._cfg = cfg
        self._options = options or HybridOptions()
        self._space = InputSpace.from_program(analyzed, function_name)

    # ------------------------------------------------------------------ #
    def generate(self) -> TestSuite:
        """Run all three phases and return the complete test suite."""
        coverage = CoverageTracker.create(self._partition, self._cfg)
        suite = TestSuite(function_name=self._function)

        # an injected fault (a crashed interpreter run, a dying solver) cuts
        # the phase it hit short but never aborts generation: whatever the
        # remaining phases cover still improves the suite, uncovered targets
        # keep their pessimistic static charge, and the analyzer floors the
        # whole bound once any fault fired
        exhausted = self._run_phase("random", suite, self._random_phase, coverage)
        # once every vector of the space ran, no search can cover more
        if self._options.use_genetic and not exhausted:
            self._run_phase("genetic", suite, self._genetic_phase, coverage)
        if self._options.use_model_checking:
            self._run_phase(
                "model-checking", suite, self._model_checking_phase, coverage
            )

        # final bookkeeping: record provenance of targets covered in phase 1/2
        reported = {report.target.key for report in suite.reports}
        for target in coverage.targets:
            if target.key in reported:
                continue
            vector = coverage.covering_vector(target)
            if vector is not None:
                suite.reports.append(
                    TargetReport(target=target, source=CoverageSource.RANDOM, vector=vector)
                )
            else:
                suite.reports.append(
                    TargetReport(target=target, source=CoverageSource.UNCOVERED)
                )
        return suite

    # ------------------------------------------------------------------ #
    @staticmethod
    def _run_phase(name: str, suite: TestSuite, phase, coverage: CoverageTracker):
        """``phase(coverage, suite)``, or None when an injected fault cut it short."""
        try:
            return phase(coverage, suite)
        except InjectedFault as fault:
            suite.fault_events.append(
                f"{name} phase cut short by injected fault: {fault}"
            )
            return None

    def _random_phase(self, coverage: CoverageTracker, suite: TestSuite) -> bool:
        """Run random vectors; True when every vector of the space ran."""
        if self._space.size() > self._options.max_random_vectors:
            self._sample(coverage, suite)
            return False
        genomes = self._space.genomes()
        random.Random(self._options.seed).shuffle(genomes)
        for genome in genomes:
            if coverage.is_complete():
                return False
            self._run_random(self._space.vector(genome), coverage, suite)
        return True

    def _sample(self, coverage: CoverageTracker, suite: TestSuite) -> None:
        generator = RandomTestDataGenerator(self._space, seed=self._options.seed)
        without_progress = 0
        while (
            suite.random_vectors_used < self._options.max_random_vectors
            and without_progress < self._options.plateau_patterns
            and not coverage.is_complete()
        ):
            if self._run_random(generator.generate(1)[0], coverage, suite):
                without_progress = 0
            else:
                without_progress += 1

    def _run_random(
        self, vector: dict[str, int], coverage: CoverageTracker, suite: TestSuite
    ) -> bool:
        """Run *vector* and count it; report the targets it newly covers as
        RANDOM."""
        newly = coverage.record_run(self._board.run(self._function, vector))
        suite.random_vectors_used += 1
        if newly:
            suite.add_vector(vector)
            for target in newly:
                suite.reports.append(
                    TargetReport(
                        target=target, source=CoverageSource.RANDOM, vector=dict(vector)
                    )
                )
        return bool(newly)

    def _genetic_phase(self, coverage: CoverageTracker, suite: TestSuite) -> None:
        generator = GeneticTestDataGenerator(
            self._board, self._function, self._space, self._options.genetic
        )
        # a target whose path sa proved infeasible is left to the
        # model-checking phase, where the same prefilter settles it as
        # INFEASIBLE with no solver call
        prefilter = self._options.model_checking.prefilter
        seeds = [dict(vector) for vector in suite.vectors]
        for target in coverage.uncovered_targets():
            if coverage.covering_vector(target) is not None:
                continue
            if prefilter is not None and prefilter.path_is_infeasible(
                target.blocks, target.edges
            ):
                suite.static_skips.append(target)
                continue
            outcome = generator.search(target, coverage=coverage, seed_vectors=seeds)
            if not outcome.covered or outcome.vector is None:
                continue
            suite.add_vector(outcome.vector)
            # fitness 0 only says the guidance path is a subsequence of the
            # run; the target is covered once the tracker saw its exact path
            vector = coverage.covering_vector(target)
            if vector is not None:
                suite.reports.append(
                    TargetReport(
                        target=target, source=CoverageSource.GENETIC, vector=dict(vector)
                    )
                )
        suite.genetic_evaluations = generator.statistics.evaluations

    def _model_checking_phase(self, coverage: CoverageTracker, suite: TestSuite) -> None:
        generator = ModelCheckingTestDataGenerator(
            self._analyzed, self._function, self._options.model_checking, self._cfg
        )
        # one query plan for every remaining target: shared path prefixes are
        # probed once, and an infeasible one settles every target extending it
        targets = list(coverage.uncovered_targets())
        for outcome in generator.generate_for_targets(targets):
            target = outcome.target
            if outcome.status is TargetStatus.COVERED and outcome.vector is not None:
                vector = self._space.clamp(outcome.vector)
                suite.add_vector(vector)
                suite.reports.append(
                    TargetReport(
                        target=target, source=CoverageSource.MODEL_CHECKING, vector=vector
                    )
                )
                # replay the witness so the coverage tracker (and later the
                # measurement campaign) sees the newly covered path
                run = self._board.run(self._function, vector)
                coverage.record_run(run)
            elif outcome.status is TargetStatus.INFEASIBLE:
                suite.reports.append(
                    TargetReport(target=target, source=CoverageSource.INFEASIBLE)
                )
            else:
                # UNKNOWN, BUDGET_EXHAUSTED and ENGINE_FAULT all pessimise:
                # the target stays uncovered, the segment keeps its static
                # charge
                suite.reports.append(
                    TargetReport(target=target, source=CoverageSource.UNCOVERED)
                )
        suite.model_checking_queries = generator.statistics.queries
        suite.budget_exhausted_queries = generator.statistics.budget_exhausted
        suite.engine_fault_queries = generator.statistics.engine_faults
        suite.mc_diagnostics = generator.query_diagnostics()
