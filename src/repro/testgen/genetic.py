"""Genetic-algorithm test-data generation (the paper's heuristic phase).

Section 3 of the paper: "first, test data are generated using heuristic
methods (i.e. genetic algorithms) until a given coverage bound is reached"
and, citing Tracey et al. [11], "we expect heuristic methods to generate more
than 90% of the required test cases".

The GA here is the standard search-based-testing setup:

* an individual is a *genome*: an input vector as a tuple of values in
  :class:`~repro.testgen.inputs.InputSpace` variable order;
* the fitness of an individual w.r.t. a target path combines the *approach
  level* (how many blocks of the target path the execution matched before
  diverging) with the *normalised branch distance* at the point of divergence
  (how close the diverging condition was to going the required way), using the
  branch distances the instrumented interpreter reports;
* tournament selection, uniform crossover, per-gene mutation and elitism.

The GA runs per target path; the hybrid driver gives it a budget and falls
back to model checking for whatever remains uncovered.

Each child is bred in one loop: two tournaments, crossover and mutation on
tuples, with no per-child objects or dicts.  The loop draws with
``rng.random()`` and ``getrandbits`` rejection loops that consume exactly
what ``random.sample``, ``randint`` and ``choice`` consume, so a seed gives
the same searches as the stdlib formulation
(``tests/test_testgen.py::TestStreamIdentity``).

The board is deterministic, so no work is repeated that cannot change a
result: a search scores each genome once, and the searches of one
generator (one genetic phase) share the runs of their seed vectors.  Both
reuses stop while a fault injector is armed, so fault-site hits are
numbered as if every evaluation ran.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from math import ceil, log
from operator import itemgetter

from ..hw.board import EvaluationBoard
from ..hw.interpreter import RunResult
from ..resilience import injector_armed
from .inputs import InputSpace, draw_below
from .targets import CoverageTracker, PathTarget

#: the +/- 1..4 nudges of a mutation, in draw order
_NUDGES = (-4, -3, -2, -1, 1, 2, 3, 4)


@dataclass
class GeneticOptions:
    """GA hyper-parameters."""

    population_size: int = 30
    max_generations: int = 40
    tournament_size: int = 3
    mutation_rate: float = 0.3
    crossover_rate: float = 0.8
    elitism: int = 2
    seed: int = 1

    @property
    def evaluation_budget(self) -> int:
        """Upper bound on the fitness evaluations of one search."""
        return self.population_size * (self.max_generations + 1)


@dataclass
class GeneticStatistics:
    evaluations: int = 0
    generations: int = 0
    targets_attempted: int = 0
    targets_covered: int = 0


@dataclass
class GeneticOutcome:
    """Result of one GA search for one target path."""

    target: PathTarget
    covered: bool
    vector: dict[str, int] | None = None
    best_fitness: float = float("inf")
    evaluations: int = 0


#: a scored individual: (fitness, genome)
_fitness_of = itemgetter(0)


class GeneticTestDataGenerator:
    """Search-based test-data generation for individual path targets."""

    def __init__(
        self,
        board: EvaluationBoard,
        function_name: str,
        input_space: InputSpace,
        options: GeneticOptions | None = None,
    ):
        self._board = board
        self._function = function_name
        self._space = input_space
        self._options = options or GeneticOptions()
        self._rng = random.Random(self._options.seed)
        self.statistics = GeneticStatistics()
        #: per-target guidance paths: block sequence from the function entry
        #: through the target path, plus the decision taken at every step
        self._guidance_cache: dict[
            tuple, tuple[tuple[int, ...], dict[int, tuple[str, tuple[int, ...]]]]
        ] = {}
        #: seed genome -> its run, shared by the searches of this generator
        self._seed_runs: dict[tuple[int, ...], RunResult] = {}

    # ------------------------------------------------------------------ #
    def search(
        self,
        target: PathTarget,
        coverage: CoverageTracker | None = None,
        seed_vectors: list[dict[str, int]] | None = None,
    ) -> GeneticOutcome:
        """Search for an input vector driving execution along *target*.

        ``coverage`` (when given) is updated with every evaluated run, so the
        GA's by-products (other targets covered accidentally) are not lost.

        A genome scored earlier in the same search keeps its fitness and is
        not run again: a repeated run can neither change the fitness nor
        cover anything new.  It still counts as an evaluation.  Runs that
        take the same block trace share one approach level.  The first
        ``population_size`` seed vectors, clamped, open the population; their
        runs are shared with the generator's other searches.
        """
        options = self._options
        size = options.population_size
        space, rng = self._space, self._rng
        self.statistics.targets_attempted += 1
        outcome = GeneticOutcome(target=target, covered=False)
        armed = injector_armed()
        scored: dict[tuple[int, ...], float] | None = None if armed else {}
        seed_runs = None if armed else self._seed_runs
        matched: dict[tuple[int, ...], int] = {}
        evaluate = self._evaluate

        # the initial population: the seeds, then random genomes
        genomes = [space.genome(vector) for vector in (seed_vectors or [])[:size]]
        seeded = len(genomes)
        while len(genomes) < size:
            genomes.append(space.random_genome(rng))
        population: list[tuple[float, tuple[int, ...]]] = []
        for index, genome in enumerate(genomes):
            fitness = evaluate(
                genome, target, coverage, outcome, scored, matched,
                seed_runs if index < seeded else None,
            )
            if fitness == 0.0:
                return self._finish(outcome, genome)
            population.append((fitness, genome))

        # every tournament is the fittest of rng.sample(population, k), the
        # first of equally fit contenders winning as with min(); sample()
        # draws distinct indices from a large population and picks from a
        # shrinking pool in a small one
        n = len(population)
        k = min(options.tournament_size, n)
        by_index = n > 21 + (4 ** ceil(log(k * 3, 4)) if k > 5 else 0)
        bits = n.bit_length()
        uniform, getrandbits = rng.random, rng.getrandbits
        crossover_rate, mutation_rate = options.crossover_rate, options.mutation_rate
        genes = tuple(enumerate(space.genes))
        for _ in range(options.max_generations):
            self.statistics.generations += 1
            population.sort(key=_fitness_of)
            next_population = population[: options.elitism]
            while len(next_population) < size:
                parents = []
                for _ in (0, 1):
                    best = None
                    if by_index:
                        picked: list[int] = []
                        for _ in range(k):
                            index = getrandbits(bits)
                            while index >= n or index in picked:
                                index = getrandbits(bits)
                            picked.append(index)
                            contender = population[index]
                            if best is None or contender[0] < best[0]:
                                best = contender
                    else:
                        # position -> index moved there
                        moved: dict[int, int] = {}
                        for remaining in range(n, n - k, -1):
                            j = draw_below(getrandbits, remaining)
                            contender = population[moved.get(j, j)]
                            moved[j] = moved.get(remaining - 1, remaining - 1)
                            if best is None or contender[0] < best[0]:
                                best = contender
                    parents.append(best[1])
                parent_a, parent_b = parents
                # uniform crossover, one draw per gene
                if uniform() < crossover_rate:
                    child = [a if uniform() < 0.5 else b for a, b in zip(parent_a, parent_b)]
                else:
                    child = list(parent_a)
                # per-gene mutation, one of three flavours chosen uniformly:
                # a full random reset (exploration), a proportional jump
                # (coarse search) and a +/- 1..4 nudge (the local search that
                # lets the branch-distance gradient close the final gap to an
                # equality condition).  Parents are in range, so only a
                # mutated gene needs a clamp.
                for position, (lo, hi, values, span) in genes:
                    if uniform() >= mutation_rate:
                        continue
                    flavour = uniform()
                    if flavour < 1.0 / 3.0:
                        child[position] = lo + draw_below(getrandbits, values)
                        continue
                    if flavour < 2.0 / 3.0:
                        delta = draw_below(getrandbits, 2 * span + 1) - span
                    else:
                        delta = _NUDGES[draw_below(getrandbits, 8)]
                    value = child[position] + delta
                    child[position] = hi if value > hi else lo if value < lo else value
                genome = tuple(child)
                fitness = evaluate(genome, target, coverage, outcome, scored, matched, None)
                if fitness == 0.0:
                    return self._finish(outcome, genome)
                next_population.append((fitness, genome))
            population = next_population
        population.sort(key=_fitness_of)
        outcome.best_fitness = population[0][0] if population else float("inf")
        return outcome

    def _finish(self, outcome: GeneticOutcome, winner: tuple[int, ...]) -> GeneticOutcome:
        outcome.covered = True
        outcome.vector = self._space.vector(winner)
        outcome.best_fitness = 0.0
        self.statistics.targets_covered += 1
        return outcome

    # ------------------------------------------------------------------ #
    # fitness
    # ------------------------------------------------------------------ #
    def _evaluate(
        self,
        genome: tuple[int, ...],
        target: PathTarget,
        coverage: CoverageTracker | None,
        outcome: GeneticOutcome,
        scored: dict[tuple[int, ...], float] | None,
        matched: dict[tuple[int, ...], int],
        seed_runs: dict[tuple[int, ...], RunResult] | None,
    ) -> float:
        """Score *genome*: from ``scored``, or from its run (looked up in
        ``seed_runs`` when given, run on the board otherwise)."""
        fitness = scored.get(genome) if scored is not None else None
        if fitness is None:
            run = seed_runs.get(genome) if seed_runs is not None else None
            if run is None:
                run = self._board.run(self._function, self._space.vector(genome))
                if seed_runs is not None:
                    seed_runs[genome] = run
            fitness = self._fitness(run, run.trace, target, matched)
            if coverage is not None:
                coverage.record_trace(run.trace, run.inputs)
            if scored is not None:
                scored[genome] = fitness
        self.statistics.evaluations += 1
        outcome.evaluations += 1
        return fitness

    def fitness(self, run: RunResult, target: PathTarget) -> float:
        """Approach level + normalised branch distance (lower is better, 0 = hit).

        The approach level is computed against a *guidance path*: one acyclic
        CFG path from the function entry to the target segment, extended by
        the target's own block sequence.  Matching is subsequence-based, so
        detours through unrelated code do not distort the level; the branch
        distance of the decision where execution left the guidance path
        provides the fine-grained gradient (Tracey-style objective).
        """
        return self._fitness(run, run.trace, target, {})

    def _fitness(
        self,
        run: RunResult,
        trace: tuple[int, ...],
        target: PathTarget,
        matched_by_trace: dict[tuple[int, ...], int],
    ) -> float:
        """:meth:`fitness` of *run*, whose block trace is *trace*.

        ``matched_by_trace`` maps the traces already scored against *target*
        to their matched guidance prefix; only the branch distance at the
        divergence depends on the inputs.
        """
        guidance, decisions = self._guidance(target)
        matched = matched_by_trace.get(trace)
        if matched is None:
            matched = matched_by_trace[trace] = _matched_prefix(guidance, trace)
        if matched == len(guidance):
            return 0.0
        approach = len(guidance) - matched
        if matched == 0:
            return float(approach) + 0.999
        diverged_at = guidance[matched - 1]
        return float(approach) + _divergence_distance(
            run, diverged_at, decisions.get(diverged_at, _NO_DECISION)
        )

    def _guidance(
        self, target: PathTarget
    ) -> tuple[tuple[int, ...], dict[int, tuple[str, tuple[int, ...]]]]:
        """Guidance path, and the desired decision at each guidance block.

        A decision is the kind of the outgoing edge the guidance path takes
        and, when a ``case`` edge leads to the same successor, its labels.
        """
        key = target.key
        cached = self._guidance_cache.get(key)
        if cached is not None:
            return cached
        cfg = self._board.cfg(self._function)
        from ..cfg.graph import EdgeKind

        # BFS from the entry block to the target's entry block (forward edges)
        start = cfg.entry.block_id
        goal = target.blocks[0]
        parents: dict[int, tuple[int, str]] = {}
        queue = deque([start])
        seen = {start}
        while queue:
            current = queue.popleft()
            if current == goal:
                break
            for edge in cfg.out_edges(current):
                if edge.kind is EdgeKind.BACK or edge.target in seen:
                    continue
                seen.add(edge.target)
                parents[edge.target] = (current, edge.kind.value)
                queue.append(edge.target)
        prefix: list[int] = []
        desired: dict[int, tuple[int, str]] = {}
        if goal in parents or goal == start:
            node = goal
            while node != start:
                previous, kind = parents[node]
                prefix.append(previous)
                desired[previous] = (node, kind)
                node = previous
            prefix.reverse()
        # drop the virtual entry block from the guidance sequence
        prefix = [block for block in prefix if block != cfg.entry.block_id]
        guidance = tuple(prefix) + tuple(target.blocks)
        for source, target_block, kind in target.edges:
            desired.setdefault(source, (target_block, kind))
        decisions: dict[int, tuple[str, tuple[int, ...]]] = {}
        for block, (successor, kind) in desired.items():
            labels = next(
                (
                    tuple(edge.case_values)
                    for edge in cfg.out_edges(block)
                    if edge.target == successor and edge.kind is EdgeKind.CASE
                ),
                (),
            )
            decisions[block] = (kind, labels)
        result = (guidance, decisions)
        self._guidance_cache[key] = result
        return result


#: the decision of a guidance block the guidance path leaves by no known edge
_NO_DECISION: tuple[str | None, tuple[int, ...]] = (None, ())


def _divergence_distance(
    run: RunResult, diverged_at: int, decision: tuple[str | None, tuple[int, ...]]
) -> float:
    """Normalised distance of the decision at *diverged_at* toward the desired one."""
    desired_kind, labels = decision
    # two-way branches: use the recorded branch distances
    for event in reversed(run.branch_events):
        if event.block_id == diverged_at:
            if desired_kind == "true" or desired_kind == "back":
                distance = event.distance_true
            elif desired_kind == "false":
                distance = event.distance_false
            else:
                distance = min(event.distance_true, event.distance_false)
            return _normalise(distance)
    # switch dispatches: distance between the scrutinee value and the label
    for event in reversed(run.switch_events):
        if event.block_id == diverged_at:
            if labels:
                return _normalise(float(min(abs(event.value - v) for v in labels)))
            return 0.5
    return 0.999


def _matched_prefix(guidance: tuple[int, ...], trace: tuple[int, ...]) -> int:
    """Length of the longest prefix of *guidance* that is a subsequence of *trace*."""
    matched = 0
    for block in trace:
        if block == guidance[matched]:
            matched += 1
            if matched == len(guidance):
                break
    return matched


def _normalise(distance: float) -> float:
    """Map a branch distance into [0, 1) (Tracey-style normalisation)."""
    if distance <= 0.0:
        return 0.0
    return distance / (distance + 1.0)
