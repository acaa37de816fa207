"""Tests of test-data generation: inputs, targets, random, GA, model checking, hybrid."""

from __future__ import annotations

import random
from types import SimpleNamespace

import pytest

from repro.cfg import build_cfg
from repro.hw import EvaluationBoard
from repro.minic import parse_and_analyze
from repro.minic.types import IntRange
from repro.partition import partition_function
from repro.testgen import (
    CoverageSource,
    CoverageTracker,
    GeneticOptions,
    GeneticTestDataGenerator,
    HybridOptions,
    HybridTestDataGenerator,
    InputSpace,
    InputVariable,
    ModelCheckingTestDataGenerator,
    RandomTestDataGenerator,
    TargetStatus,
    build_targets,
)


NEEDLE_SOURCE = """
#pragma input key
#pragma input level
#pragma range key 0 2000
#pragma range level 0 100
int key; int level; int out;
void f(void) {
    out = 0;
    if (key == 1234) {
        if (level > 90) {
            out = 2;
        } else {
            out = 1;
        }
    }
}
"""


@pytest.fixture(scope="module")
def needle():
    analyzed = parse_and_analyze(NEEDLE_SOURCE)
    cfg = build_cfg(analyzed.program.function("f"))
    partition = partition_function(analyzed.program.function("f"), 1, cfg)
    board = EvaluationBoard(analyzed)
    space = InputSpace.from_program(analyzed, "f")
    return analyzed, cfg, partition, board, space


def deep_needle_block(cfg) -> int:
    """The block assigning ``out = 2`` (requires key == 1234 and level > 90)."""
    from repro.minic.pretty import print_statement

    for block in cfg.real_blocks():
        for stmt in block.statements:
            if print_statement(stmt).strip() == "out = 2;":
                return block.block_id
    raise AssertionError("needle block not found")


class TestInputSpace:
    def test_from_program_reads_pragmas(self, needle):
        _, _, _, _, space = needle
        assert set(space.names) == {"key", "level"}
        assert space.ranges()["key"].hi == 2000
        assert space.size() == 2001 * 101

    def test_random_vector_within_ranges(self, needle):
        _, _, _, _, space = needle
        rng = random.Random(0)
        for _ in range(50):
            vector = space.random_vector(rng)
            assert 0 <= vector["key"] <= 2000
            assert 0 <= vector["level"] <= 100

    def test_clamp(self, needle):
        _, _, _, _, space = needle
        assert space.clamp({"key": 99999, "level": -5}) == {"key": 2000, "level": 0}

    def test_search_vectors_stay_in_range(self, needle):
        _, _, _, _, space = needle
        board = _RecordingBoard()
        options = GeneticOptions(population_size=8, max_generations=20, mutation_rate=1.0)
        generator = _ScoredGenerator(board, "f", space, options)
        generator.search(None, seed_vectors=[{"key": 99999, "level": -5}])
        assert board.vectors[0] == {"key": 2000, "level": 0}
        assert len(board.vectors) > 100
        for vector in board.vectors:
            assert list(vector) == ["key", "level"]
            assert 0 <= vector["key"] <= 2000 and 0 <= vector["level"] <= 100

    def test_genomes_are_vectors_in_variable_order(self, needle):
        _, _, _, _, space = needle
        assert space.genome({"level": 7, "key": 3}) == (3, 7)
        assert space.genome({"key": 99999, "level": -5}) == (2000, 0)
        # a variable the vector leaves out reads as its lower bound
        assert space.genome({"level": 7}) == (0, 7)
        assert space.vector((3, 7)) == {"key": 3, "level": 7}
        assert list(space.vector((3, 7))) == ["key", "level"]
        rng = random.Random(0)
        genome = space.random_genome(rng)
        assert space.genome(space.vector(genome)) == genome

    def test_function_parameters_are_inputs(self):
        analyzed = parse_and_analyze("void f(UInt8 p) { if (p) { act(); } }")
        space = InputSpace.from_program(analyzed, "f")
        assert space.names == ["p"] and space.ranges()["p"].hi == 255


def _stdlib_mutate(space, vector, rng, mutation_rate):
    """The GA's mutation written with ``randint`` and ``choice``."""
    mutated = dict(vector)
    for variable in space.variables:
        lo, hi = variable.value_range.lo, variable.value_range.hi
        if rng.random() >= mutation_rate:
            continue
        choice = rng.random()
        if choice < 1.0 / 3.0:
            mutated[variable.name] = rng.randint(lo, hi)
            continue
        if choice < 2.0 / 3.0:
            span = max(1, variable.value_range.size() // 16)
            delta = rng.randint(-span, span)
        else:
            delta = rng.choice([-4, -3, -2, -1, 1, 2, 3, 4])
        mutated[variable.name] = min(hi, max(lo, mutated[variable.name] + delta))
    return mutated


def _stdlib_crossover(space, left, right, rng):
    return {
        variable.name: (left if rng.random() < 0.5 else right).get(
            variable.name, variable.value_range.lo
        )
        for variable in space.variables
    }


def _stdlib_search(space, options, seeds, score):
    """The GA of :meth:`GeneticTestDataGenerator.search` on dict vectors,
    written with ``randint``, ``sample``, ``min`` and the stdlib operators.

    Returns (winning vector or None, every evaluated vector, the generator).
    """
    rng = random.Random(options.seed)
    evaluated = []

    def evaluate(vector):
        evaluated.append(vector)
        return score(vector)

    vectors = [space.clamp(vector) for vector in seeds[: options.population_size]]
    while len(vectors) < options.population_size:
        vectors.append(
            {
                variable.name: rng.randint(variable.value_range.lo, variable.value_range.hi)
                for variable in space.variables
            }
        )
    population = []
    for vector in vectors:
        fitness = evaluate(vector)
        if fitness == 0.0:
            return vector, evaluated, rng
        population.append((vector, fitness))
    for _ in range(options.max_generations):
        population.sort(key=lambda individual: individual[1])
        next_population = population[: options.elitism]
        while len(next_population) < options.population_size:
            k = min(options.tournament_size, len(population))
            parent_a = min(rng.sample(population, k), key=lambda individual: individual[1])
            parent_b = min(rng.sample(population, k), key=lambda individual: individual[1])
            if rng.random() < options.crossover_rate:
                child = _stdlib_crossover(space, parent_a[0], parent_b[0], rng)
            else:
                child = dict(parent_a[0])
            child = _stdlib_mutate(space, child, rng, options.mutation_rate)
            fitness = evaluate(child)
            if fitness == 0.0:
                return child, evaluated, rng
            next_population.append((child, fitness))
        population = next_population
    return None, evaluated, rng


class TestEnumeration:
    def test_genomes_in_product_order(self):
        space = InputSpace(
            [InputVariable("b", IntRange(0, 1)), InputVariable("a", IntRange(5, 7))]
        )
        assert space.genomes() == [(0, 5), (0, 6), (0, 7), (1, 5), (1, 6), (1, 7)]
        assert InputSpace().genomes() == [()]

    def test_too_large_a_space_raises(self, needle):
        from repro.testgen.inputs import InputSpaceTooLarge

        _, _, _, _, space = needle
        with pytest.raises(InputSpaceTooLarge):
            space.genomes(limit=space.size() - 1)


class _RecordingBoard:
    """A board stand-in that records every vector it runs."""

    def __init__(self):
        self.vectors = []

    def run(self, function, inputs):
        self.vectors.append(dict(inputs))
        return SimpleNamespace(trace=(), inputs=inputs)


def _score(vector):
    """Five fitness levels, so ties are common; rarely 0 (a hit)."""
    weighted = sum((index + 3) * value for index, value in enumerate(vector.values()))
    return 0.0 if weighted % 1009 == 0 else 1.0 + weighted % 5


class _ScoredGenerator(GeneticTestDataGenerator):
    """Scores a run by its input vector alone (:func:`_score`)."""

    def _fitness(self, run, trace, target, matched_by_trace):
        return _score(run.inputs)


class TestStreamIdentity:
    """The GA's draws against the stdlib calls they replace.

    Each search must evaluate the vectors the ``randint``/``choice``/
    ``sample`` version evaluates and leave the generator in the same state,
    so every search sees the same vectors.
    """

    SPACE = InputSpace(
        variables=[
            InputVariable(name, IntRange(lo, hi))
            for name, lo, hi in (
                ("fixed", 7, 7),
                ("pair", 0, 1),
                ("small", -3, 12),
                ("odd", 5, 37),
                ("wide", 0, 30000),
                ("signed", -32768, 32767),
                ("huge", -(2**39), 2**41),
            )
        ]
    )

    def test_random_genome_matches_randint(self):
        space = self.SPACE
        for seed in range(300):
            mine, theirs = random.Random(seed), random.Random(seed)
            for _ in range(3):
                genome = space.random_genome(mine)
                vector = space.random_vector(mine)
                expected = [
                    {
                        variable.name: theirs.randint(
                            variable.value_range.lo, variable.value_range.hi
                        )
                        for variable in space.variables
                    }
                    for _ in range(2)
                ]
                assert space.vector(genome) == expected[0]
                assert vector == expected[1] and list(vector) == list(expected[1])
            assert mine.getstate() == theirs.getstate()

    def _assert_same_search(self, space, options, seeds):
        board = _RecordingBoard()
        generator = _ScoredGenerator(board, "f", space, options)
        outcome = generator.search(None, seed_vectors=seeds)
        winner, evaluated, reference = _stdlib_search(space, options, seeds, _score)
        # a search runs each distinct vector once, in first-evaluation order
        distinct = list(dict.fromkeys(tuple(vector.values()) for vector in evaluated))
        assert [tuple(vector.values()) for vector in board.vectors] == distinct
        assert outcome.evaluations == len(evaluated)
        assert outcome.covered == (winner is not None)
        assert outcome.vector == winner
        assert generator._rng.getstate() == reference.getstate()

    def test_searches_match_the_stdlib_ga(self):
        space = self.SPACE
        seeds = [
            {"fixed": 7, "pair": 1, "small": 40, "odd": 5, "wide": 3, "signed": -1, "huge": 0},
            {"pair": 0},
        ]
        for seed in range(12):
            for rate in (0.3, 0.9, 1.0):
                options = GeneticOptions(
                    population_size=12, max_generations=6, mutation_rate=rate, seed=seed
                )
                self._assert_same_search(space, options, seeds if seed % 2 else [])

    def test_tournament_matches_sample_and_min(self):
        # both of sample()'s strategies: a shrinking pool for small
        # populations, distinct random indices for large ones
        space = InputSpace(
            variables=[InputVariable(name, IntRange(0, 9)) for name in ("a", "b")]
        )
        for population_size in (1, 2, 3, 5, 8, 13, 21, 22, 30, 45, 64):
            for tournament_size in range(1, 9):
                seed = 100 * population_size + tournament_size
                options = GeneticOptions(
                    population_size=population_size,
                    max_generations=3,
                    tournament_size=tournament_size,
                    seed=seed,
                )
                self._assert_same_search(space, options, [])


class TestTargetsAndCoverage:
    def test_targets_cover_every_segment_path(self, needle):
        _, cfg, partition, _, _ = needle
        targets = build_targets(partition, cfg)
        per_segment: dict[int, int] = {}
        for target in targets:
            per_segment[target.segment_id] = per_segment.get(target.segment_id, 0) + 1
        for segment in partition.segments:
            assert per_segment[segment.segment_id] == segment.path_count

    def test_coverage_tracker_records_runs(self, needle):
        _, cfg, partition, board, _ = needle
        tracker = CoverageTracker.create(partition, cfg)
        assert not tracker.is_complete()
        newly = tracker.record_run(board.run("f", {"key": 0, "level": 0}))
        assert newly
        assert 0.0 < tracker.coverage_ratio() < 1.0

    def test_duplicate_runs_do_not_recover_targets(self, needle):
        _, cfg, partition, board, _ = needle
        tracker = CoverageTracker.create(partition, cfg)
        first = tracker.record_run(board.run("f", {"key": 0, "level": 0}))
        second = tracker.record_run(board.run("f", {"key": 1, "level": 0}))
        assert first and not second

    def test_figure1_has_eleven_targets_at_block_granularity(self, figure1, figure1_cfg):
        partition = partition_function(figure1.program.function("main"), 1, figure1_cfg)
        targets = build_targets(partition, figure1_cfg)
        assert len(targets) == 11


def _reference_record_run(tracker, covered, run):
    """The original per-segment scan of ``CoverageTracker.record_run``.

    Each segment re-scans the whole block trace for its first traversal,
    and each new key is matched by a linear search over the targets.
    """
    newly = []
    executed = run.trace
    for segment in tracker.partition.segments:
        inside = []
        started = False
        for block_id in executed:
            if not started:
                if block_id == segment.entry_block:
                    started = True
                    inside.append(block_id)
                continue
            if block_id in segment.block_ids:
                inside.append(block_id)
            else:
                break
        observed = tuple(inside)
        if not observed:
            continue
        key = (segment.segment_id, observed)
        if key in covered:
            continue
        target = next((t for t in tracker.targets if t.key == key), None)
        if target is None:
            continue
        covered[key] = dict(run.inputs)
        newly.append(target)
    return newly


class TestSinglePassCoverage:
    """``record_run`` against the per-segment scan it replaced."""

    @staticmethod
    def _compare(analyzed, function, path_bound, vectors):
        cfg = build_cfg(analyzed.program.function(function))
        partition = partition_function(analyzed.program.function(function), path_bound, cfg)
        board = EvaluationBoard(analyzed)
        tracker = CoverageTracker.create(partition, cfg)
        covered: dict = {}
        repeated_entries = 0
        for vector in vectors:
            run = board.run(function, vector)
            assert tracker.record_run(run) == _reference_record_run(tracker, covered, run)
            executed = run.trace
            repeated_entries += sum(
                executed.count(segment.entry_block) > 1 for segment in partition.segments
            )
        assert list(tracker.covered.items()) == list(covered.items())
        return tracker, repeated_entries

    @pytest.mark.parametrize("seed", [11, 2, 5])
    def test_controller_runs(self, seed):
        from repro.workloads.targetlink import generate_small_application

        app = generate_small_application(seed=seed)
        analyzed = parse_and_analyze(app.source)
        space = InputSpace.from_program(analyzed, app.function_name)
        rng = random.Random(seed)
        vectors = [space.random_vector(rng) for _ in range(400)]
        tracker, _ = self._compare(analyzed, app.function_name, 4, vectors)
        assert 0.2 < tracker.coverage_ratio() < 1.0

    #: the loop body takes one branch on the first iterations and the other
    #: later, so a segment's first traversal differs from its later ones
    LOOP_SOURCE = """
    #pragma input n
    #pragma range n 0 6
    int n; int total;
    void walk(void) {
        int i;
        total = 0;
        i = 0;
        #pragma loopbound(6)
        while (i < n) {
            if (i < 2) {
                total = total + 1;
            } else {
                total = total + i;
            }
            i = i + 1;
        }
    }
    """

    @pytest.mark.parametrize("path_bound", [1, 2, 4])
    def test_loop_whose_segment_entries_repeat(self, path_bound):
        vectors = [{"n": n} for n in (6, 0, 3, 1, 6, 2, 5)]
        _, repeated_entries = self._compare(
            parse_and_analyze(self.LOOP_SOURCE), "walk", path_bound, vectors
        )
        assert repeated_entries > 0


class TestRandomGenerator:
    def test_deterministic_given_seed(self, needle):
        _, _, _, _, space = needle
        first = RandomTestDataGenerator(space, seed=7).generate(10)
        second = RandomTestDataGenerator(space, seed=7).generate(10)
        assert first == second

    def test_random_alone_misses_the_needle(self, needle):
        """Random testing almost surely misses key == 1234 (motivation for GA/MC)."""
        _, cfg, partition, board, space = needle
        tracker = CoverageTracker.create(partition, cfg)
        for vector in RandomTestDataGenerator(space, seed=11).generate(300):
            tracker.record_run(board.run("f", vector))
        uncovered = tracker.uncovered_targets()
        assert uncovered, "the needle path should not be found by 300 random vectors"


class TestGeneticGenerator:
    def test_ga_finds_the_needle(self, needle):
        analyzed, cfg, partition, board, space = needle
        tracker = CoverageTracker.create(partition, cfg)
        for vector in RandomTestDataGenerator(space, seed=5).generate(50):
            tracker.record_run(board.run("f", vector))
        generator = GeneticTestDataGenerator(
            board, "f", space, GeneticOptions(population_size=40, max_generations=60, seed=5)
        )
        deep_block = deep_needle_block(cfg)
        needle_targets = [
            t for t in tracker.uncovered_targets() if t.blocks == (deep_block,)
        ]
        assert needle_targets
        # search for the deep `out = 2` block (key == 1234 and level > 90)
        target = needle_targets[0]
        outcome = generator.search(target, coverage=tracker)
        assert outcome.covered
        run = board.run("f", outcome.vector)
        assert target.blocks[0] in run.trace

    def test_fitness_zero_iff_path_taken(self, needle):
        analyzed, cfg, partition, board, space = needle
        targets = build_targets(partition, cfg)
        generator = GeneticTestDataGenerator(board, "f", space)
        hit_run = board.run("f", {"key": 1234, "level": 95})
        deep_block = max(b.block_id for b in cfg.real_blocks())
        for target in targets:
            fitness = generator.fitness(hit_run, target)
            if set(target.blocks) <= set(hit_run.trace):
                assert fitness == 0.0
            else:
                assert fitness > 0.0
        del deep_block

    def test_fitness_monotone_in_branch_distance(self, needle):
        analyzed, cfg, partition, board, space = needle
        targets = build_targets(partition, cfg)
        # target: the block guarded by key == 1234
        guarded = next(t for t in targets if len(t.blocks) == 1 and t.blocks[0] != 2)
        generator = GeneticTestDataGenerator(board, "f", space)
        far = generator.fitness(board.run("f", {"key": 0, "level": 0}), guarded)
        near = generator.fitness(board.run("f", {"key": 1230, "level": 0}), guarded)
        assert near <= far

    def test_statistics_updated(self, needle):
        analyzed, cfg, partition, board, space = needle
        generator = GeneticTestDataGenerator(
            board, "f", space, GeneticOptions(population_size=6, max_generations=2, seed=1)
        )
        targets = build_targets(partition, cfg)
        generator.search(targets[0])
        assert generator.statistics.targets_attempted == 1
        assert generator.statistics.evaluations > 0


#: 64 input vectors, so one search (budget 1230 evaluations) revisits most;
#: ``a + b == 20`` is unreachable, so that target's search runs to the end
SMALL_SPACE_SOURCE = """
#pragma input a
#pragma input b
#pragma range a 0 7
#pragma range b 0 7
int a; int b; int out;
void f(void) {
    out = 0;
    if (a == 5) {
        if (b > 6) { out = 1; }
        if (a + b == 20) { out = 2; }
    }
}
"""


class TestGeneticFitnessReuse:
    @staticmethod
    def _search_all(board, analyzed, cfg, partition):
        space = InputSpace.from_program(analyzed, "f")
        tracker = CoverageTracker.create(partition, cfg)
        generator = GeneticTestDataGenerator(board, "f", space, GeneticOptions(seed=4))
        outcomes = [
            generator.search(target, coverage=tracker)
            for target in build_targets(partition, cfg)
        ]
        return generator, tracker, outcomes

    @pytest.fixture(scope="class")
    def small_space(self):
        analyzed = parse_and_analyze(SMALL_SPACE_SOURCE)
        cfg = build_cfg(analyzed.program.function("f"))
        partition = partition_function(analyzed.program.function("f"), 1, cfg)
        return analyzed, cfg, partition

    def test_outcomes_are_pinned(self, small_space):
        """The same vectors, evaluation counts and fitness as without reuse."""
        analyzed, cfg, partition = small_space
        board = EvaluationBoard(analyzed)
        generator, tracker, outcomes = self._search_all(board, analyzed, cfg, partition)
        assert [
            (o.target.blocks, o.vector, o.evaluations, o.best_fitness) for o in outcomes
        ] == [
            ((2,), {"a": 3, "b": 4}, 1, 0.0),
            ((3,), {"a": 5, "b": 2}, 9, 0.0),
            ((4,), {"a": 5, "b": 7}, 31, 0.0),
            ((5,), {"a": 5, "b": 7}, 9, 0.0),
            ((6,), None, 1150, 1.8888888888888888),
        ]
        assert generator.statistics.evaluations == 1200
        assert len(tracker.covered) == 4
        # each search runs a vector once, not once per evaluation: 97 is the
        # number of distinct vectors per search, summed over the five
        assert board.runs == 97

    def test_armed_injector_runs_every_evaluation(self, small_space):
        from repro.resilience import (
            FaultInjector,
            FaultPlan,
            ResilienceContext,
            activate,
        )

        analyzed, cfg, partition = small_space
        board = EvaluationBoard(analyzed)
        plan = FaultPlan.from_args(["interp.step:raise@1000000"])
        with activate(ResilienceContext(injector=FaultInjector(plan))):
            generator, _, outcomes = self._search_all(board, analyzed, cfg, partition)
        assert board.runs == generator.statistics.evaluations == 1200
        assert outcomes[-1].best_fitness == 1.8888888888888888


class TestSharedSeedRuns:
    """The searches of one generator run each seed vector once."""

    SEEDS = [{"a": 1, "b": 2}, {"a": 6, "b": 0}, {"a": 9, "b": 9}]

    def _search_all(self, small_space):
        """(vectors each search ran on the board, outcomes) of one phase."""
        analyzed, cfg, partition = small_space
        ran = []

        class RecordingBoard(EvaluationBoard):
            def run(self, function_name, inputs=None):
                ran[-1].append(dict(inputs))
                return super().run(function_name, inputs)

        board = RecordingBoard(analyzed)
        space = InputSpace.from_program(analyzed, "f")
        generator = GeneticTestDataGenerator(board, "f", space, GeneticOptions(seed=4))
        outcomes = []
        for target in build_targets(partition, cfg):
            ran.append([])
            outcomes.append(generator.search(target, seed_vectors=self.SEEDS))
        return ran, outcomes

    @pytest.fixture(scope="class")
    def small_space(self):
        analyzed = parse_and_analyze(SMALL_SPACE_SOURCE)
        cfg = build_cfg(analyzed.program.function("f"))
        partition = partition_function(analyzed.program.function("f"), 1, cfg)
        return analyzed, cfg, partition

    def test_each_seed_runs_once_per_phase(self, small_space):
        ran, outcomes = self._search_all(small_space)
        clamped = [{"a": 1, "b": 2}, {"a": 6, "b": 0}, {"a": 7, "b": 7}]
        # the first search finds its target with the first seed
        assert ran[0] == clamped[:1] and outcomes[0].evaluations == 1
        assert len(outcomes) == 5 and all(o.evaluations >= 3 for o in outcomes[1:])
        runs_of_seeds = [
            sum(vector == seed for search in ran for vector in search) for seed in clamped
        ]
        assert runs_of_seeds == [1, 1, 1]

    def test_armed_injector_reruns_the_seeds(self, small_space):
        from repro.resilience import (
            FaultInjector,
            FaultPlan,
            ResilienceContext,
            activate,
        )

        _, clean = self._search_all(small_space)
        plan = FaultPlan.from_args(["interp.step:raise@1000000"])
        with activate(ResilienceContext(injector=FaultInjector(plan))):
            ran, outcomes = self._search_all(small_space)
        assert [len(search) for search in ran] == [o.evaluations for o in outcomes]
        assert [(o.vector, o.evaluations, o.best_fitness) for o in outcomes] == [
            (o.vector, o.evaluations, o.best_fitness) for o in clean
        ]


class TestPerTraceMemos:
    """The trace and approach-level memos against recomputation on every run.

    One analysis of controller 11 is recorded: every trace the coverage
    tracker is handed, with what it returned, and every fitness a genetic
    search computed, next to the fitness a fresh generator computes for the
    same run and target.
    """

    @pytest.fixture(scope="class")
    def recorded(self):
        from types import SimpleNamespace

        from repro.pipeline.analyzer import WcetAnalyzer
        from repro.testgen.genetic import _matched_prefix
        from repro.workloads.targetlink import generate_small_application

        record_trace = CoverageTracker.record_trace
        fitness = GeneticTestDataGenerator._fitness
        recorded = SimpleNamespace(trackers=[], traces=[], scores=[])
        fresh_scoring = False

        def recording_record_trace(tracker, trace, inputs):
            newly = record_trace(tracker, trace, inputs)
            if not any(seen is tracker for seen in recorded.trackers):
                recorded.trackers.append(tracker)
            recorded.traces.append((trace, dict(inputs), newly))
            return newly

        def recording_fitness(generator, run, trace, target, matched_by_trace):
            nonlocal fresh_scoring
            value = fitness(generator, run, trace, target, matched_by_trace)
            if fresh_scoring:
                return value
            fresh_scoring = True
            try:
                # a generator per pair, so no memo can carry over
                fresh = GeneticTestDataGenerator(
                    generator._board, generator._function, generator._space
                ).fitness(run, target)
            finally:
                fresh_scoring = False
            guidance, _ = generator._guidance(target)
            matched = _matched_prefix(guidance, run.trace)
            at_switch = 0 < matched < len(guidance) and any(
                event.block_id == guidance[matched - 1] for event in run.switch_events
            )
            recorded.scores.append((target.key, trace, value, fresh, at_switch))
            return value

        app = generate_small_application(seed=11)
        analyzed = parse_and_analyze(app.source)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(CoverageTracker, "record_trace", recording_record_trace)
            patch.setattr(GeneticTestDataGenerator, "_fitness", recording_fitness)
            WcetAnalyzer(analyzed, app.function_name).analyze()
        return recorded

    def test_skipped_traces_cover_what_a_full_scan_covers(self, recorded):
        from types import SimpleNamespace

        assert len(recorded.trackers) == 1
        tracker = recorded.trackers[0]
        covered: dict = {}
        for trace, inputs, newly in recorded.traces:
            run = SimpleNamespace(trace=tuple(trace), inputs=inputs)
            assert newly == _reference_record_run(tracker, covered, run)
        assert list(tracker.covered.items()) == list(covered.items())
        # most runs repeat an earlier trace, so most were skipped
        distinct = {trace for trace, _, _ in recorded.traces}
        assert 10 * len(distinct) < len(recorded.traces)

    def test_memoised_fitness_equals_fresh_fitness(self, recorded):
        for key, _, value, fresh, _ in recorded.scores:
            assert value == fresh, key
        # the memo answered most evaluations, across several targets, and
        # switch divergences were among them
        distinct = {(key, trace) for key, trace, _, _, _ in recorded.scores}
        assert 10 * len(distinct) < len(recorded.scores)
        assert len({key for key, _, _, _, _ in recorded.scores}) > 1
        assert any(at_switch for _, _, _, _, at_switch in recorded.scores)


class TestModelCheckingGenerator:
    def test_covers_the_needle_exactly(self, needle):
        analyzed, cfg, partition, board, _ = needle
        targets = build_targets(partition, cfg)
        generator = ModelCheckingTestDataGenerator(analyzed, "f")
        deep_target = next(t for t in targets if t.blocks == (deep_needle_block(cfg),))
        outcome = generator.generate_for_target(deep_target)
        assert outcome.status is TargetStatus.COVERED
        run = board.run("f", outcome.vector)
        assert deep_target.blocks[0] in run.trace
        assert outcome.vector["key"] == 1234 and outcome.vector["level"] > 90

    def test_detects_infeasible_paths(self, figure1, figure1_cfg):
        partition = partition_function(figure1.program.function("main"), 2, figure1_cfg)
        targets = build_targets(partition, figure1_cfg)
        generator = ModelCheckingTestDataGenerator(figure1, "main")
        outcomes = generator.generate_for_targets(targets)
        statuses = [o.status for o in outcomes]
        assert TargetStatus.INFEASIBLE in statuses  # the printf5 path
        assert statuses.count(TargetStatus.COVERED) == len(statuses) - 1

    def test_statistics_accumulate(self, needle):
        analyzed, cfg, partition, _, _ = needle
        generator = ModelCheckingTestDataGenerator(analyzed, "f")
        generator.generate_for_targets(build_targets(partition, cfg)[:3])
        assert generator.statistics.queries == 3
        assert generator.statistics.total_time_seconds >= 0.0


class TestHybridGenerator:
    def test_full_coverage_of_needle_program(self, needle):
        analyzed, cfg, partition, board, _ = needle
        options = HybridOptions(
            plateau_patterns=40,
            max_random_vectors=200,
            genetic=GeneticOptions(population_size=20, max_generations=10, seed=3),
            seed=3,
        )
        generator = HybridTestDataGenerator(analyzed, "f", board, partition, cfg, options)
        suite = generator.generate()
        assert suite.is_complete()
        assert suite.summary()["uncovered"] == 0
        # the needle paths are beyond plain random testing, so the exact
        # phases (GA or model checking) must have contributed
        assert suite.heuristic_share <= 1.0
        assert len(suite.vectors) >= 3

    def test_hybrid_marks_infeasible_paths(self, figure1, figure1_cfg):
        partition = partition_function(figure1.program.function("main"), 2, figure1_cfg)
        board = EvaluationBoard(figure1)
        options = HybridOptions(plateau_patterns=20, max_random_vectors=50, seed=1)
        generator = HybridTestDataGenerator(
            figure1, "main", board, partition, figure1_cfg, options
        )
        suite = generator.generate()
        assert suite.is_complete()
        assert len(suite.infeasible_targets) == 1

    def test_phases_can_be_disabled(self, figure1, figure1_cfg):
        partition = partition_function(figure1.program.function("main"), 1, figure1_cfg)
        board = EvaluationBoard(figure1)
        options = HybridOptions(
            plateau_patterns=10, max_random_vectors=30,
            use_genetic=False, use_model_checking=False, seed=2,
        )
        generator = HybridTestDataGenerator(
            figure1, "main", board, partition, figure1_cfg, options
        )
        suite = generator.generate()
        assert suite.model_checking_queries == 0
        assert suite.genetic_evaluations == 0

    def test_report_provenance_complete(self, figure1, figure1_cfg):
        partition = partition_function(figure1.program.function("main"), 2, figure1_cfg)
        board = EvaluationBoard(figure1)
        generator = HybridTestDataGenerator(
            figure1, "main", board, partition, figure1_cfg,
            HybridOptions(plateau_patterns=10, max_random_vectors=30, seed=4),
        )
        suite = generator.generate()
        targets = build_targets(partition, figure1_cfg)
        assert len(suite.reports) == len(targets)
        for report in suite.reports:
            if report.source in (CoverageSource.RANDOM, CoverageSource.GENETIC,
                                 CoverageSource.MODEL_CHECKING):
                assert report.vector is not None


#: ten input vectors; the ``x > 100`` target is never covered, so the first
#: phase runs every vector it is allowed to
TEN_VECTORS_SOURCE = """
#pragma input x
#pragma range x 0 9
int x; int out;
void f(void) {
    out = 0;
    if (x > 100) { out = 2; }
    if (x == 3) { out = 1; }
}
"""

#: sixteen vectors whose runs each pass one ``interp.step`` fault site
#: (over 1024 steps); only ``x == 15`` takes the last branch
LOOPING_SOURCE = """
#pragma input x
#pragma range x 0 15
int x; int out;
void f(void) {
    int i;
    out = 0;
    for (i = 0; i < 100; i = i + 1) { out = out + x; }
    if (x == 15) { out = 1; }
}
"""


class TestFirstPhase:
    """A space of at most ``max_random_vectors`` vectors runs as a seeded
    permutation, once each; a larger one is sampled."""

    def _generate(self, source, **options):
        analyzed = parse_and_analyze(source)
        cfg = build_cfg(analyzed.program.function("f"))
        partition = partition_function(analyzed.program.function("f"), 2, cfg)
        ran = []

        class RecordingBoard(EvaluationBoard):
            def run(self, function_name, inputs=None):
                ran.append(dict(inputs))
                return super().run(function_name, inputs)

        generator = HybridTestDataGenerator(
            analyzed,
            "f",
            RecordingBoard(analyzed),
            partition,
            cfg,
            HybridOptions(use_model_checking=False, seed=5, **options),
        )
        space = InputSpace.from_program(analyzed, "f")
        return generator.generate(), ran, space

    def test_a_space_at_the_cap_is_permuted(self):
        suite, ran, space = self._generate(TEN_VECTORS_SOURCE, max_random_vectors=10)
        genomes = space.genomes()
        random.Random(5).shuffle(genomes)
        # every vector once, in the seeded order, and no search after it
        assert ran == [space.vector(genome) for genome in genomes]
        assert suite.random_vectors_used == 10
        assert suite.genetic_evaluations == 0
        assert len(suite.uncovered_targets) == 1

    def test_one_vector_over_the_cap_is_sampled(self):
        suite, ran, space = self._generate(TEN_VECTORS_SOURCE, max_random_vectors=9)
        assert ran[:9] == RandomTestDataGenerator(space, seed=5).generate(9)
        assert len(set(map(tuple, (v.values() for v in ran[:9])))) < 9
        assert suite.random_vectors_used == 9
        # the genetic phase searches the uncovered target
        assert suite.genetic_evaluations > 0 and len(ran) > 9

    def test_the_plateau_does_not_stop_a_permutation(self):
        suite, ran, _ = self._generate(
            TEN_VECTORS_SOURCE, max_random_vectors=10, plateau_patterns=1
        )
        assert suite.random_vectors_used == len(ran) == 10

    def test_a_fault_in_the_permutation_runs_the_genetic_phase_and_degrades(self):
        from repro.pipeline import AnalyzerConfig
        from repro.pipeline.analyzer import WcetAnalyzer
        from repro.resilience import (
            FaultInjector,
            FaultPlan,
            ResilienceContext,
            activate,
        )

        analyzed = parse_and_analyze(LOOPING_SOURCE)
        clean = WcetAnalyzer(analyzed, "f", AnalyzerConfig()).analyze()
        assert clean.generator_statistics["genetic_evaluations"] == 0
        assert not clean.degraded
        # one fault-site hit per run: fail the run just before x == 15's
        space = InputSpace.from_program(analyzed, "f")
        genomes = space.genomes()
        random.Random(AnalyzerConfig().hybrid.seed).shuffle(genomes)
        hit = genomes.index((15,))
        assert 2 <= hit < len(genomes) - 1
        plan = FaultPlan.from_args([f"interp.step:raise@{hit}"])
        with activate(ResilienceContext(injector=FaultInjector(plan))):
            report = WcetAnalyzer(analyzed, "f", AnalyzerConfig()).analyze()
        assert report.fault_events[0].startswith("random phase cut short")
        # the runs before the failed one count
        assert report.generator_statistics["random_vectors_used"] == hit - 1
        assert report.generator_statistics["genetic_evaluations"] > 0
        assert report.degraded
        assert report.wcet_bound_cycles >= clean.wcet_bound_cycles
