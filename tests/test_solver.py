"""Tests of the finite-domain constraint solver."""

from __future__ import annotations

import random

import pytest

from repro.minic.folding import expression_variables
from repro.minic.intervals import RangeEnvironment, SoundEvaluator
from repro.minic.parser import parse_expression
from repro.minic.types import IntRange
from repro.solver import (
    Constraint,
    ConstraintSolver,
    Domain,
    EmptyDomainError,
    Satisfaction,
    SolverLimitReached,
    concrete_eval,
    substitute,
)
from repro.solver.constraints import PropagationConflict
from repro.solver.search import _ENUMERATION_LIMIT


def interval_eval(expr, domains):
    """The solver's interval of *expr*: the shared evaluator over the bounds
    of *domains* (an unbound name gets its expression's type range)."""
    ranges = {name: domain.to_range() for name, domain in domains.items()}
    return SoundEvaluator({}).evaluate(expr, RangeEnvironment(ranges))


class TestDomain:
    def test_membership_and_size(self):
        domain = Domain(0, 10)
        assert 0 in domain and 10 in domain and 11 not in domain
        assert domain.size() == 11

    def test_excluded_values(self):
        domain = Domain(0, 5).remove_value(3)
        assert 3 not in domain and domain.size() == 5

    def test_remove_boundary_value_tightens_bounds(self):
        domain = Domain(0, 5).remove_value(0)
        assert domain.lo == 1

    def test_singleton(self):
        domain = Domain.singleton(7)
        assert domain.is_singleton() and domain.single_value() == 7

    def test_restrict_bounds(self):
        domain = Domain(0, 100).restrict_bounds(lo=10, hi=20)
        assert (domain.lo, domain.hi) == (10, 20)

    def test_empty_restriction_raises(self):
        with pytest.raises(EmptyDomainError):
            Domain(0, 5).restrict_bounds(lo=6)

    def test_removing_last_value_raises(self):
        with pytest.raises(EmptyDomainError):
            Domain.singleton(1).remove_value(1)

    def test_split_covers_domain(self):
        left, right = Domain(0, 9).split()
        assert left.hi + 1 == right.lo
        assert left.lo == 0 and right.hi == 9

    def test_iter_values_skips_holes(self):
        domain = Domain(0, 4).remove_value(2)
        assert list(domain.iter_values()) == [0, 1, 3, 4]

    def test_from_range(self):
        domain = Domain.from_range(IntRange(-3, 3))
        assert domain.bits() == 3


class TestExpressionEvaluation:
    def test_concrete_eval(self):
        expr = parse_expression("a * 2 + b")
        assert concrete_eval(expr, {"a": 3, "b": 1}) == 7

    def test_concrete_eval_short_circuit(self):
        expr = parse_expression("a != 0 && 10 / a > 1")
        assert concrete_eval(expr, {"a": 0}) == 0

    def test_concrete_eval_wraps_like_the_board(self):
        # an untyped result wraps at Int16: 61461 is -4075
        assert concrete_eval(parse_expression("a * 3"), {"a": 20487}) == -4075
        assert concrete_eval(parse_expression("(Int8)a"), {"a": 3221}) == -107

    def test_interval_eval_widens_a_narrowing_cast(self):
        expr = parse_expression("(Int8)a < 0")
        assert interval_eval(expr, {"a": Domain(0, 30000)}) == IntRange(0, 1)
        status = Constraint(expr).status({"a": Domain(0, 30000)})
        assert status is Satisfaction.UNKNOWN

    def test_interval_eval_addition(self):
        expr = parse_expression("a + b")
        result = interval_eval(expr, {"a": Domain(0, 10), "b": Domain(5, 6)})
        assert (result.lo, result.hi) == (5, 16)

    def test_interval_eval_comparison_definite(self):
        expr = parse_expression("a < 100")
        result = interval_eval(expr, {"a": Domain(0, 10)})
        assert (result.lo, result.hi) == (1, 1)

    def test_interval_eval_comparison_unknown(self):
        expr = parse_expression("a < 5")
        result = interval_eval(expr, {"a": Domain(0, 10)})
        assert (result.lo, result.hi) == (0, 1)

    def test_substitute_folds_constants(self):
        expr = parse_expression("a + b * 2")
        substituted = substitute(expr, {"a": 1, "b": 3})
        from repro.minic.ast_nodes import IntLiteral

        assert isinstance(substituted, IntLiteral) and substituted.value == 7

    def test_substitute_partial(self):
        expr = parse_expression("a + b")
        substituted = substitute(expr, {"a": 1})
        from repro.minic.folding import expression_variables

        assert expression_variables(substituted) == {"b"}

    def test_substitute_with_expression_values(self):
        expr = parse_expression("t > 10")
        substituted = substitute(expr, {"t": parse_expression("u + 1")})
        from repro.minic.folding import expression_variables

        assert expression_variables(substituted) == {"u"}


class TestConstraintFiltering:
    def test_status_satisfied(self):
        constraint = Constraint(parse_expression("a >= 0"))
        assert constraint.status({"a": Domain(0, 5)}) is Satisfaction.SATISFIED

    def test_status_violated(self):
        constraint = Constraint(parse_expression("a > 10"))
        assert constraint.status({"a": Domain(0, 5)}) is Satisfaction.VIOLATED

    def test_status_unknown(self):
        constraint = Constraint(parse_expression("a == 3"))
        assert constraint.status({"a": Domain(0, 5)}) is Satisfaction.UNKNOWN

    def test_propagate_equality(self):
        constraint = Constraint(parse_expression("a == 3"))
        narrowed = constraint.propagate({"a": Domain(0, 5)})
        assert narrowed["a"].is_singleton() and narrowed["a"].single_value() == 3

    def test_propagate_inequality_bounds(self):
        constraint = Constraint(parse_expression("a < b"))
        narrowed = constraint.propagate({"a": Domain(0, 10), "b": Domain(0, 4)})
        assert narrowed["a"].hi == 3

    def test_propagate_conjunction(self):
        constraint = Constraint(parse_expression("a >= 2 && a <= 4"))
        narrowed = constraint.propagate({"a": Domain(0, 10)})
        assert (narrowed["a"].lo, narrowed["a"].hi) == (2, 4)

    def test_propagate_negated_comparison(self):
        constraint = Constraint(parse_expression("!(a > 3)"))
        narrowed = constraint.propagate({"a": Domain(0, 10)})
        assert narrowed["a"].hi == 3

    def test_check_concrete(self):
        constraint = Constraint(parse_expression("a + b == 5"))
        assert constraint.check({"a": 2, "b": 3})
        assert not constraint.check({"a": 2, "b": 2})


class TestSolver:
    def test_simple_equality(self):
        solver = ConstraintSolver({"x": IntRange(0, 100)})
        solution = solver.solve([Constraint(parse_expression("x == 42"))])
        assert solution is not None and solution.assignment["x"] == 42

    def test_conjunction_of_comparisons(self):
        solver = ConstraintSolver({"x": IntRange(0, 255), "y": IntRange(0, 255)})
        solution = solver.solve(
            [
                Constraint(parse_expression("x > 200")),
                Constraint(parse_expression("y == x - 100")),
            ]
        )
        assert solution is not None
        assert solution.assignment["x"] > 200
        assert solution.assignment["y"] == solution.assignment["x"] - 100

    def test_unsatisfiable_detected(self):
        solver = ConstraintSolver({"x": IntRange(0, 10)})
        solution = solver.solve(
            [Constraint(parse_expression("x > 5")), Constraint(parse_expression("x < 3"))]
        )
        assert solution is None

    def test_solution_satisfies_every_constraint(self):
        constraints = [
            Constraint(parse_expression("a + b > 20")),
            Constraint(parse_expression("a < 10")),
            Constraint(parse_expression("b != 15")),
        ]
        solver = ConstraintSolver({"a": IntRange(0, 30), "b": IntRange(0, 30)}, constraints)
        solution = solver.solve()
        assert solution is not None
        for constraint in constraints:
            assert constraint.check(solution.assignment)

    def test_large_domains_solved_by_bisection(self):
        solver = ConstraintSolver({"x": IntRange(-32768, 32767)})
        solution = solver.solve([Constraint(parse_expression("x == 12345"))])
        assert solution is not None and solution.assignment["x"] == 12345
        assert solver.statistics.nodes < 200

    def test_disjunction(self):
        solver = ConstraintSolver({"x": IntRange(0, 100)})
        solution = solver.solve([Constraint(parse_expression("x == 7 || x == 93"))])
        assert solution is not None and solution.assignment["x"] in (7, 93)

    def test_multiplication_constraint(self):
        solver = ConstraintSolver({"x": IntRange(0, 50)})
        solution = solver.solve([Constraint(parse_expression("x * x == 49"))])
        assert solution is not None and solution.assignment["x"] == 7

    def test_node_limit_raises(self):
        solver = ConstraintSolver(
            {f"v{i}": IntRange(0, 3) for i in range(12)}, max_nodes=5
        )
        constraints = [
            Constraint(parse_expression(f"v{i} != v{i + 1}")) for i in range(11)
        ]
        with pytest.raises(SolverLimitReached):
            solver.solve(constraints)

    def test_statistics_accumulate(self):
        solver = ConstraintSolver({"x": IntRange(0, 10)})
        solver.solve([Constraint(parse_expression("x == 1"))])
        solver.solve([Constraint(parse_expression("x == 2"))])
        assert solver.statistics.solve_calls == 2
        assert solver.statistics.solutions == 2
        assert solver.statistics.peak_memory_bytes > 0

    def test_unconstrained_variables_get_values(self):
        solver = ConstraintSolver({"x": IntRange(0, 10), "free": IntRange(0, 1000)})
        solution = solver.solve([Constraint(parse_expression("x == 2"))])
        assert solution is not None
        assert "free" in solution.assignment


class _RecordingSolver(ConstraintSolver):
    """Records the depth and the propagated domains of every search node."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.searches = 0
        self.nodes_seen: list[tuple[int, dict[str, Domain]]] = []
        self._depth = 0

    def _search(self, domains, dirty, statuses, branched, depth, run):
        self.searches += 1
        self._depth = depth
        return super()._search(domains, dirty, statuses, branched, depth, run)

    def _propagate(self, domains, dirty, run):
        # a node propagates before it branches, so ``_depth`` is its own
        propagated = super()._propagate(domains, dirty, run)
        self.nodes_seen.append((self._depth, propagated[0]))
        return propagated


def _reference_memory_estimate(domains, constraints, depth):
    """The per-node memory formula, recounting every constraint at every node."""
    from repro.solver.expression import expression_node_count

    domain_bits = sum(IntRange(d.lo, d.hi).bits() for d in domains.values())
    domain_bytes = (domain_bits + 7) // 8 + 16 * len(domains)
    constraint_bytes = sum(
        32 * expression_node_count(constraint.expr) for constraint in constraints
    )
    return depth * domain_bytes + constraint_bytes


class TestSolverAccounting:
    """``peak_memory_bytes`` and ``nodes`` against the per-node formula."""

    #: (variables, stored constraints, per-call constraints, satisfiable,
    #: pinned nodes, pinned peak memory bytes)
    PROBLEMS = {
        "sat": (
            {"a": IntRange(0, 30), "b": IntRange(0, 30)},
            ["a + b > 20", "a < 10"],
            ["b != 15"],
            True,
            10,
            484,
        ),
        "unsat": (
            {"x": IntRange(2, 40), "y": IntRange(2, 40)},
            ["x * y == 37"],
            [],
            False,
            263,
            391,
        ),
        "bisection": (
            {"x": IntRange(-32768, 32767), "y": IntRange(0, 1000)},
            ["x == 12345 + y"],
            ["y * 3 == 999"],
            True,
            2174,
            815,
        ),
    }

    @pytest.mark.parametrize("name", sorted(PROBLEMS))
    def test_statistics_match_the_per_node_formula(self, name):
        variables, stored, extra, satisfiable, nodes, peak = self.PROBLEMS[name]
        stored_constraints = [Constraint(parse_expression(text)) for text in stored]
        extra_constraints = [Constraint(parse_expression(text)) for text in extra]
        solver = _RecordingSolver(variables, stored_constraints)
        solution = solver.solve(extra_constraints)
        assert (solution is not None) == satisfiable

        constraints = stored_constraints + extra_constraints
        initial = {name: Domain.from_range(rng) for name, rng in variables.items()}
        expected_peak = max(
            [_reference_memory_estimate(initial, constraints, 1)]
            + [
                _reference_memory_estimate(domains, constraints, depth + 1)
                for depth, domains in solver.nodes_seen
            ]
        )
        assert solver.statistics.nodes == solver.searches
        assert solver.statistics.peak_memory_bytes == expected_peak
        assert (solver.statistics.nodes, solver.statistics.peak_memory_bytes) == (nodes, peak)

    def test_domain_bits_match_int_range_bits(self):
        bounds = [(lo, hi) for lo in range(-70, 70) for hi in range(lo, lo + 140)]
        bounds += [(-(2**31), 2**31 - 1), (0, 2**32 - 1), (-(2**15), 2**15 - 1), (0, 2**63)]
        for lo, hi in bounds:
            assert Domain(lo, hi).bits() == IntRange(lo, hi).bits(), (lo, hi)


# ---------------------------------------------------------------------- #
# incremental propagation against the round-robin reference
# ---------------------------------------------------------------------- #
def _reference_status(expr, domains):
    interval = interval_eval(expr, domains)
    if interval.lo == 0 and interval.hi == 0:
        return Satisfaction.VIOLATED
    if interval.lo > 0 or interval.hi < 0:
        return Satisfaction.SATISFIED
    return Satisfaction.UNKNOWN


class _ReferenceSolver:
    """The solver without memos or dirty rounds.

    Every node runs every constraint's uncached propagation in every round
    (at most 50) and re-evaluates every constraint's status.  It records
    what :class:`_RecordingSolver` records, plus the node statistics.
    """

    def __init__(self, domains, constraints, max_nodes):
        self.domains = dict(domains)
        self.constraints = list(constraints)
        self.max_nodes = max_nodes
        self.nodes_seen: list[tuple[int, dict[str, Domain]]] = []
        self.nodes = self.conflicts = self.max_depth = 0
        self.peak = _reference_memory_estimate(self.domains, self.constraints, 1)

    def solve(self):
        return self._search(dict(self.domains), 0)

    def _search(self, domains, depth):
        self.nodes += 1
        self.max_depth = max(self.max_depth, depth)
        if self.nodes > self.max_nodes:
            raise SolverLimitReached("node cap")
        try:
            domains = self._propagate(domains)
        except EmptyDomainError:
            self.conflicts += 1
            return None
        self.nodes_seen.append((depth, domains))
        self.peak = max(
            self.peak, _reference_memory_estimate(domains, self.constraints, depth + 1)
        )
        pending = []
        for constraint in self.constraints:
            status = _reference_status(constraint.expr, domains)
            if status is Satisfaction.VIOLATED:
                self.conflicts += 1
                return None
            if status is Satisfaction.UNKNOWN:
                pending.append(constraint)
        unfixed = [name for name, domain in domains.items() if not domain.is_singleton()]
        if not unfixed:
            assignment = {name: domain.single_value() for name, domain in domains.items()}
            if all(concrete_eval(c.expr, assignment) != 0 for c in pending):
                return assignment
            self.conflicts += 1
            return None
        if not pending:
            return {name: next(domain.iter_values()) for name, domain in domains.items()}
        constrained = set()
        for constraint in pending:
            constrained |= expression_variables(constraint.expr)
        candidates = [name for name in unfixed if name in constrained] or unfixed
        variable = min(candidates, key=lambda name: domains[name].size())
        domain = domains[variable]
        if domain.size() <= _ENUMERATION_LIMIT:
            children = [Domain.singleton(value) for value in domain.iter_values()]
        else:
            children = domain.split()
        for narrowed in children:
            result = self._search({**domains, variable: narrowed}, depth + 1)
            if result is not None:
                return result
        return None

    def _propagate(self, domains):
        domains = dict(domains)
        changed = True
        rounds = 0
        while changed and rounds < 50:
            changed = False
            rounds += 1
            for constraint in self.constraints:
                narrowed = constraint._propagate_expr(constraint.expr, domains)
                if narrowed:
                    domains.update(narrowed)
                    changed = True
        return domains


def _outcome(solve):
    try:
        solution = solve()
    except SolverLimitReached:
        return "limit"
    if isinstance(solution, dict) or solution is None:
        return solution
    return solution.assignment


def _assert_matches_reference(solver, outcome):
    """*solver* (a :class:`_RecordingSolver` that ran once) against the reference."""
    reference = _ReferenceSolver(
        solver._domains, solver._constraints, solver._max_nodes
    )
    assert outcome == _outcome(reference.solve)
    assert solver.nodes_seen == reference.nodes_seen
    stats = solver.statistics
    assert (stats.nodes, stats.conflicts, stats.max_depth, stats.peak_memory_bytes) == (
        reference.nodes, reference.conflicts, reference.max_depth, reference.peak
    )


class _DifferentialSolver(_RecordingSolver):
    """A recording solver that keeps the outcome of its (single) solve."""

    instances: list["_DifferentialSolver"] = []

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._time_limit = None  # a deadline would cut the two searches at different nodes
        self.outcome = "not run"
        _DifferentialSolver.instances.append(self)

    def solve(self, extra_constraints=None):
        assert not extra_constraints
        self.outcome = "limit"
        solution = super().solve()
        self.outcome = None if solution is None else solution.assignment
        return solution


@pytest.fixture
def differential_solvers(monkeypatch):
    """Make the symbolic engine solve with :class:`_DifferentialSolver`."""
    from repro.mc import symbolic

    _DifferentialSolver.instances = []
    monkeypatch.setattr(symbolic, "ConstraintSolver", _DifferentialSolver)
    yield _DifferentialSolver.instances
    _DifferentialSolver.instances = []


class TestIncrementalPropagation:
    """Memoised, dirty-round propagation visits the reference's nodes.

    The assignment, and the propagated domains at every search node, must
    equal those of :class:`_ReferenceSolver`.
    """

    CAP_VARIABLES = {"x": IntRange(0, 60000), "y": IntRange(0, 60000), "w": IntRange(0, 3)}

    def test_cap_then_branch_carries_the_dirty_constraints(self):
        # x < y and y < x narrow each other by one per round, so the root
        # stops at the 50-round cap; the children branch on w and must go
        # on propagating x and y
        constraints = [
            Constraint(parse_expression(text))
            for text in ("x < y", "y < x", "w != 1", "w != 2")
        ]
        solver = _RecordingSolver(self.CAP_VARIABLES, constraints, max_nodes=200)
        outcome = _outcome(solver.solve)
        assert solver.nodes_seen[0][1]["x"] == Domain(100, 59901)
        assert solver.nodes_seen[1][1]["x"] == Domain(200, 59801)
        _assert_matches_reference(solver, outcome)

    def test_a_constraint_that_narrows_its_own_variables_runs_again(self):
        # one run of the conjunction narrows x and y by two; the next run,
        # on its own output, narrows them again
        constraints = [
            Constraint(parse_expression(text))
            for text in ("x < y && y < x", "w != 1 && w != 2")
        ]
        solver = _RecordingSolver(self.CAP_VARIABLES, constraints, max_nodes=200)
        outcome = _outcome(solver.solve)
        assert solver.nodes_seen[0][1]["x"] == Domain(100, 59901)
        _assert_matches_reference(solver, outcome)

    def test_memo_is_keyed_by_every_variable(self):
        constraint = Constraint(parse_expression("a < b"))
        for b_hi in (4, 6, 4):
            domains = {"a": Domain(0, 10), "b": Domain(1, b_hi)}
            assert constraint.propagate(domains) == {"a": Domain(0, b_hi - 1)}
            assert constraint.status(domains) is Satisfaction.UNKNOWN
        domains = {"a": Domain(0, 10), "b": Domain(11, 12)}
        assert constraint.status(domains) is Satisfaction.SATISFIED
        for _ in range(2):
            with pytest.raises(PropagationConflict):
                constraint.propagate({"a": Domain(5, 10), "b": Domain(0, 4)})

    #: constraint shapes over a, b, c for the seeded random problems
    SHAPES = (
        "a + b > c", "a != b", "a < b && b < c", "a * 2 < b + 3 || c == {k}",
        "!(a == {k})", "b - c >= {k}", "a % 5 == {k} % 5", "c", "!(b > {k})",
        "(a == {k}) || (b == {k})",
    )

    @pytest.mark.parametrize("seed", range(40))
    def test_seeded_random_problems(self, seed):
        rng = random.Random(seed)
        width = rng.choice((7, 40, 3000))
        variables = {name: IntRange(-width // 4, width) for name in "abc"}
        constraints = [
            Constraint(parse_expression(rng.choice(self.SHAPES).format(k=rng.randint(0, width))))
            for _ in range(rng.randint(2, 5))
        ]
        solver = _RecordingSolver(variables, constraints, max_nodes=2000)
        _assert_matches_reference(solver, _outcome(solver.solve))

    def test_every_solve_of_a_controller_analysis(self, differential_solvers):
        from repro.pipeline import AnalyzerConfig, WcetAnalyzer
        from repro.workloads.targetlink import generate_small_application

        application = generate_small_application(seed=11)
        # the solver is the subject: without sa's proofs every infeasible
        # target reaches it
        WcetAnalyzer(
            application.analyzed,
            application.function_name,
            AnalyzerConfig(static_analysis=False),
        ).analyze()
        assert len(differential_solvers) > 100
        for solver in differential_solvers:
            _assert_matches_reference(solver, solver.outcome)

    def test_every_solve_of_the_unoptimised_table2_model(self, differential_solvers):
        from repro.mc import EngineKind, ModelChecker, QueryEngineOptions, Verdict
        from repro.optim import TABLE2_CONFIGURATIONS, build_optimized_model
        from repro.workloads.optimisation_eval import (
            EVAL_FUNCTION_NAME,
            find_target_block,
            optimisation_eval_program,
        )

        name, config = TABLE2_CONFIGURATIONS[0]
        assert name == "unoptimized"
        model = build_optimized_model(optimisation_eval_program(), EVAL_FUNCTION_NAME, config)
        checker = ModelChecker(
            model.translation, QueryEngineOptions(engine=EngineKind.SYMBOLIC, slicing=False)
        )
        result = checker.find_test_data_for_block(find_target_block(model.translation.cfg))
        assert result.verdict is Verdict.REACHABLE
        assert differential_solvers
        for solver in differential_solvers:
            _assert_matches_reference(solver, solver.outcome)
