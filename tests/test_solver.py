"""Tests of the finite-domain constraint solver."""

from __future__ import annotations

import pytest

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
    interval_eval,
    substitute,
)


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

    def _search(self, domains, constraints, constraint_bytes, depth, stats, deadline):
        self.searches += 1
        self._depth = depth
        return super()._search(domains, constraints, constraint_bytes, depth, stats, deadline)

    def _propagate(self, domains, constraints, stats):
        # a node propagates before it branches, so ``_depth`` is its own
        propagated = super()._propagate(domains, constraints, stats)
        self.nodes_seen.append((self._depth, propagated))
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
