"""Backtracking search over finite domains.

:class:`ConstraintSolver` is the decision procedure used by the symbolic
model-checking engine: given variables with finite domains and a conjunction
of constraints (path conditions), decide satisfiability and produce a model.

The search is a classic propagate-and-branch loop:

1. run every constraint's bounds propagation to a fixed point,
2. if some constraint is definitely violated, backtrack,
3. if every variable is fixed, check the constraints concretely,
4. otherwise pick the unfixed variable with the smallest domain and branch --
   by value enumeration for small domains, by bisection for large ones (so a
   16-bit variable costs ~16 decisions, not 65536).

The solver records the statistics the paper's Table 2 reports for SAL:
explored nodes, propagation work and an explicit memory estimate that scales
with the number of variables, their bit widths and the stored constraints --
exactly the quantities the state-space optimisations reduce.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..minic.types import IntRange
from .constraints import Constraint, PropagationConflict, Satisfaction
from .domain import Domain, EmptyDomainError
from .expression import expression_node_count


class SolverLimitReached(Exception):
    """Raised when the node or time budget is exhausted."""


@dataclass
class SolverStatistics:
    """Cost accounting of one (or several accumulated) solver invocations."""

    nodes: int = 0
    propagations: int = 0
    conflicts: int = 0
    solutions: int = 0
    max_depth: int = 0
    solve_calls: int = 0
    time_seconds: float = 0.0
    peak_memory_bytes: int = 0

    def merge(self, other: "SolverStatistics") -> None:
        self.nodes += other.nodes
        self.propagations += other.propagations
        self.conflicts += other.conflicts
        self.solutions += other.solutions
        self.solve_calls += other.solve_calls
        self.max_depth = max(self.max_depth, other.max_depth)
        self.time_seconds += other.time_seconds
        self.peak_memory_bytes = max(self.peak_memory_bytes, other.peak_memory_bytes)


@dataclass
class Solution:
    """A satisfying assignment."""

    assignment: dict[str, int]
    statistics: SolverStatistics = field(default_factory=SolverStatistics)


#: value-enumeration threshold: domains up to this size are enumerated,
#: larger ones are bisected
_ENUMERATION_LIMIT = 16


class ConstraintSolver:
    """Finite-domain constraint solver (propagate + backtracking search)."""

    def __init__(
        self,
        variables: dict[str, IntRange | Domain],
        constraints: list[Constraint] | None = None,
        max_nodes: int = 200_000,
        time_limit: float | None = None,
    ):
        self._domains: dict[str, Domain] = {}
        for name, domain in variables.items():
            self._domains[name] = (
                domain if isinstance(domain, Domain) else Domain.from_range(domain)
            )
        self._constraints: list[Constraint] = list(constraints or [])
        self._max_nodes = max_nodes
        self._time_limit = time_limit
        self.statistics = SolverStatistics()

    # ------------------------------------------------------------------ #
    # problem construction
    # ------------------------------------------------------------------ #
    def add_constraint(self, constraint: Constraint) -> None:
        self._constraints.append(constraint)

    def domains(self) -> dict[str, Domain]:
        return dict(self._domains)

    # ------------------------------------------------------------------ #
    # solving
    # ------------------------------------------------------------------ #
    def solve(self, extra_constraints: list[Constraint] | None = None) -> Solution | None:
        """Return a satisfying assignment or ``None`` when unsatisfiable.

        ``extra_constraints`` are added for this call only (the symbolic
        engine reuses one solver instance for many path-condition queries).
        """
        constraints = self._constraints + list(extra_constraints or [])
        started = time.perf_counter()
        call_stats = SolverStatistics(solve_calls=1)
        # the constraints are fixed for the whole call, so only the domain
        # store's share of the memory estimate changes from node to node
        constraint_bytes = _constraint_bytes(constraints)
        call_stats.peak_memory_bytes = _domain_bytes(self._domains) + constraint_bytes
        deadline = started + self._time_limit if self._time_limit is not None else None

        try:
            assignment = self._search(
                dict(self._domains), constraints, constraint_bytes, 0, call_stats, deadline
            )
        finally:
            call_stats.time_seconds = time.perf_counter() - started
            self.statistics.merge(call_stats)
        if assignment is None:
            return None
        call_stats.solutions += 1
        self.statistics.solutions += 1
        return Solution(assignment=assignment, statistics=call_stats)

    def is_satisfiable(self, extra_constraints: list[Constraint] | None = None) -> bool:
        return self.solve(extra_constraints) is not None

    # ------------------------------------------------------------------ #
    def _search(
        self,
        domains: dict[str, Domain],
        constraints: list[Constraint],
        constraint_bytes: int,
        depth: int,
        stats: SolverStatistics,
        deadline: float | None,
    ) -> dict[str, int] | None:
        stats.nodes += 1
        stats.max_depth = max(stats.max_depth, depth)
        if stats.nodes > self._max_nodes:
            raise SolverLimitReached(f"exceeded {self._max_nodes} search nodes")
        if deadline is not None and time.perf_counter() > deadline:
            raise SolverLimitReached("solver time limit exceeded")

        try:
            domains = self._propagate(domains, constraints, stats)
        except PropagationConflict:
            stats.conflicts += 1
            return None

        # depth + 1 copies of the domain store plus the constraints
        stats.peak_memory_bytes = max(
            stats.peak_memory_bytes,
            (depth + 1) * _domain_bytes(domains) + constraint_bytes,
        )

        # check filtering status
        pending: list[Constraint] = []
        for constraint in constraints:
            status = constraint.status(domains)
            if status is Satisfaction.VIOLATED:
                stats.conflicts += 1
                return None
            if status is Satisfaction.UNKNOWN:
                pending.append(constraint)

        unfixed = [name for name, domain in domains.items() if not domain.is_singleton()]
        if not unfixed:
            assignment = {name: domain.single_value() for name, domain in domains.items()}
            for constraint in pending:
                if not constraint.check(assignment):
                    stats.conflicts += 1
                    return None
            return assignment
        if not pending:
            # every constraint already satisfied: fix remaining variables to
            # their smallest value
            assignment = {
                name: next(domain.iter_values()) for name, domain in domains.items()
            }
            return assignment

        # choose the unfixed variable with the smallest domain among those
        # occurring in pending constraints (fail-first heuristic)
        constrained = set()
        for constraint in pending:
            constrained |= constraint.variables()
        candidates = [name for name in unfixed if name in constrained] or unfixed
        variable = min(candidates, key=lambda name: domains[name].size())
        domain = domains[variable]

        if domain.size() <= _ENUMERATION_LIMIT:
            for value in domain.iter_values():
                child = dict(domains)
                child[variable] = Domain.singleton(value)
                result = self._search(
                    child, constraints, constraint_bytes, depth + 1, stats, deadline
                )
                if result is not None:
                    return result
            return None
        # bisection for large domains
        for half in domain.split():
            child = dict(domains)
            child[variable] = half
            result = self._search(
                child, constraints, constraint_bytes, depth + 1, stats, deadline
            )
            if result is not None:
                return result
        return None

    def _propagate(
        self,
        domains: dict[str, Domain],
        constraints: list[Constraint],
        stats: SolverStatistics,
    ) -> dict[str, Domain]:
        domains = dict(domains)
        changed = True
        rounds = 0
        while changed and rounds < 50:
            changed = False
            rounds += 1
            for constraint in constraints:
                stats.propagations += 1
                try:
                    narrowed = constraint.propagate(domains)
                except EmptyDomainError as exc:  # pragma: no cover - wrapped below
                    raise PropagationConflict(str(exc)) from exc
                if narrowed:
                    domains.update(narrowed)
                    changed = True
        return domains


# ---------------------------------------------------------------------- #
# memory model
# ---------------------------------------------------------------------- #
# A rough, deterministic memory model of the solver state: ``depth`` copies of
# the domain store (the backtracking stack) plus the stored constraint
# expressions.  The estimate is proportional to the state-vector width, which
# is what makes the Table 2 memory column respond to the state-space
# optimisations the same way SAL does.


def _domain_bytes(domains: dict[str, Domain]) -> int:
    """Bytes of one copy of the domain store."""
    domain_bits = sum(domain.bits() for domain in domains.values())
    return (domain_bits + 7) // 8 + 16 * len(domains)


def _constraint_bytes(constraints: list[Constraint]) -> int:
    """Bytes of the stored constraint expressions."""
    return sum(32 * expression_node_count(constraint.expr) for constraint in constraints)
