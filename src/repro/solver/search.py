"""Backtracking search over finite domains.

:class:`ConstraintSolver` is the decision procedure used by the symbolic
model-checking engine: given variables with finite domains and a conjunction
of constraints (path conditions), decide satisfiability and produce a model.

The search is a classic propagate-and-branch loop:

1. run the constraints' bounds propagation in round-robin rounds until a
   round narrows nothing, or for at most 50 rounds; a constraint runs in a
   round only if one of its variables changed since it last ran (at a child
   node: the branched variable, plus whatever the round cap left dirty at
   the parent),
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

import heapq
import time
from dataclasses import dataclass, field
from typing import NamedTuple

from ..minic.types import IntRange
from .constraints import Constraint, PropagationConflict, Satisfaction
from .domain import Domain


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
#: propagation rounds per search node
_MAX_ROUNDS = 50


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
    # solving
    # ------------------------------------------------------------------ #
    def solve(self, extra_constraints: list[Constraint] | None = None) -> Solution | None:
        """Return a satisfying assignment or ``None`` when unsatisfiable.

        ``extra_constraints`` are added to the solver's constraints for this
        call only.
        """
        constraints = self._constraints + list(extra_constraints or [])
        started = time.perf_counter()
        call_stats = SolverStatistics(solve_calls=1)
        # the constraints are fixed for the whole call, so only the domain
        # store's share of the memory estimate changes from node to node
        constraint_bytes = _constraint_bytes(constraints)
        domains = dict(self._domains)
        root = _Inherited(
            None,
            sum(domain.bits() for domain in domains.values()),
            [name for name, domain in domains.items() if not domain.is_singleton()],
        )
        call_stats.peak_memory_bytes = (
            _store_bytes(root.domain_bits, len(domains)) + constraint_bytes
        )
        deadline = started + self._time_limit if self._time_limit is not None else None
        watchers: dict[str, list[int]] = {}
        for index, constraint in enumerate(constraints):
            for name in constraint.variables():
                watchers.setdefault(name, []).append(index)
        run = _Run(
            constraints=constraints,
            watchers={name: frozenset(indices) for name, indices in watchers.items()},
            constraint_bytes=constraint_bytes,
            stats=call_stats,
            deadline=deadline,
        )

        try:
            assignment = self._search(
                domains, frozenset(range(len(constraints))), root, None, 0, run
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
        dirty: frozenset[int],
        inherited: "_Inherited",
        branched: str | None,
        depth: int,
        run: "_Run",
    ) -> dict[str, int] | None:
        """Search below one node.

        *dirty* holds the indices of the constraints to propagate first;
        *inherited* is what the parent hands down and *branched* the
        variable the parent split to make this node (``None`` at the root).
        """
        stats = run.stats
        stats.nodes += 1
        stats.max_depth = max(stats.max_depth, depth)
        if stats.nodes > self._max_nodes:
            raise SolverLimitReached(f"exceeded {self._max_nodes} search nodes")
        if run.deadline is not None and time.perf_counter() > run.deadline:
            raise SolverLimitReached("solver time limit exceeded")

        start = domains
        try:
            domains, changed, still_dirty = self._propagate(domains, dirty, run)
        except PropagationConflict:
            stats.conflicts += 1
            return None

        # only the variables propagation changed can alter the domain bits
        # or leave the unfixed list
        domain_bits = inherited.domain_bits + sum(
            domains[name].bits() - start[name].bits() for name in changed
        )
        unfixed = inherited.unfixed
        if changed:
            unfixed = [
                name for name in unfixed if name not in changed or not domains[name].is_singleton()
            ]

        # depth + 1 copies of the domain store plus the constraints
        stats.peak_memory_bytes = max(
            stats.peak_memory_bytes,
            (depth + 1) * _store_bytes(domain_bits, len(domains)) + run.constraint_bytes,
        )

        # check filtering status; a constraint none of whose variables
        # changed since the parent node keeps the parent's status
        constraints = run.constraints
        if inherited.statuses is None:
            statuses = [Satisfaction.UNKNOWN] * len(constraints)
            stale = range(len(constraints))
        else:
            statuses = list(inherited.statuses)
            changed.add(branched)
            stale = set().union(*(run.watchers.get(name, ()) for name in changed))
        for index in stale:
            status = constraints[index].status(domains)
            if status is Satisfaction.VIOLATED:
                stats.conflicts += 1
                return None
            statuses[index] = status
        pending = [
            constraint
            for constraint, status in zip(constraints, statuses)
            if status is Satisfaction.UNKNOWN
        ]

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
        constrained = set().union(*(constraint.variables() for constraint in pending))
        candidates = [name for name in unfixed if name in constrained] or unfixed
        variable = min(candidates, key=lambda name: domains[name].size())
        domain = domains[variable]
        # a child propagates the constraints on the variable it branched on,
        # and those the round cap left dirty here
        child_dirty = still_dirty | run.watchers.get(variable, frozenset())

        if domain.size() <= _ENUMERATION_LIMIT:
            children = [Domain.singleton(value) for value in domain.iter_values()]
        else:
            # bisection for large domains
            children = domain.split()
        other_bits = domain_bits - domain.bits()
        still_unfixed = [name for name in unfixed if name != variable]
        for narrowed in children:
            child = dict(domains)
            child[variable] = narrowed
            inherit = _Inherited(
                statuses,
                other_bits + narrowed.bits(),
                still_unfixed if narrowed.is_singleton() else unfixed,
            )
            result = self._search(child, child_dirty, inherit, variable, depth + 1, run)
            if result is not None:
                return result
        return None

    def _propagate(
        self, domains: dict[str, Domain], dirty: frozenset[int], run: "_Run"
    ) -> tuple[dict[str, Domain], set[str], frozenset[int]]:
        """Round-robin bounds propagation, capped at ``_MAX_ROUNDS`` rounds.

        Each round runs the constraints in list order, but only those a
        variable of which changed since they last ran (or that are in
        *dirty*); any other would return nothing.  Returns the narrowed
        domains, the names of the variables that changed, and the constraints
        still dirty when the cap stopped the rounds.
        """
        domains = dict(domains)
        constraints = run.constraints
        watchers = run.watchers
        stats = run.stats
        changed: set[str] = set()
        queue = sorted(dirty)
        rounds = 0
        while queue and rounds < _MAX_ROUNDS:
            rounds += 1
            queued = set(queue)
            next_round: set[int] = set()
            while queue:
                index = heapq.heappop(queue)
                stats.propagations += 1
                narrowed = constraints[index].propagate(domains)
                if not narrowed:
                    continue
                domains.update(narrowed)
                changed.update(narrowed)
                for name in narrowed:
                    for other in watchers[name]:
                        if other <= index:
                            next_round.add(other)
                        elif other not in queued:
                            queued.add(other)
                            heapq.heappush(queue, other)
            queue = sorted(next_round)
        return domains, changed, frozenset(queue)


class _Inherited(NamedTuple):
    """What a search node hands down to its children."""

    #: the parent's constraint statuses (``None`` at the root)
    statuses: list[Satisfaction] | None
    #: ``Domain.bits()`` summed over the node's starting domains
    domain_bits: int
    #: the node's starting variables that are not fixed, in store order
    unfixed: list[str]


@dataclass
class _Run:
    """What one :meth:`ConstraintSolver.solve` call shares across its nodes."""

    constraints: list[Constraint]
    #: variable name -> indices of the constraints over it
    watchers: dict[str, frozenset[int]]
    constraint_bytes: int
    stats: SolverStatistics
    deadline: float | None


# ---------------------------------------------------------------------- #
# memory model
# ---------------------------------------------------------------------- #
# A rough, deterministic memory model of the solver state: ``depth`` copies of
# the domain store (the backtracking stack) plus the stored constraint
# expressions.  The estimate is proportional to the state-vector width, which
# is what makes the Table 2 memory column respond to the state-space
# optimisations the same way SAL does.


def _store_bytes(domain_bits: int, variables: int) -> int:
    """Bytes of one copy of a store of *variables* domains of *domain_bits* bits."""
    return (domain_bits + 7) // 8 + 16 * variables


def _constraint_bytes(constraints: list[Constraint]) -> int:
    """Bytes of the stored constraint expressions."""
    return sum(32 * constraint.node_count for constraint in constraints)
