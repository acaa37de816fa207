"""Explicit-state reachability engine.

Breadth-first search over concrete states ``(location, variable values)``.
The initial states enumerate every combination of the free variables' domains
(the paper's D_I); transitions are executed concretely.  This engine is exact
and produces shortest counterexamples, but its cost is literally the size of
the reachable state space -- the paper's motivation for all six state-space
optimisations.  It refuses to start when the initial state space alone exceeds
``max_initial_states``; the symbolic engine handles those models.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import product

from .. import obs, perf
from ..solver.expression import concrete_eval
from ..transsys.system import TransitionSystem
from .property import ReachabilityGoal
from .result import CheckResult, CheckStatistics, Counterexample, Verdict


class StateSpaceTooLarge(Exception):
    """Raised when explicit enumeration is hopeless for this model."""


@dataclass
class ExplicitEngineOptions:
    """Budget knobs of the explicit-state engine."""

    max_initial_states: int = 200_000
    max_explored_states: int = 2_000_000
    max_steps: int = 10_000
    #: overall time budget in seconds (None = unlimited); checked every few
    #: hundred states so a tight query deadline stops the BFS mid-search
    time_limit: float | None = None


class ExplicitStateEngine:
    """Concrete breadth-first reachability."""

    def __init__(self, system: TransitionSystem, options: ExplicitEngineOptions | None = None):
        self._system = system
        self._options = options or ExplicitEngineOptions()
        self._variable_names = sorted(system.variables)
        #: canonical instances of the value tuples (keyed by the fixed
        #: variable order above); breadth-first search revisits the same
        #: valuation many times, and interning both deduplicates the tuple
        #: storage and lets the visited-set lookups short-circuit on identity
        self._interned_values: dict[tuple[int, ...], tuple[int, ...]] = {}

    def _intern(self, values: tuple[int, ...]) -> tuple[int, ...]:
        return self._interned_values.setdefault(values, values)

    # ------------------------------------------------------------------ #
    def check(self, goal: ReachabilityGoal) -> CheckResult:
        with obs.region("mc.explicit.check"):
            result = self._check(goal)
        perf.add("mc.explicit.checks")
        perf.add("mc.explicit.explored_states", result.statistics.explored_states)
        return result

    def _check(self, goal: ReachabilityGoal) -> CheckResult:
        started = time.perf_counter()
        deadline = (
            started + self._options.time_limit
            if self._options.time_limit is not None
            else None
        )
        stats = CheckStatistics(
            state_bits=self._system.total_state_bits(),
            transitions_in_model=len(self._system.transitions),
            sliced_state_bits=self._system.total_state_bits(),
            sliced_transitions=len(self._system.transitions),
        )
        initial_states = self._initial_states()
        state_bytes = max(1, self._system.total_state_bits() // 8)

        # queue entries: (location, values tuple, initial values tuple,
        # trace of transition indices, ordered-label progress)
        queue: list[tuple[int, tuple[int, ...], tuple[int, ...], tuple[int, ...], int]] = []
        visited: set[tuple[int, tuple[int, ...], int]] = set()
        for values in initial_states:
            values = self._intern(values)
            location = self._system.initial_location
            progress = 0
            entry = (location, values, values, (), progress)
            key = (location, values, progress)
            if key in visited:
                continue
            visited.add(key)
            queue.append(entry)
            if goal.is_trivially_reached_at(location):
                stats.time_seconds = time.perf_counter() - started
                stats.memory_bytes = len(visited) * state_bytes
                return self._reachable(values, [], stats)

        outgoing = {loc: self._system.outgoing(loc) for loc in self._system.locations()}
        transition_index = {id(t): i for i, t in enumerate(self._system.transitions)}
        head = 0
        while head < len(queue):
            location, values, init_values, trace, progress = queue[head]
            head += 1
            stats.explored_states += 1
            if stats.explored_states > self._options.max_explored_states:
                stats.time_seconds = time.perf_counter() - started
                stats.memory_bytes = len(visited) * state_bytes
                stats.stop_reason = "states"
                return CheckResult(
                    verdict=Verdict.UNKNOWN, statistics=stats,
                    goal_description=goal.description,
                )
            if deadline is not None and stats.explored_states % 256 == 0:
                if time.perf_counter() > deadline:
                    stats.time_seconds = time.perf_counter() - started
                    stats.memory_bytes = len(visited) * state_bytes
                    stats.stop_reason = "deadline"
                    return CheckResult(
                        verdict=Verdict.UNKNOWN, statistics=stats,
                        goal_description=goal.description,
                    )
            if len(trace) >= self._options.max_steps:
                continue
            assignment = dict(zip(self._variable_names, values))
            for transition in outgoing.get(location, ()):
                if transition.guard is not None:
                    if concrete_eval(transition.guard, assignment) == 0:
                        continue
                new_assignment = dict(assignment)
                for name, expr in transition.updates:
                    value = concrete_eval(expr, assignment)
                    domain = self._system.variables[name].domain
                    new_assignment[name] = min(max(value, domain.lo), domain.hi)
                new_values = self._intern(
                    tuple(new_assignment[name] for name in self._variable_names)
                )
                new_progress = goal.progress_after(transition, progress)
                new_trace = trace + (transition_index[id(transition)],)
                if goal.satisfied(transition.target, transition, new_progress):
                    stats.time_seconds = time.perf_counter() - started
                    stats.stored_states = len(visited)
                    stats.memory_bytes = len(visited) * state_bytes
                    return self._reachable(
                        init_values,
                        [self._system.transitions[i] for i in new_trace],
                        stats,
                    )
                key = (transition.target, new_values, new_progress)
                if key in visited:
                    continue
                visited.add(key)
                queue.append(
                    (transition.target, new_values, init_values, new_trace, new_progress)
                )
        stats.time_seconds = time.perf_counter() - started
        stats.stored_states = len(visited)
        stats.memory_bytes = len(visited) * state_bytes
        return CheckResult(
            verdict=Verdict.UNREACHABLE, statistics=stats, goal_description=goal.description
        )

    # ------------------------------------------------------------------ #
    def _reachable(
        self, values: tuple[int, ...], trace, stats: CheckStatistics
    ) -> CheckResult:
        initial_state = dict(zip(self._variable_names, values))
        inputs = {
            name: initial_state[name]
            for name, variable in self._system.variables.items()
            if variable.is_input
        }
        counterexample = Counterexample(
            inputs=inputs, initial_state=initial_state, trace=list(trace)
        )
        stats.steps = counterexample.steps
        return CheckResult(
            verdict=Verdict.REACHABLE, counterexample=counterexample, statistics=stats
        )

    def _initial_states(self) -> list[tuple[int, ...]]:
        sizes = 1
        free_names = []
        for name in self._variable_names:
            variable = self._system.variables[name]
            if variable.is_free:
                free_names.append(name)
                sizes *= variable.domain.size()
                if sizes > self._options.max_initial_states:
                    raise StateSpaceTooLarge(
                        f"initial state space exceeds {self._options.max_initial_states} "
                        f"states ({len(free_names)} free variables); use the symbolic engine"
                    )
        value_choices = []
        for name in self._variable_names:
            variable = self._system.variables[name]
            if variable.is_free:
                value_choices.append(
                    range(variable.domain.lo, variable.domain.hi + 1)
                )
            else:
                value_choices.append((variable.initial,))
        return [tuple(combo) for combo in product(*value_choices)]
