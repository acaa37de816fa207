"""Planned, budgeted, sliced reachability queries -- the unified query engine.

Every model-checking question the WCET tool chain asks ("reach this block",
"follow this edge sequence") goes through one subsystem:

* a :class:`QueryPlan` batches all goals of one function and inserts
  *feasibility probes* for path prefixes shared by several edge-sequence
  goals -- an infeasible shared prefix proves every extension infeasible
  with a single query;
* a :class:`QueryEngine` runs each goal through a budgeted engine
  portfolio: explicit enumeration when the (sliced) initial state space is
  small, then symbolic search on the goal's cone-of-influence slice
  (:mod:`repro.mc.slicing`), or on the full model when slicing is off or
  removed nothing.  The slice is verdict-exact and the stages share one
  budget, so a full-model search after the slice could settle nothing the
  slice left open;
* a :class:`QueryBudget` bounds every query with step / solver-call /
  deadline limits; when the budget runs out the result carries the typed
  :class:`~repro.mc.result.BudgetExhausted` verdict, which the WCET layer
  treats as "unreached, pessimise" instead of hanging on an unbounded
  search;
* proven-infeasible label sequences subsume every extension;
* when a persistent :class:`~repro.mc.store.QueryStore` is ambient
  (:func:`~repro.mc.store.using_query_store`), settled verdicts and
  witnesses survive the process: they are written through the crash-safe
  result cache keyed by the *content* fingerprint of the sliced system, and
  loaded back -- witness-replay-validated -- before any engine runs, so a
  warm run answers every planned query from disk with zero solver calls.

Progress is surfaced through :mod:`repro.perf`: counters ``mc.query.*``
(planned / sliced / budget_exhausted / engine_faults / prefix_hits /
store_hits / store_misses / store_writes / replay_failures / solver_runs /
static_prunes) and timers ``mc.plan`` / ``mc.slice`` / ``mc.solve``.
"""

from __future__ import annotations

import dataclasses
import enum
import time
from dataclasses import dataclass, replace

from .. import obs, perf
from ..resilience import InjectedFault, maybe_fault, poll_deadline
from ..transsys.translate import TranslationResult
from .explicit import ExplicitEngineOptions, ExplicitStateEngine, StateSpaceTooLarge
from .property import ReachabilityGoal
from .result import (
    BudgetExhausted,
    CheckResult,
    CheckStatistics,
    Counterexample,
    Verdict,
)
from .slicing import (
    GoalSlice,
    forward_reachable_locations,
    slice_for_goal,
    system_fingerprint,
)
from .store import QueryStore, active_query_store
from .symbolic import SymbolicEngine, SymbolicEngineOptions


class EngineKind(enum.Enum):
    SYMBOLIC = "symbolic"
    EXPLICIT = "explicit"
    AUTO = "auto"


@dataclass(frozen=True)
class QueryBudget:
    """Hard limits of one reachability query, across all portfolio stages.

    ``None`` disables the respective limit.  The defaults match the
    symbolic engine's historical own bounds, so an un-tuned budget changes
    nothing except that exhaustion becomes an explicit, typed verdict.
    """

    #: total explored states/paths across all engine stages
    max_steps: int | None = 200_000
    #: total constraint-solver invocations across all engine stages
    max_solver_calls: int | None = None
    #: wall-clock deadline for the whole query in milliseconds
    deadline_ms: int | None = 120_000

    @classmethod
    def unlimited(cls) -> "QueryBudget":
        return cls(max_steps=None, max_solver_calls=None, deadline_ms=None)

    @property
    def deadline_seconds(self) -> float | None:
        return self.deadline_ms / 1000.0 if self.deadline_ms is not None else None


@dataclass(frozen=True)
class PlannedQuery:
    """One goal of a query plan.

    ``key`` is the caller's handle (the test-data generator uses the path
    target's key); probes carry synthetic keys and are executed only for
    their side effect on the shared infeasible-prefix bookkeeping.
    """

    key: object
    goal: ReachabilityGoal
    is_probe: bool = False


class QueryPlan:
    """All reachability goals of one function, ordered for shared work.

    Edge-sequence goals are clustered lexicographically by their label
    sequences so goals sharing prefixes run back to back (maximising
    prefix subsumption), and shared prefixes whose probe is expected to pay
    for itself (:meth:`_probe_prefixes`) get a feasibility probe that runs
    first: one UNREACHABLE probe answers every goal extending it.
    """

    def __init__(self, items: list[PlannedQuery]):
        self.items = items

    @property
    def goal_count(self) -> int:
        return sum(1 for item in self.items if not item.is_probe)

    @property
    def probe_count(self) -> int:
        return sum(1 for item in self.items if item.is_probe)

    # ------------------------------------------------------------------ #
    @classmethod
    def build(cls, goals: list[tuple[object, ReachabilityGoal]]) -> "QueryPlan":
        with obs.span("mc.plan", goals=len(goals)), perf.timed("mc.plan"):
            ordered_goals = sorted(
                goals,
                key=lambda item: (item[1].ordered_labels, item[1].description),
            )
            sequences = [
                goal.ordered_labels
                for _, goal in ordered_goals
                if goal.ordered_labels
                and not goal.target_locations
                and not goal.target_labels
            ]
            probes = [
                PlannedQuery(
                    key=("probe", prefix),
                    goal=ReachabilityGoal(
                        ordered_labels=prefix,
                        description="prefix probe " + " -> ".join(prefix),
                    ),
                    is_probe=True,
                )
                for prefix in cls._probe_prefixes(sequences)
            ]
            items = probes + [
                PlannedQuery(key=key, goal=goal) for key, goal in ordered_goals
            ]
        return cls(items)

    @staticmethod
    def _probe_prefixes(
        sequences: list[tuple[str, ...]],
    ) -> list[tuple[str, ...]]:
        """Deepest branching prefixes whose probe is expected to pay for itself.

        A probe costs roughly one search over the prefix (``len(prefix)``
        path steps).  If it proves the prefix infeasible it saves every
        sharer's full search: ``count * len(prefix)`` shared steps plus the
        sharers' extension steps beyond the prefix.  Probing is worth it
        when the potential saving is a healthy multiple of the cost --
        ``count*len(p) + extension_steps >= 4*len(p)`` -- so *two* goals
        sharing a deep prefix with long tails get a probe, while several
        goals sharing a long prefix with tiny tails (the probe costs nearly
        as much as just answering them) do not.  Of nested candidates only
        the deepest is probed.
        """
        counts: dict[tuple[str, ...], int] = {}
        continuations: dict[tuple[str, ...], set[str]] = {}
        extension_steps: dict[tuple[str, ...], int] = {}
        for sequence in sequences:
            for cut in range(1, len(sequence)):
                prefix = sequence[:cut]
                counts[prefix] = counts.get(prefix, 0) + 1
                continuations.setdefault(prefix, set()).add(sequence[cut])
                extension_steps[prefix] = extension_steps.get(prefix, 0) + (
                    len(sequence) - cut
                )
        candidates = {
            prefix
            for prefix, count in counts.items()
            if count >= 2
            and len(continuations[prefix]) >= 2
            and count * len(prefix) + extension_steps[prefix] >= 4 * len(prefix)
        }
        return sorted(
            prefix
            for prefix in candidates
            if not any(
                other != prefix and other[: len(prefix)] == prefix
                for other in candidates
            )
        )


#: explicit enumeration is attempted (AUTO mode) when the free state space
#: of the (sliced) model has at most this many bits
EXPLICIT_BITS_THRESHOLD = 16


@dataclass
class QueryEngineOptions:
    """Configuration of the query engine and of every checker built on it."""

    engine: EngineKind = EngineKind.AUTO
    #: None = no external budget (the engines' own defaults still apply)
    budget: QueryBudget | None = None
    #: per-goal cone-of-influence slicing (``--no-slicing`` disables it)
    slicing: bool = True
    symbolic: SymbolicEngineOptions | None = None
    explicit: ExplicitEngineOptions | None = None
    #: optional sound static prefilter (duck-typed, see
    #: :class:`repro.sa.feasibility.StaticPrefilter`): anything exposing
    #: ``goal_is_unreachable(goal, location_block) -> bool`` whose True
    #: answers are *proofs* of unreachability
    prefilter: object | None = None


@dataclass
class QueryEngineStats:
    """In-process counters of one query engine (mirrored into repro.perf)."""

    planned: int = 0
    sliced: int = 0
    budget_exhausted: int = 0
    prefix_hits: int = 0
    #: queries degraded to ENGINE_FAULT because every stage's solver died
    #: on an injected fault
    engine_faults: int = 0
    #: queries answered from the persistent store (replay-validated)
    store_hits: int = 0
    #: store lookups that found nothing usable (absent, corrupt or stale)
    store_misses: int = 0
    #: verdicts/witnesses persisted to the store by this engine
    store_writes: int = 0
    #: store entries rejected because their witness failed to replay
    replay_failures: int = 0
    #: engine-portfolio stage executions (zero on a fully warm run)
    solver_runs: int = 0
    #: goals settled UNREACHABLE by the static prefilter (no solver call)
    static_prunes: int = 0

    def as_dict(self) -> dict[str, int]:
        return dataclasses.asdict(self)


class QueryEngine:
    """Budgeted, sliced reachability checking against one translated function."""

    def __init__(
        self,
        translation: TranslationResult,
        options: QueryEngineOptions | None = None,
    ):
        self._translation = translation
        self._options = options or QueryEngineOptions()
        self.stats = QueryEngineStats()
        #: content fingerprint of the full model (computed on first use;
        #: the store key of goals whose slice removed nothing)
        self._full_fingerprint: str | None = None
        #: forward-reachable locations of the full model (goal-independent)
        self._forward: frozenset[int] | None = None
        #: goal-seed -> GoalSlice (many goals share one slice)
        self._slices: dict[object, GoalSlice | None] = {}
        #: label sequences proven infeasible (subsume every extension)
        self._infeasible_prefixes: list[tuple[str, ...]] = []

    # ------------------------------------------------------------------ #
    @property
    def translation(self) -> TranslationResult:
        return self._translation

    def run_plan(self, plan: QueryPlan) -> dict[object, CheckResult]:
        """Execute every goal of *plan*; probes feed the shared bookkeeping."""
        results: dict[object, CheckResult] = {}
        for item in plan.items:
            result = self.check(item.goal)
            if not item.is_probe:
                results[item.key] = result
        return results

    def check(self, goal: ReachabilityGoal) -> CheckResult:
        """Answer one reachability goal within the configured budget."""
        self.stats.planned += 1
        perf.add("mc.query.planned")

        # 1. sound static prefilter: goals the interval analysis proved
        #    unreachable are settled before slicing or any engine work.
        #    Deliberately not persisted -- the proof is free to recompute,
        #    and warm-run store gates (store_hits == planned) keep counting
        #    only solver-shaped queries.
        prefilter = self._options.prefilter
        if prefilter is not None and prefilter.goal_is_unreachable(
            goal, self._translation.location_block
        ):
            self.stats.static_prunes += 1
            perf.add("mc.query.static_prunes")
            return CheckResult(
                verdict=Verdict.UNREACHABLE,
                statistics=self._empty_statistics(),
                goal_description=goal.description,
            )

        # 2. the persistent store: replay-validated verdicts from earlier
        #    runs (and from other functions sharing this cone).  Checked
        #    before prefix subsumption so a warm run answers *every*
        #    first-seen goal from disk (store_hits == planned), which is
        #    what the zero-solver-calls gate measures.
        goal_slice = self._slice_for(goal)
        store = active_query_store()
        if store is not None:
            failures_before = store.stats.replay_failures
            loaded = store.load(
                self._content_fingerprint(goal_slice),
                goal,
                self._replay_system(goal_slice),
            )
            self.stats.replay_failures += (
                store.stats.replay_failures - failures_before
            )
            if loaded is not None:
                self.stats.store_hits += 1
                result = self._from_store(goal, goal_slice, *loaded)
                self._note_outcome(goal, result)
                return result
            self.stats.store_misses += 1

        # 3. a proven-infeasible prefix subsumes every extension
        if (
            goal.ordered_labels
            and not goal.target_locations
            and not goal.target_labels
        ):
            for prefix in self._infeasible_prefixes:
                if goal.ordered_labels[: len(prefix)] == prefix:
                    self.stats.prefix_hits += 1
                    perf.add("mc.query.prefix_hits")
                    result = CheckResult(
                        verdict=Verdict.UNREACHABLE,
                        statistics=self._empty_statistics(),
                        goal_description=goal.description,
                    )
                    # subsumption derives from a proof over this system, so
                    # the verdict is as persistable as the proof itself
                    self._persist(store, goal, goal_slice, result)
                    return result

        # 4. the budgeted engine portfolio
        result = self._run_portfolio(goal, goal_slice)
        self._note_outcome(goal, result)
        if result.verdict is not Verdict.ENGINE_FAULT:
            # a faulted query is a property of this run's fault plan, not of
            # the goal: persisting it would let one injected crash answer
            # the goal with a degraded verdict in later runs
            self._persist(store, goal, goal_slice, result)
        return result

    # ------------------------------------------------------------------ #
    # persistent store plumbing
    # ------------------------------------------------------------------ #
    def _content_fingerprint(self, goal_slice: GoalSlice | None) -> str:
        """The store key component: content hash of the search model.

        A slice that removed nothing hashes identically to the full system,
        so "no slicing" and "improper slice" share entries by construction.
        """
        if goal_slice is not None:
            return goal_slice.fingerprint
        if self._full_fingerprint is None:
            self._full_fingerprint = system_fingerprint(self._translation.system)
        return self._full_fingerprint

    def _replay_system(self, goal_slice: GoalSlice | None):
        """The system witnesses are serialised against and replayed on."""
        if goal_slice is not None and goal_slice.is_proper:
            return goal_slice.translation.system
        return self._translation.system

    def _note_outcome(self, goal: ReachabilityGoal, result: CheckResult) -> None:
        """Record a proven-infeasible label sequence for the rest of the batch."""
        if (
            result.verdict is Verdict.UNREACHABLE
            and goal.ordered_labels
            and not goal.target_locations
            and not goal.target_labels
        ):
            self._infeasible_prefixes.append(tuple(goal.ordered_labels))

    def _persist(
        self,
        store: QueryStore | None,
        goal: ReachabilityGoal,
        goal_slice: GoalSlice | None,
        result: CheckResult,
    ) -> None:
        if store is None:
            return
        if store.save(
            self._content_fingerprint(goal_slice),
            goal,
            self._replay_system(goal_slice),
            result.verdict,
            result.counterexample,
        ):
            self.stats.store_writes += 1

    def _from_store(
        self,
        goal: ReachabilityGoal,
        goal_slice: GoalSlice | None,
        verdict: Verdict,
        counterexample: Counterexample | None,
    ) -> CheckResult:
        """Materialise a store hit as a full-model result.

        The replayed witness lives on the sliced system.  For every
        variable of the full model the stored value is used when it is
        valid here (an integer, in domain, matching a fixed initial), and
        re-completed exactly like :meth:`_complete_counterexample` would
        otherwise -- so a same-function warm hit is bit-identical to the
        cold result it memoises, while a cross-function hit gets sound
        deterministic values for the variables the producer never had.
        """
        stats = self._empty_statistics()
        if verdict is Verdict.REACHABLE and counterexample is not None:
            stored = counterexample.initial_state
            initial_state: dict[str, int] = {}
            for name, variable in self._translation.system.variables.items():
                value = stored.get(name)
                if (
                    isinstance(value, int)
                    and not isinstance(value, bool)
                    and variable.domain.lo <= value <= variable.domain.hi
                    and (variable.initial is None or value == variable.initial)
                ):
                    initial_state[name] = value
                else:
                    initial_state[name] = (
                        variable.initial
                        if variable.initial is not None
                        else variable.domain.lo
                    )
            inputs = {
                name: initial_state[name]
                for name, variable in self._translation.system.variables.items()
                if variable.is_input
            }
            counterexample = Counterexample(
                inputs=inputs,
                initial_state=initial_state,
                trace=list(counterexample.trace),
            )
            stats.steps = counterexample.steps
            return CheckResult(
                verdict=Verdict.REACHABLE,
                counterexample=counterexample,
                statistics=stats,
                goal_description=goal.description,
            )
        return CheckResult(
            verdict=Verdict.UNREACHABLE,
            statistics=stats,
            goal_description=goal.description,
        )

    # ------------------------------------------------------------------ #
    # slicing
    # ------------------------------------------------------------------ #
    def _slice_for(self, goal: ReachabilityGoal) -> GoalSlice | None:
        if not self._options.slicing:
            return None
        seed = (
            goal.target_locations,
            goal.target_labels,
            goal.ordered_labels[-1] if goal.ordered_labels else None,
        )
        if seed in self._slices:
            return self._slices[seed]
        if self._forward is None:
            self._forward = forward_reachable_locations(self._translation.system)
        with perf.timed("mc.slice"):
            goal_slice = slice_for_goal(self._translation, goal, self._forward)
        if goal_slice.is_proper:
            self.stats.sliced += 1
            perf.add("mc.query.sliced")
        self._slices[seed] = goal_slice
        return goal_slice

    # ------------------------------------------------------------------ #
    # the portfolio
    # ------------------------------------------------------------------ #
    def _stages(
        self, goal_slice: GoalSlice | None
    ) -> list[tuple[str, TranslationResult]]:
        """(label, model) stages in portfolio order for this goal.

        Every stage searches the same model: the goal's slice when it is
        proper, the full model otherwise.
        """
        if goal_slice is not None and goal_slice.is_proper:
            model, symbolic = goal_slice.translation, "symbolic:sliced"
        else:
            model, symbolic = self._translation, "symbolic:full"
        kind = self._options.engine
        if kind is EngineKind.EXPLICIT:
            return [("explicit", model)]
        stages: list[tuple[str, TranslationResult]] = []
        if (
            kind is EngineKind.AUTO
            and model.system.initial_state_bits() <= EXPLICIT_BITS_THRESHOLD
        ):
            stages.append(("explicit", model))
        stages.append((symbolic, model))
        return stages

    def _run_portfolio(
        self, goal: ReachabilityGoal, goal_slice: GoalSlice | None
    ) -> CheckResult:
        budget = self._options.budget
        started = time.perf_counter()
        deadline = (
            started + budget.deadline_seconds
            if budget is not None and budget.deadline_seconds is not None
            else None
        )
        spent_steps = 0
        spent_solver_calls = 0
        engines_tried: list[str] = []
        last: CheckResult | None = None
        tripped_before_stage: str | None = None

        solver_faults: list[InjectedFault] = []
        for label, model in self._stages(goal_slice):
            # the per-job wall-clock deadline (scheduler resilience) is
            # polled between stages -- solver stages are the long-running
            # part of a job besides interpreter runs
            poll_deadline()
            tripped_before_stage = self._budget_spent(
                budget, deadline, spent_steps, spent_solver_calls
            )
            if tripped_before_stage is not None:
                break
            engine = self._build_engine(
                label, model, budget, deadline, spent_steps, spent_solver_calls
            )
            try:
                with obs.span("mc.solve", engine=label), perf.timed("mc.solve"):
                    maybe_fault("mc.solve", goal.description)
                    # the warm-run gate: a run answered entirely from
                    # subsumption and the store executes zero engine stages
                    self.stats.solver_runs += 1
                    perf.add("mc.query.solver_runs")
                    result = engine.check(goal)
            except StateSpaceTooLarge:
                if self._options.engine is EngineKind.EXPLICIT:
                    raise  # a forced engine does not fall through
                continue
            except InjectedFault as fault:
                # a (simulated) solver crash fails this stage only; later
                # stages may still answer, and an unanswered goal degrades
                # to the typed ENGINE_FAULT verdict instead of raising
                solver_faults.append(fault)
                continue
            engines_tried.append(label)
            spent_steps += result.statistics.explored_states
            spent_solver_calls += result.statistics.solver.solve_calls
            last = result
            if result.verdict in (Verdict.REACHABLE, Verdict.UNREACHABLE):
                break

        if last is None and solver_faults:
            # every stage that ran died on an injected solver fault: degrade
            # to a typed verdict ("unreached, pessimise"), never raise
            self.stats.engine_faults += 1
            perf.add("mc.query.engine_faults")
            stats = self._empty_statistics()
            stats.engines_tried = tuple(engines_tried)
            stats.stop_reason = "engine-fault"
            stats.time_seconds = time.perf_counter() - started
            return CheckResult(
                verdict=Verdict.ENGINE_FAULT,
                statistics=stats,
                goal_description=goal.description,
            )
        return self._finalize(
            goal, goal_slice, last, engines_tried, budget,
            spent_steps, spent_solver_calls, time.perf_counter() - started,
            tripped_before_stage,
        )

    @staticmethod
    def _budget_spent(
        budget: QueryBudget | None,
        deadline: float | None,
        spent_steps: int,
        spent_solver_calls: int,
    ) -> str | None:
        """The budget limit already used up before a stage, if any."""
        if budget is None:
            return None
        if budget.max_steps is not None and spent_steps >= budget.max_steps:
            return "steps"
        if (
            budget.max_solver_calls is not None
            and spent_solver_calls >= budget.max_solver_calls
        ):
            return "solver_calls"
        if deadline is not None and time.perf_counter() >= deadline:
            return "deadline"
        return None

    def _build_engine(
        self,
        label: str,
        model: TranslationResult,
        budget: QueryBudget | None,
        deadline: float | None,
        spent_steps: int,
        spent_solver_calls: int,
    ):
        remaining_time = (
            max(0.0, deadline - time.perf_counter()) if deadline is not None else None
        )
        if label == "explicit":
            options = self._options.explicit or ExplicitEngineOptions()
            if budget is not None and budget.max_steps is not None:
                options = replace(
                    options,
                    max_explored_states=min(
                        options.max_explored_states, budget.max_steps - spent_steps
                    ),
                )
            if remaining_time is not None:
                limit = options.time_limit
                options = replace(
                    options,
                    time_limit=remaining_time
                    if limit is None
                    else min(limit, remaining_time),
                )
            return ExplicitStateEngine(model.system, options)
        options = self._options.symbolic or SymbolicEngineOptions()
        if budget is not None and budget.max_steps is not None:
            options = replace(
                options,
                max_paths=min(options.max_paths, budget.max_steps - spent_steps),
            )
        if budget is not None and budget.max_solver_calls is not None:
            remaining_calls = budget.max_solver_calls - spent_solver_calls
            limit = options.max_solver_calls
            options = replace(
                options,
                max_solver_calls=remaining_calls
                if limit is None
                else min(limit, remaining_calls),
            )
        if remaining_time is not None:
            limit = options.time_limit
            options = replace(
                options,
                time_limit=remaining_time
                if limit is None
                else min(limit, remaining_time),
            )
        return SymbolicEngine(model.system, options)

    # ------------------------------------------------------------------ #
    def _finalize(
        self,
        goal: ReachabilityGoal,
        goal_slice: GoalSlice | None,
        last: CheckResult | None,
        engines_tried: list[str],
        budget: QueryBudget | None,
        spent_steps: int,
        spent_solver_calls: int,
        elapsed: float,
        tripped_before_stage: str | None,
    ) -> CheckResult:
        if last is None:
            last = CheckResult(
                verdict=Verdict.UNKNOWN,
                statistics=self._empty_statistics(),
                goal_description=goal.description,
            )
        stats = last.statistics
        # statistics always describe the caller's full model; the sliced
        # fields record what the search actually ran on
        original = self._translation.system
        stats.state_bits = original.total_state_bits()
        stats.transitions_in_model = len(original.transitions)
        stats.engines_tried = tuple(engines_tried)
        stats.time_seconds = elapsed
        stats.explored_states = spent_steps
        if (
            last.verdict is Verdict.REACHABLE
            and last.counterexample is not None
            and goal_slice is not None
            and goal_slice.dropped_variables
        ):
            last.counterexample = self._complete_counterexample(last.counterexample)

        if last.verdict is Verdict.UNKNOWN and budget is not None:
            limit = tripped_before_stage or self._tripped_limit(
                budget, spent_steps, spent_solver_calls, elapsed, stats.stop_reason
            )
            if limit is not None:
                self.stats.budget_exhausted += 1
                perf.add("mc.query.budget_exhausted")
                return CheckResult(
                    verdict=Verdict.BUDGET_EXHAUSTED,
                    statistics=stats,
                    goal_description=goal.description,
                    exhaustion=BudgetExhausted(
                        limit=limit,
                        spent_steps=spent_steps,
                        spent_solver_calls=spent_solver_calls,
                        spent_seconds=elapsed,
                    ),
                )
        return last

    @staticmethod
    def _tripped_limit(
        budget: QueryBudget,
        spent_steps: int,
        spent_solver_calls: int,
        elapsed: float,
        stop_reason: str | None,
    ) -> str | None:
        """Which budget limit actually stopped the search, if any.

        The engine's ``stop_reason`` disambiguates: an UNKNOWN caused by the
        engine's own internal bounds (depth, loop-unrolling) near a budget
        boundary must stay a plain UNKNOWN, not be misattributed to the
        budget.
        """
        if (
            stop_reason in ("paths", "states")
            and budget.max_steps is not None
            and spent_steps >= budget.max_steps
        ):
            return "steps"
        if (
            stop_reason == "solver_calls"
            and budget.max_solver_calls is not None
            and spent_solver_calls >= budget.max_solver_calls
        ):
            return "solver_calls"
        deadline = budget.deadline_seconds
        if (
            stop_reason == "deadline"
            and deadline is not None
            and elapsed >= deadline * 0.98
        ):
            # the 2% slack covers the engine stopping just short of the
            # absolute deadline between two poll points; an engine-internal
            # time limit shorter than the budget fails this elapsed check
            return "deadline"
        return None

    def _complete_counterexample(self, witness: Counterexample) -> Counterexample:
        """Fill in variables the slice dropped (any in-domain value works)."""
        initial_state = dict(witness.initial_state)
        for name, variable in self._translation.system.variables.items():
            if name not in initial_state:
                initial_state[name] = (
                    variable.initial
                    if variable.initial is not None
                    else variable.domain.lo
                )
        inputs = {
            name: initial_state[name]
            for name, variable in self._translation.system.variables.items()
            if variable.is_input
        }
        return Counterexample(
            inputs=inputs, initial_state=initial_state, trace=witness.trace
        )

    def _empty_statistics(self) -> CheckStatistics:
        system = self._translation.system
        return CheckStatistics(
            state_bits=system.total_state_bits(),
            transitions_in_model=len(system.transitions),
            sliced_state_bits=system.total_state_bits(),
            sliced_transitions=len(system.transitions),
        )
