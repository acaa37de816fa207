"""Per-goal relevance slicing of translated transition systems.

Classic cone-of-influence reduction, applied *per reachability goal*: a
query "reach block 613" does not need the five operating modes that cannot
lead to block 613, nor the variables that only feed branches inside them.
The slice is computed on the translated :class:`TransitionSystem` (where the
control structure and every guard are explicit) in two steps:

1. **control slice** -- keep only transitions that lie on some path from the
   initial location to a goal *anchor* (a transition carrying a goal label,
   or a goal location): forward reachability from the initial location
   intersected with backward reachability from the anchors.  Every witness
   path visits only such transitions, and the slice cannot invent new paths,
   so REACHABLE/UNREACHABLE verdicts are exactly preserved.
2. **data cone** -- keep only variables read by the guards of the kept
   transitions, closed under data dependencies through their updates
   (the transition-level analogue of
   :func:`repro.analysis.relevance.control_relevant_variables` over
   :mod:`repro.analysis.usedef`).  Updates to dropped variables become skip
   updates; guards are untouched, so guard evaluation -- and hence the set
   of feasible paths -- is unchanged.

The result typically turns the 857-block industrial function's deep queries
from a search over the whole mode ladder into a search over one mode's
cone, which is what makes the big application checkable at all.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from ..minic.folding import expression_variables
from ..minic.pretty import print_expression
from ..transsys.translate import TranslationResult
from .property import ReachabilityGoal


def system_fingerprint(system) -> str:
    """Content hash of a transition system, stable across runs and names.

    Hashes exactly what the engines see -- initial location, variable
    domains/kinds/initial values, and every transition's printed guard,
    updates and labels -- and deliberately *excludes* ``system.name``: two
    functions whose sliced cones are structurally identical share one
    fingerprint, so persisted verdicts transfer across functions and runs.
    """
    digest = hashlib.sha256()
    digest.update(repr(system.initial_location).encode("utf-8"))
    for name in sorted(system.variables):
        variable = system.variables[name]
        digest.update(
            repr(
                (
                    name,
                    variable.domain.lo,
                    variable.domain.hi,
                    variable.is_input,
                    variable.initial,
                )
            ).encode("utf-8")
        )
    for transition in system.transitions:
        digest.update(
            repr(
                (
                    transition.source,
                    transition.target,
                    print_expression(transition.guard)
                    if transition.guard is not None
                    else None,
                    tuple(
                        (name, print_expression(expr))
                        for name, expr in transition.updates
                    ),
                    tuple(transition.labels),
                )
            ).encode("utf-8")
        )
    return digest.hexdigest()[:16]


@dataclass
class GoalSlice:
    """A goal-specific slice of a translated function."""

    #: sliced translation (shares the base result's CFG provenance maps)
    translation: TranslationResult
    #: stable identity of the slice -- the query store's key component
    fingerprint: str
    kept_variables: frozenset[str]
    dropped_variables: frozenset[str]
    kept_transition_count: int
    original_transition_count: int

    @property
    def is_proper(self) -> bool:
        """True when the slice actually removed something."""
        return (
            bool(self.dropped_variables)
            or self.kept_transition_count < self.original_transition_count
        )


def parse_label(label: str) -> tuple | None:
    """Structured view of a transition label, or None for foreign formats.

    The translator emits exactly two label shapes (see
    :mod:`repro.transsys.translate`): ``block:<id>`` becomes
    ``("block", id)`` and ``edge:<source>-><target>:<kind>`` becomes
    ``("edge", source, target, kind)`` with *kind* the
    :class:`~repro.cfg.graph.EdgeKind` value string.  Consumers that prove
    facts from labels (the static prefilter) must treat ``None`` as
    "unknown — assume nothing".
    """
    if label.startswith("block:"):
        try:
            return ("block", int(label[len("block:"):]))
        except ValueError:
            return None
    if label.startswith("edge:"):
        body = label[len("edge:"):]
        head, sep, kind = body.rpartition(":")
        if not sep or not kind:
            return None
        source_text, arrow, target_text = head.partition("->")
        if not arrow:
            return None
        try:
            return ("edge", int(source_text), int(target_text), kind)
        except ValueError:
            return None
    return None


def forward_reachable_locations(system) -> frozenset[int]:
    """Locations reachable from the initial location (goal-independent)."""
    successors: dict[int, list[int]] = {}
    for transition in system.transitions:
        successors.setdefault(transition.source, []).append(transition.target)
    seen = {system.initial_location}
    worklist = [system.initial_location]
    while worklist:
        location = worklist.pop()
        for target in successors.get(location, ()):
            if target not in seen:
                seen.add(target)
                worklist.append(target)
    return frozenset(seen)


def _goal_anchor_labels(goal: ReachabilityGoal) -> frozenset[str]:
    """Labels whose traversal can complete the goal.

    For an ordered-label goal only the *last* label finishes the sequence;
    every earlier label lies on the path to it and is kept by the backward
    closure automatically.
    """
    labels = set(goal.target_labels)
    if goal.ordered_labels:
        labels.add(goal.ordered_labels[-1])
    return frozenset(labels)


def slice_for_goal(
    translation: TranslationResult,
    goal: ReachabilityGoal,
    forward: frozenset[int] | None = None,
) -> GoalSlice:
    """Compute the cone-of-influence slice of *translation* for *goal*.

    ``forward`` may pass a precomputed :func:`forward_reachable_locations`
    set (it does not depend on the goal, so callers running query batches
    compute it once).
    """
    system = translation.system
    transitions = system.transitions
    if forward is None:
        forward = forward_reachable_locations(system)

    # --- anchors: where the goal can be completed -------------------------- #
    anchor_labels = _goal_anchor_labels(goal)
    anchor_indices: set[int] = set()
    seeds: set[int] = set(goal.target_locations)
    for index, transition in enumerate(transitions):
        if anchor_labels and anchor_labels.intersection(transition.labels):
            anchor_indices.add(index)
            seeds.add(transition.source)

    # --- backward reachability to a seed over the location graph ---------- #
    predecessors: dict[int, list[int]] = {}
    for transition in transitions:
        predecessors.setdefault(transition.target, []).append(transition.source)
    can_reach = set(seeds)
    worklist = list(seeds)
    while worklist:
        location = worklist.pop()
        for source in predecessors.get(location, ()):
            if source not in can_reach:
                can_reach.add(source)
                worklist.append(source)

    # --- control slice ----------------------------------------------------- #
    kept_indices = [
        index
        for index, transition in enumerate(transitions)
        if transition.source in can_reach
        and transition.source in forward
        and (index in anchor_indices or transition.target in can_reach)
    ]
    kept_transitions = [transitions[index] for index in kept_indices]

    # --- data cone: guard variables closed under update dependencies ------ #
    relevant: set[str] = set()
    dependencies: dict[str, set[str]] = {}
    for transition in kept_transitions:
        if transition.guard is not None:
            relevant |= expression_variables(transition.guard)
        for name, expr in transition.updates:
            dependencies.setdefault(name, set()).update(expression_variables(expr))
    worklist = list(relevant)
    while worklist:
        name = worklist.pop()
        for source in dependencies.get(name, ()):
            if source not in relevant:
                relevant.add(source)
                worklist.append(source)

    kept_variables = frozenset(name for name in system.variables if name in relevant)
    dropped_variables = frozenset(system.variables) - kept_variables

    sliced = translation.sliced(kept_variables, kept_transitions)
    return GoalSlice(
        translation=sliced,
        # a *content* hash of the sliced system (not of the kept index set):
        # stable across processes and across functions whose cones coincide,
        # which is what lets the persistent query store survive edits
        # outside the cone
        fingerprint=system_fingerprint(sliced.system),
        kept_variables=kept_variables,
        dropped_variables=dropped_variables,
        kept_transition_count=len(kept_transitions),
        original_transition_count=len(transitions),
    )
