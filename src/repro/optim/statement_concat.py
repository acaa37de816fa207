"""Statement concatenation (Section 3.2.3).

    "The basic idea is to combine as many C statements as possible into a
    single SAL block, thus reducing the number of transitions to be executed
    by the model checker. [...] The prerequisite for this optimisation is
    that the variables in the C statements are independent."

The optimisation operates on the translated transition system: two
transitions ``A --t1--> B --t2--> C`` are fused into ``A --> C`` when

* ``B`` is an internal location (exactly one incoming and one outgoing
  transition, neither the initial nor a final location),
* neither transition is guarded (straight-line statements only), and
* the statements are independent: ``t1`` writes nothing ``t2`` reads or
  writes, and ``t2`` writes nothing ``t1`` reads -- so SAL-style simultaneous
  execution of the combined updates equals sequential execution.

Fusion is applied to a fixed point, so a run of *k* independent statements
collapses into a single transition, in one pass over the transitions.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass

from ..minic.folding import expression_variables
from ..transsys.system import Transition, TransitionSystem


@dataclass
class ConcatenationReport:
    """How much the transition count shrank."""

    transitions_before: int = 0
    transitions_after: int = 0
    fusions: int = 0


def _reads(transition: Transition) -> set[str]:
    names: set[str] = set()
    if transition.guard is not None:
        names |= expression_variables(transition.guard)
    for _, expr in transition.updates:
        names |= expression_variables(expr)
    return names


def _writes(transition: Transition) -> set[str]:
    return {name for name, _ in transition.updates}


def _independent(first: Transition, second: Transition) -> bool:
    first_writes = _writes(first)
    second_writes = _writes(second)
    if first_writes & (_reads(second) | second_writes):
        return False
    if second_writes & _reads(first):
        return False
    return True


def _fusable(first: Transition, second: Transition) -> bool:
    """Whether ``first`` into a middle location and ``second`` out of it fuse."""
    return (
        second.source != second.target
        and first.source != first.target
        and first.guard is None
        and second.guard is None
        and _independent(first, second)
    )


def apply_statement_concatenation(
    system: TransitionSystem,
) -> tuple[TransitionSystem, ConcatenationReport]:
    """Fuse chains of independent unguarded transitions in place.

    The system is modified in place (and also returned, for pipeline
    convenience).  Labels and statement counts of fused transitions are
    concatenated so CFG provenance and step accounting stay meaningful.

    The fusions are those of rescanning the list from the start after each
    one, with the fused transition appended in place of its two parts: next
    is always the middle location whose incoming transition comes first.  A
    fusion changes no location's degree, so the candidate middles are fixed
    up front.
    """
    transitions = system.transitions
    report = ConcatenationReport(transitions_before=len(transitions))
    ins = Counter(transition.target for transition in transitions)
    outs = Counter(transition.source for transition in transitions)
    protected = {system.initial_location, *system.final_locations}
    middles = {loc for loc in ins if ins[loc] == 1 and outs[loc] == 1} - protected
    #: candidate middle -> (list position of its one incoming transition,
    #: that transition); a fused transition's position is after every other
    into = {t.target: (index, t) for index, t in enumerate(transitions) if t.target in middles}
    out_of = {t.source: t for t in transitions if t.source in middles}
    heap = [(rank, middle) for middle, (rank, _) in into.items()]
    heapq.heapify(heap)
    fused_in_order: list[Transition] = []
    removed: set[int] = set()
    while heap:
        rank, middle = heapq.heappop(heap)
        if middle not in into or into[middle][0] != rank:
            continue  # fused already, or a stale entry
        first, second = into[middle][1], out_of[middle]
        if not _fusable(first, second):
            continue
        fused = Transition(
            source=first.source,
            target=second.target,
            guard=None,
            updates=list(first.updates) + list(second.updates),
            labels=tuple(dict.fromkeys(first.labels + second.labels)),
            statement_count=first.statement_count + second.statement_count,
        )
        fused_rank = len(transitions) + len(fused_in_order)
        fused_in_order.append(fused)
        removed.update((id(first), id(second)))
        report.fusions += 1
        del into[middle], out_of[middle]
        # the fused transition reads and writes more than either part, so a
        # neighbour that did not fuse before cannot fuse now; only the next
        # middle's incoming position moves
        if first.source in out_of:
            out_of[first.source] = fused
        if second.target in into:
            into[second.target] = (fused_rank, fused)
            heapq.heappush(heap, (fused_rank, second.target))
    transitions[:] = [
        transition
        for transition in transitions + fused_in_order
        if id(transition) not in removed
    ]
    report.transitions_after = len(transitions)
    system.annotations.append(
        f"statement concatenation: {report.transitions_before} -> "
        f"{report.transitions_after} transitions"
    )
    return system, report
