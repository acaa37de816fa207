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
collapses into a single transition.
"""

from __future__ import annotations

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


def apply_statement_concatenation(
    system: TransitionSystem,
) -> tuple[TransitionSystem, ConcatenationReport]:
    """Fuse chains of independent unguarded transitions in place.

    The system is modified in place (and also returned, for pipeline
    convenience).  Labels and statement counts of fused transitions are
    concatenated so CFG provenance and step accounting stay meaningful.
    """
    report = ConcatenationReport(transitions_before=len(system.transitions))
    changed = True
    while changed:
        changed = False
        incoming: dict[int, list[Transition]] = {}
        outgoing: dict[int, list[Transition]] = {}
        for transition in system.transitions:
            outgoing.setdefault(transition.source, []).append(transition)
            incoming.setdefault(transition.target, []).append(transition)
        protected = {system.initial_location} | set(system.final_locations)
        for first in list(system.transitions):
            middle = first.target
            if middle in protected:
                continue
            if len(incoming.get(middle, ())) != 1 or len(outgoing.get(middle, ())) != 1:
                continue
            second = outgoing[middle][0]
            if second.source == second.target or first.source == middle:
                continue
            if first.guard is not None or second.guard is not None:
                continue
            if not _independent(first, second):
                continue
            fused = Transition(
                source=first.source,
                target=second.target,
                guard=None,
                updates=list(first.updates) + list(second.updates),
                labels=tuple(dict.fromkeys(first.labels + second.labels)),
                statement_count=first.statement_count + second.statement_count,
            )
            system.transitions.remove(first)
            system.transitions.remove(second)
            system.transitions.append(fused)
            report.fusions += 1
            changed = True
            break  # adjacency maps are stale; rebuild and continue
    report.transitions_after = len(system.transitions)
    system.annotations.append(
        f"statement concatenation: {report.transitions_before} -> "
        f"{report.transitions_after} transitions"
    )
    return system, report
