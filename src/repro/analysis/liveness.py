"""Live-variable analysis.

The classical backward may-analysis: a variable is *live* at a program point
when its current value may still be read on some path from that point.  The
paper's "Live-Variable Analysis" optimisation (Section 3.2.2) uses it to let
variables with non-overlapping live ranges share one memory location in the
model -- fewer state variables, smaller state space -- and to remove variables
that are never used at all.

Two granularities are provided:

* :func:`block_liveness` -- live-in / live-out sets per basic block,
* :func:`statement_liveness` -- live-after sets per statement inside a block
  (needed by the interference-graph construction of the optimisation).

The fixpoint runs on the indexed bitset engine
(:mod:`repro.analysis.bitset`), the only solver used outside the tests:
variable names are interned to bit positions once per CFG and the transfer is
a handful of integer operations.  The public result type stays frozensets of
names; the original frozenset implementation lives on as
``block_liveness_reference`` in ``tests/dataflow_reference.py`` and the two are
cross-checked bit-for-bit by the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cfg.graph import BasicBlock, ControlFlowGraph
from .bitset import bitset_block_liveness
from .usedef import cfg_use_defs


@dataclass
class LivenessResult:
    """Per-block live variable sets."""

    live_in: dict[int, frozenset[str]]
    live_out: dict[int, frozenset[str]]

    def live_anywhere(self) -> frozenset[str]:
        """Variables live at some point in the function."""
        everything: frozenset[str] = frozenset()
        for fact in self.live_in.values():
            everything |= fact
        for fact in self.live_out.values():
            everything |= fact
        return everything


def block_liveness(cfg: ControlFlowGraph) -> LivenessResult:
    """Compute live-in/live-out sets for every block of *cfg*."""
    solved = bitset_block_liveness(cfg)
    names_of = solved.index.interner.names_of
    live_in = {block_id: names_of(mask) for block_id, mask in solved.live_in.items()}
    live_out = {block_id: names_of(mask) for block_id, mask in solved.live_out.items()}
    return LivenessResult(live_in=live_in, live_out=live_out)


def statement_liveness(
    cfg: ControlFlowGraph, block: BasicBlock, live_out: frozenset[str]
) -> list[frozenset[str]]:
    """Live-after set of every statement of *block*.

    ``live_out`` is the block-level live-out set (from
    :func:`block_liveness`).  The returned list is parallel to
    ``block.statements``: element *i* is the set of variables live immediately
    after statement *i* executed.  The block's terminator condition counts as
    executing after the last statement.
    """
    from ..cfg.graph import CfgError
    from .usedef import block_condition_uses, statement_use_def

    try:
        registered = cfg.block(block.block_id)
    except CfgError:
        registered = None
    if registered is block:
        use_defs = cfg_use_defs(cfg)
        condition_uses = use_defs.condition_uses(block.block_id)
        statement_use_defs = use_defs.statements(block.block_id)
    else:
        # a detached or substituted block: honour exactly what was passed
        condition_uses = block_condition_uses(block)
        statement_use_defs = tuple(statement_use_def(s) for s in block.statements)
    after = set(live_out)
    after |= condition_uses
    live_after: list[frozenset[str]] = [frozenset()] * len(block.statements)
    for index in range(len(block.statements) - 1, -1, -1):
        live_after[index] = frozenset(after)
        use_def = statement_use_defs[index]
        after -= use_def.defs
        after |= use_def.uses
    return live_after


def unused_variables(cfg: ControlFlowGraph, candidates: set[str]) -> set[str]:
    """Variables from *candidates* that are never read anywhere in *cfg*.

    "This optimisation technique is also used to remove unused variables"
    (Section 3.2.2): a variable that is never used can be dropped from the
    model entirely, no matter how often it is written.
    """
    use_defs = cfg_use_defs(cfg)
    read: set[str] = set()
    for block in cfg.blocks():
        # statement-level uses (block_use_def would hide reads that follow an
        # earlier definition in the same block) plus branch-condition reads
        for use_def in use_defs.statements(block.block_id):
            read |= use_def.uses
        read |= use_defs.condition_uses(block.block_id)
    return {name for name in candidates if name not in read}


def live_range_conflicts(cfg: ControlFlowGraph) -> dict[str, set[str]]:
    """Interference graph over variables: edges between simultaneously live vars.

    Two variables interfere when one is defined at a point where the other is
    live (standard register-allocation interference).  The live-variable
    optimisation merges non-interfering variables of equal type.
    """
    liveness = block_liveness(cfg)
    use_defs = cfg_use_defs(cfg)
    conflicts: dict[str, set[str]] = {}

    def add_conflict(a: str, b: str) -> None:
        if a == b:
            return
        conflicts.setdefault(a, set()).add(b)
        conflicts.setdefault(b, set()).add(a)

    for block in cfg.blocks():
        live_after = statement_liveness(cfg, block, liveness.live_out[block.block_id])
        statement_use_defs = use_defs.statements(block.block_id)
        for index in range(len(block.statements)):
            use_def = statement_use_defs[index]
            for defined in use_def.defs:
                conflicts.setdefault(defined, set())
                for other in live_after[index]:
                    add_conflict(defined, other)
    # make sure every live variable appears as a node
    for name in liveness.live_anywhere():
        conflicts.setdefault(name, set())
    return conflicts
