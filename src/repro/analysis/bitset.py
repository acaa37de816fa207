"""Indexed-bitset dataflow engine: the one solver of liveness and reaching definitions.

The reference framework in ``tests/dataflow_reference.py`` represents facts
as frozensets of variable-name strings; every join re-hashes every string and
every equality check compares sets element-wise.  On an industrial-size CFG
(the paper's ~857-block TargetLink function) that dominates the analysis
time.  This module interns the variables (and, for reaching definitions, the
definition sites) of one CFG into dense bit indices *once* and runs the
fixpoint over plain Python integers: joins become ``|``, the liveness
transfer is ``use | (out & ~defs)``, equality is integer comparison.

Interning tables and per-block use/def masks are memoised on the CFG's
analysis cache, so repeated analyses of the same graph (the optimisation
pipeline runs liveness several times) pay the extraction cost once.  The
public analyses in :mod:`repro.analysis.liveness` and
:mod:`repro.analysis.reaching` run on this engine and convert the final
masks back to their documented frozenset result types; the original
frozenset implementations survive as the cross-check reference in
``tests/dataflow_reference.py``.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Iterable, Iterator

from .. import perf
from ..cfg.graph import ControlFlowGraph, TerminatorKind
from .usedef import CfgUseDefs, cfg_use_defs


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of *mask* in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class VariableInterner:
    """Bidirectional mapping between variable names and dense bit indices.

    ``names_of`` memoises mask-to-frozenset conversions: fixpoints produce
    the same mask for many blocks (straight-line regions carry identical
    facts), and an interner lives as long as its CFG, so each distinct mask
    is materialised exactly once.
    """

    __slots__ = ("names", "index", "_names_of_mask")

    def __init__(self, names: Iterable[str]):
        self.names: tuple[str, ...] = tuple(sorted(set(names)))
        self.index: dict[str, int] = {name: i for i, name in enumerate(self.names)}
        self._names_of_mask: dict[int, frozenset[str]] = {}

    def __len__(self) -> int:
        return len(self.names)

    def mask_of(self, names: Iterable[str]) -> int:
        index = self.index
        mask = 0
        for name in names:
            mask |= 1 << index[name]
        return mask

    def names_of(self, mask: int) -> frozenset[str]:
        cached = self._names_of_mask.get(mask)
        if cached is None:
            names = self.names
            cached = frozenset(names[bit] for bit in iter_bits(mask))
            self._names_of_mask[mask] = cached
        return cached


class CfgBitsetIndex:
    """Per-CFG variable interner plus per-block use/def masks.

    ``block_use``/``block_def`` mirror :func:`repro.analysis.usedef.block_use_def`
    (upward-exposed uses, branch/switch condition included); ``condition_use``
    mirrors :func:`block_condition_uses` (no terminator-kind filter).
    """

    def __init__(self, cfg: ControlFlowGraph):
        use_defs = cfg_use_defs(cfg)
        names: set[str] = set()
        block_ids = [block.block_id for block in cfg.blocks()]
        statement_count = 0
        for block_id in block_ids:
            for use_def in use_defs.statements(block_id):
                names |= use_def.uses
                names |= use_def.defs
                statement_count += 1
            names |= use_defs.condition_uses(block_id)
        self.interner = VariableInterner(names)
        self.use_defs: CfgUseDefs = use_defs
        #: fingerprint for the staleness guard in :func:`cfg_bitset_index`
        self.statement_count = statement_count

        mask_of = self.interner.mask_of
        self.block_use: dict[int, int] = {}
        self.block_def: dict[int, int] = {}
        self.condition_use: dict[int, int] = {}
        #: parallel to ``block.statements``: per-statement ``(use, def)`` masks
        self.statement_masks: dict[int, tuple[tuple[int, int], ...]] = {}
        for block_id in block_ids:
            block = cfg.block(block_id)
            stmt_masks = tuple(
                (mask_of(ud.uses), mask_of(ud.defs))
                for ud in use_defs.statements(block_id)
            )
            self.statement_masks[block_id] = stmt_masks
            uses = 0
            defs = 0
            for use_mask, def_mask in stmt_masks:
                uses |= use_mask & ~defs
                defs |= def_mask
            condition = mask_of(use_defs.condition_uses(block_id))
            self.condition_use[block_id] = condition
            if block.terminator.kind in (TerminatorKind.BRANCH, TerminatorKind.SWITCH):
                uses |= condition & ~defs
            self.block_use[block_id] = uses
            self.block_def[block_id] = defs


def _statement_count(cfg: ControlFlowGraph) -> int:
    return sum(len(block.statements) for block in cfg.blocks())


def cfg_bitset_index(cfg: ControlFlowGraph) -> CfgBitsetIndex:
    """The memoised :class:`CfgBitsetIndex` of *cfg* (cached on the graph).

    The cheap statement-count fingerprint rebuilds the index when statements
    were appended/removed in place without an explicit cache invalidation
    (same-length replacement still needs ``invalidate_analysis_caches()``).
    """
    cached = cfg.analysis_cache.get("bitset_index")
    if cached is None or cached.statement_count != _statement_count(cfg):
        cached = CfgBitsetIndex(cfg)
        cfg.analysis_cache["bitset_index"] = cached
    return cached  # type: ignore[return-value]


class BitsetLiveness:
    """Result of the bitset liveness fixpoint (masks, not names)."""

    __slots__ = ("live_in", "live_out", "index", "iterations")

    def __init__(
        self,
        live_in: dict[int, int],
        live_out: dict[int, int],
        index: CfgBitsetIndex,
        iterations: int,
    ):
        self.live_in = live_in
        self.live_out = live_out
        self.index = index
        self.iterations = iterations


def bitset_block_liveness(cfg: ControlFlowGraph) -> BitsetLiveness:
    """Backward may-analysis ``live_in = use | (live_out & ~defs)`` on masks.

    The worklist is seeded in reverse postorder of the reversed CFG, so on a
    loop-free graph every block is visited exactly once.
    """
    started = time.perf_counter()
    index = cfg_bitset_index(cfg)
    succ = cfg.successor_map()
    pred = cfg.predecessor_map()
    order = cfg.backward_reverse_postorder()
    use = index.block_use
    defs = index.block_def

    live_in = dict.fromkeys(succ, 0)
    live_out = dict.fromkeys(succ, 0)
    worklist: deque[int] = deque(order)
    pending = set(order)
    iterations = 0
    while worklist:
        iterations += 1
        block_id = worklist.popleft()
        pending.discard(block_id)
        out = 0
        for successor in succ[block_id]:
            out |= live_in[successor]
        live_out[block_id] = out
        new_in = use[block_id] | (out & ~defs[block_id])
        if new_in != live_in[block_id]:
            live_in[block_id] = new_in
            for predecessor in pred[block_id]:
                if predecessor not in pending:
                    pending.add(predecessor)
                    worklist.append(predecessor)
    perf.add("liveness.bitset_runs")
    perf.add("liveness.bitset_iterations", iterations)
    perf.record_time("liveness.bitset", time.perf_counter() - started)
    return BitsetLiveness(live_in=live_in, live_out=live_out, index=index,
                          iterations=iterations)


class DefinitionIndex:
    """Interning of a CFG's definition sites into dense bit indices.

    ``definitions[i]`` is the site represented by bit *i*; sites are ordered
    by block id, then statement index (the same deterministic order the
    frozenset reference produces).
    """

    def __init__(self, cfg: ControlFlowGraph):
        from .reaching import Definition  # local import breaks the cycle

        use_defs = cfg_use_defs(cfg)
        definitions: list[Definition] = []
        defs_in_block: dict[int, list[int]] = {}
        statement_count = 0
        for block in cfg.blocks():
            block_bits = defs_in_block.setdefault(block.block_id, [])
            for stmt_index, use_def in enumerate(use_defs.statements(block.block_id)):
                statement_count += 1
                for variable in sorted(use_def.defs):
                    bit = len(definitions)
                    definitions.append(Definition(variable, block.block_id, stmt_index))
                    block_bits.append(bit)
        #: fingerprint for the staleness guard in :func:`cfg_definition_index`
        self.statement_count = statement_count
        self.definitions: tuple = tuple(definitions)
        self.bit_of: dict = {d: i for i, d in enumerate(definitions)}
        self._defs_of_mask: dict[int, frozenset] = {}
        #: mask of every definition of one variable
        self.variable_defs: dict[str, int] = {}
        for bit, definition in enumerate(definitions):
            self.variable_defs[definition.variable] = (
                self.variable_defs.get(definition.variable, 0) | (1 << bit)
            )
        #: per-block gen/kill masks (later defs of a variable shadow earlier)
        self.gen: dict[int, int] = {}
        self.kill: dict[int, int] = {}
        for block in cfg.blocks():
            gen_by_variable: dict[str, int] = {}
            kill = 0
            for bit in defs_in_block.get(block.block_id, ()):
                definition = definitions[bit]
                kill |= self.variable_defs[definition.variable]
                gen_by_variable[definition.variable] = 1 << bit
            gen = 0
            for mask in gen_by_variable.values():
                gen |= mask
            self.gen[block.block_id] = gen
            self.kill[block.block_id] = kill

    def mask_of(self, definitions: Iterable) -> int:
        bit_of = self.bit_of
        mask = 0
        for definition in definitions:
            mask |= 1 << bit_of[definition]
        return mask

    def definitions_of(self, mask: int) -> frozenset:
        # memoised like VariableInterner.names_of: straight-line regions
        # share reach masks, and the index lives as long as its CFG
        cached = self._defs_of_mask.get(mask)
        if cached is None:
            definitions = self.definitions
            cached = frozenset(definitions[bit] for bit in iter_bits(mask))
            self._defs_of_mask[mask] = cached
        return cached


def cfg_definition_index(cfg: ControlFlowGraph) -> DefinitionIndex:
    """The memoised :class:`DefinitionIndex` of *cfg* (cached on the graph).

    Guarded by the same statement-count fingerprint as
    :func:`cfg_bitset_index`.
    """
    cached = cfg.analysis_cache.get("definition_index")
    if cached is None or cached.statement_count != _statement_count(cfg):
        cached = DefinitionIndex(cfg)
        cfg.analysis_cache["definition_index"] = cached
    return cached  # type: ignore[return-value]


class BitsetReaching:
    """Result of the bitset reaching-definitions fixpoint (masks)."""

    __slots__ = ("reach_in", "reach_out", "index", "iterations")

    def __init__(
        self,
        reach_in: dict[int, int],
        reach_out: dict[int, int],
        index: DefinitionIndex,
        iterations: int,
    ):
        self.reach_in = reach_in
        self.reach_out = reach_out
        self.index = index
        self.iterations = iterations


def bitset_reaching_definitions(cfg: ControlFlowGraph) -> BitsetReaching:
    """Forward may-analysis ``reach_out = gen | (reach_in & ~kill)`` on masks."""
    started = time.perf_counter()
    index = cfg_definition_index(cfg)
    succ = cfg.successor_map()
    pred = cfg.predecessor_map()
    order = cfg.reverse_postorder()
    gen = index.gen
    kill = index.kill

    reach_in = dict.fromkeys(succ, 0)
    reach_out = dict.fromkeys(succ, 0)
    worklist: deque[int] = deque(order)
    pending = set(order)
    iterations = 0
    while worklist:
        iterations += 1
        block_id = worklist.popleft()
        pending.discard(block_id)
        incoming = 0
        for predecessor in pred[block_id]:
            incoming |= reach_out[predecessor]
        reach_in[block_id] = incoming
        new_out = gen[block_id] | (incoming & ~kill[block_id])
        if new_out != reach_out[block_id]:
            reach_out[block_id] = new_out
            for successor in succ[block_id]:
                if successor not in pending:
                    pending.add(successor)
                    worklist.append(successor)
    perf.add("reaching.bitset_runs")
    perf.add("reaching.bitset_iterations", iterations)
    perf.record_time("reaching.bitset", time.perf_counter() - started)
    return BitsetReaching(reach_in=reach_in, reach_out=reach_out, index=index,
                          iterations=iterations)
