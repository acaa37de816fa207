"""Dominator computation for control-flow graphs.

The general partitioner (:mod:`repro.partition.general`) uses dominance to
discover single-entry regions, and several tests use it as an independent
structural check on builder output.  The implementation is the classic
iterative dataflow algorithm of Cooper, Harvey and Kennedy working on the
reverse-post-order numbering of the graph; graphs produced by the builder are
small enough (a few thousand blocks) that asymptotics do not matter.
"""

from __future__ import annotations

from .graph import BasicBlock, ControlFlowGraph, EdgeKind


class DominatorTree:
    """Immediate-dominator information for a CFG."""

    def __init__(self, cfg: ControlFlowGraph):
        self._cfg = cfg
        self._rpo = self._reverse_post_order()
        self._index = {block_id: i for i, block_id in enumerate(self._rpo)}
        self._idom: dict[int, int] = {}
        self._compute()

    # ------------------------------------------------------------------ #
    def _reverse_post_order(self) -> list[int]:
        visited: set[int] = set()
        order: list[int] = []

        def visit(block_id: int) -> None:
            stack = [(block_id, iter(self._cfg.out_edges(block_id)))]
            visited.add(block_id)
            while stack:
                current, edges = stack[-1]
                advanced = False
                for edge in edges:
                    if edge.target not in visited:
                        visited.add(edge.target)
                        stack.append((edge.target, iter(self._cfg.out_edges(edge.target))))
                        advanced = True
                        break
                if not advanced:
                    order.append(current)
                    stack.pop()

        visit(self._cfg.entry.block_id)
        order.reverse()
        return order

    def _compute(self) -> None:
        entry = self._cfg.entry.block_id
        idom: dict[int, int | None] = {block_id: None for block_id in self._rpo}
        idom[entry] = entry
        changed = True
        while changed:
            changed = False
            for block_id in self._rpo:
                if block_id == entry:
                    continue
                preds = [
                    e.source
                    for e in self._cfg.in_edges(block_id)
                    if e.source in self._index and idom.get(e.source) is not None
                ]
                if not preds:
                    continue
                new_idom = preds[0]
                for pred in preds[1:]:
                    new_idom = self._intersect(pred, new_idom, idom)
                if idom[block_id] != new_idom:
                    idom[block_id] = new_idom
                    changed = True
        self._idom = {k: v for k, v in idom.items() if v is not None}

    def _intersect(self, a: int, b: int, idom: dict[int, int | None]) -> int:
        finger_a, finger_b = a, b
        while finger_a != finger_b:
            while self._index[finger_a] > self._index[finger_b]:
                finger_a = idom[finger_a]  # type: ignore[assignment]
            while self._index[finger_b] > self._index[finger_a]:
                finger_b = idom[finger_b]  # type: ignore[assignment]
        return finger_a

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def dominates(self, dominator: BasicBlock | int, block: BasicBlock | int) -> bool:
        """True when *dominator* dominates *block* (reflexive)."""
        dom_id = dominator.block_id if isinstance(dominator, BasicBlock) else dominator
        block_id = block.block_id if isinstance(block, BasicBlock) else block
        current: int | None = block_id
        while current is not None:
            if current == dom_id:
                return True
            if current == self._cfg.entry.block_id:
                return False
            current = self._idom.get(current)
        return False

    def dominated_set(self, block: BasicBlock | int) -> set[int]:
        """All block ids dominated by *block* (including itself)."""
        block_id = block.block_id if isinstance(block, BasicBlock) else block
        return {
            candidate
            for candidate in self._idom.keys() | {self._cfg.entry.block_id}
            if self.dominates(block_id, candidate)
        }



def natural_loops(cfg: ControlFlowGraph) -> list[tuple[int, set[int]]]:
    """Return (header, body-block-ids) for every natural loop.

    Back edges are the edges tagged :data:`EdgeKind.BACK` by the builder; the
    loop body is found by the usual reverse reachability walk from the latch.
    """
    loops: list[tuple[int, set[int]]] = []
    for edge in cfg.edges():
        if edge.kind is not EdgeKind.BACK:
            continue
        header = edge.target
        body = {header, edge.source}
        stack = [edge.source]
        while stack:
            block_id = stack.pop()
            for in_edge in cfg.in_edges(block_id):
                if in_edge.source not in body:
                    body.add(in_edge.source)
                    stack.append(in_edge.source)
        loops.append((header, body))
    return loops
