"""Natural loops of a control-flow graph.

The builder tags every loop's back edge (:data:`EdgeKind.BACK`), so a
natural loop is found from its back edge alone, without computing
dominators.  The timing schema and the reverse-CSE optimisation use it.
"""

from __future__ import annotations

from .graph import ControlFlowGraph, EdgeKind


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
