"""Control-flow-graph data structures.

A :class:`ControlFlowGraph` is built per function by
:mod:`repro.cfg.builder`.  It consists of :class:`BasicBlock` nodes connected
by :class:`Edge` objects.  Following the paper (Section 2.1):

    "A basic block denotes a sequence of consecutive statements in which flow
    of control enters at the beginning and leaves at the end, without the
    possibility of branching except at the end of the basic block."

Two peculiarities of the reproduction (documented in DESIGN.md §5):

* **Calls terminate basic blocks.**  The measurement tool instruments around
  calls, and this rule is required to reproduce the block counts of the
  paper's Figure 1 / Table 1 (11 measurable blocks for the example program).
* The graph has a virtual entry and a virtual exit block that carry no
  statements and are never instrumented; ``ip = 2 * |blocks|`` in Table 1
  refers to the *real* blocks only.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from ..minic.ast_nodes import Expr, Node, Stmt


class EdgeKind(enum.Enum):
    """Classification of a CFG edge."""

    FALLTHROUGH = "fallthrough"
    TRUE = "true"
    FALSE = "false"
    CASE = "case"
    DEFAULT = "default"
    BACK = "back"
    RETURN = "return"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


class BlockKind(enum.Enum):
    """Role of a basic block inside the CFG."""

    ENTRY = "entry"
    EXIT = "exit"
    NORMAL = "normal"


class TerminatorKind(enum.Enum):
    """How control leaves a basic block."""

    JUMP = "jump"            # single unconditional successor
    BRANCH = "branch"        # two-way conditional branch
    SWITCH = "switch"        # multi-way branch on an integer expression
    RETURN = "return"        # leaves the function
    NONE = "none"            # exit block


@dataclass
class Terminator:
    """The control transfer at the end of a basic block.

    ``condition`` is the branch/switch expression (``None`` for jumps and
    returns); ``ast_node`` is the statement the terminator originates from
    (the ``if``/``switch``/loop statement), used by the partitioner to relate
    CFG regions back to the abstract syntax tree.
    """

    kind: TerminatorKind = TerminatorKind.JUMP
    condition: Expr | None = None
    ast_node: Node | None = None


@dataclass
class Edge:
    """A directed CFG edge."""

    source: int
    target: int
    kind: EdgeKind = EdgeKind.FALLTHROUGH
    #: Case label values for :data:`EdgeKind.CASE` edges.
    case_values: tuple[int, ...] = ()

    @property
    def key(self) -> tuple[int, int, str, tuple[int, ...]]:
        return (self.source, self.target, self.kind.value, self.case_values)

    def label(self) -> str:
        """A short human-readable edge label (used for DOT export)."""
        if self.kind is EdgeKind.CASE:
            return "case " + ",".join(str(v) for v in self.case_values)
        if self.kind in (EdgeKind.TRUE, EdgeKind.FALSE, EdgeKind.DEFAULT, EdgeKind.BACK):
            return self.kind.value
        return ""


@dataclass
class BasicBlock:
    """A CFG node.

    Attributes
    ----------
    block_id:
        Unique integer id inside the owning CFG.
    statements:
        Straight-line statements executed when the block runs (declarations,
        assignments, calls, the ``return`` statement).  Branch conditions are
        *not* listed here -- they live in :attr:`terminator`.
    terminator:
        How control leaves the block.
    kind:
        Entry / exit / normal.
    source_line:
        Line of the first statement (mirrors the node labels of the paper's
        Figure 1, which are "the line numbers of the first instruction of the
        respective basic block").
    """

    block_id: int
    statements: list[Stmt] = field(default_factory=list)
    terminator: Terminator = field(default_factory=Terminator)
    kind: BlockKind = BlockKind.NORMAL
    source_line: int | None = None

    @property
    def is_virtual(self) -> bool:
        """Entry/exit blocks carry no code and are never instrumented."""
        return self.kind is not BlockKind.NORMAL

    @property
    def has_call(self) -> bool:
        from ..minic.ast_nodes import CallExpr

        for stmt in self.statements:
            for node in stmt.walk():
                if isinstance(node, CallExpr):
                    return True
        return False

    def label(self) -> str:
        """Human-readable block label for reports and DOT export."""
        if self.kind is BlockKind.ENTRY:
            return "start"
        if self.kind is BlockKind.EXIT:
            return "end"
        if self.source_line is not None:
            return str(self.source_line)
        return f"B{self.block_id}"

    def __hash__(self) -> int:
        return hash(("BasicBlock", self.block_id))


class CfgError(Exception):
    """Raised when a CFG is malformed or an operation is invalid."""


def depth_first_postorder(roots: Iterable, successors: dict) -> list:
    """Iterative depth-first postorder over a dict adjacency from *roots*.

    Used in both flow directions (successor or predecessor adjacency);
    nodes unreachable from *roots* are not visited.
    """
    seen: set = set()
    postorder: list = []
    for root in roots:
        if root in seen:
            continue
        seen.add(root)
        stack: list = [(root, iter(successors.get(root, ())))]
        while stack:
            node, children = stack[-1]
            advanced = False
            for child in children:
                if child not in seen:
                    seen.add(child)
                    stack.append((child, iter(successors.get(child, ()))))
                    advanced = True
                    break
            if not advanced:
                stack.pop()
                postorder.append(node)
    return postorder


class ControlFlowGraph:
    """A per-function control-flow graph."""

    def __init__(self, function_name: str):
        self.function_name = function_name
        self._blocks: dict[int, BasicBlock] = {}
        self._edges: list[Edge] = []
        self._succ: dict[int, list[Edge]] = {}
        self._pred: dict[int, list[Edge]] = {}
        self._next_id = 0
        #: scratch space for analyses keyed off this exact graph shape; cleared
        #: whenever the block/edge structure changes (see
        #: :meth:`invalidate_analysis_caches`)
        self._analysis_cache: dict[str, object] = {}
        self.entry: BasicBlock = self.new_block(kind=BlockKind.ENTRY)
        self.exit: BasicBlock = self.new_block(kind=BlockKind.EXIT)
        self.exit.terminator = Terminator(kind=TerminatorKind.NONE)

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def new_block(self, kind: BlockKind = BlockKind.NORMAL) -> BasicBlock:
        block = BasicBlock(block_id=self._next_id, kind=kind)
        self._next_id += 1
        self._blocks[block.block_id] = block
        self._succ[block.block_id] = []
        self._pred[block.block_id] = []
        self.invalidate_analysis_caches()
        return block

    def add_edge(
        self,
        source: BasicBlock | int,
        target: BasicBlock | int,
        kind: EdgeKind = EdgeKind.FALLTHROUGH,
        case_values: Iterable[int] = (),
    ) -> Edge:
        src = source.block_id if isinstance(source, BasicBlock) else source
        dst = target.block_id if isinstance(target, BasicBlock) else target
        if src not in self._blocks or dst not in self._blocks:
            raise CfgError(f"edge references unknown block ({src} -> {dst})")
        edge = Edge(source=src, target=dst, kind=kind, case_values=tuple(case_values))
        self._edges.append(edge)
        self._succ[src].append(edge)
        self._pred[dst].append(edge)
        self.invalidate_analysis_caches()
        return edge

    def remove_block(self, block: BasicBlock | int) -> None:
        """Remove an (unreachable, empty) block and its edges."""
        block_id = block.block_id if isinstance(block, BasicBlock) else block
        if block_id in (self.entry.block_id, self.exit.block_id):
            raise CfgError("cannot remove the entry or exit block")
        self._edges = [e for e in self._edges if e.source != block_id and e.target != block_id]
        for edges in self._succ.values():
            edges[:] = [e for e in edges if e.target != block_id]
        for edges in self._pred.values():
            edges[:] = [e for e in edges if e.source != block_id]
        self._succ.pop(block_id, None)
        self._pred.pop(block_id, None)
        self._blocks.pop(block_id, None)
        self.invalidate_analysis_caches()

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def block(self, block_id: int) -> BasicBlock:
        try:
            return self._blocks[block_id]
        except KeyError as exc:
            raise CfgError(f"no block with id {block_id}") from exc

    def blocks(self) -> list[BasicBlock]:
        """All blocks in id order (including entry/exit)."""
        return [self._blocks[i] for i in sorted(self._blocks)]

    def real_blocks(self) -> list[BasicBlock]:
        """All non-virtual blocks (the measurable ones)."""
        return [b for b in self.blocks() if not b.is_virtual]

    def edges(self) -> list[Edge]:
        return list(self._edges)

    def successors(self, block: BasicBlock | int) -> list[BasicBlock]:
        block_id = block.block_id if isinstance(block, BasicBlock) else block
        return [self._blocks[e.target] for e in self._succ.get(block_id, ())]

    def predecessors(self, block: BasicBlock | int) -> list[BasicBlock]:
        block_id = block.block_id if isinstance(block, BasicBlock) else block
        return [self._blocks[e.source] for e in self._pred.get(block_id, ())]

    def out_edges(self, block: BasicBlock | int) -> list[Edge]:
        block_id = block.block_id if isinstance(block, BasicBlock) else block
        return list(self._succ.get(block_id, ()))

    def in_edges(self, block: BasicBlock | int) -> list[Edge]:
        block_id = block.block_id if isinstance(block, BasicBlock) else block
        return list(self._pred.get(block_id, ()))

    def __len__(self) -> int:
        return len(self._blocks)

    def __iter__(self) -> Iterator[BasicBlock]:
        return iter(self.blocks())

    # ------------------------------------------------------------------ #
    # cached analysis accessors
    # ------------------------------------------------------------------ #
    @property
    def analysis_cache(self) -> dict[str, object]:
        """Per-graph scratch space for derived analysis data.

        Analyses (use/def memoisation, the bitset dataflow index, ...) stash
        expensive-to-build structures here instead of recomputing them on
        every call.  The cache is cleared automatically on every structural
        mutation; code that mutates block *statements* in place after
        construction must call :meth:`invalidate_analysis_caches` itself.
        """
        return self._analysis_cache

    def invalidate_analysis_caches(self) -> None:
        """Drop all cached adjacency, ordering and analysis data."""
        self._analysis_cache.clear()

    def successor_map(self) -> dict[int, tuple[int, ...]]:
        """Cached block-id adjacency: ``block id -> successor ids``."""
        cached = self._analysis_cache.get("successor_map")
        if cached is None:
            cached = {
                bid: tuple(e.target for e in edges)
                for bid, edges in self._succ.items()
            }
            self._analysis_cache["successor_map"] = cached
        return cached  # type: ignore[return-value]

    def predecessor_map(self) -> dict[int, tuple[int, ...]]:
        """Cached block-id adjacency: ``block id -> predecessor ids``."""
        cached = self._analysis_cache.get("predecessor_map")
        if cached is None:
            cached = {
                bid: tuple(e.source for e in edges)
                for bid, edges in self._pred.items()
            }
            self._analysis_cache["predecessor_map"] = cached
        return cached  # type: ignore[return-value]

    def reverse_postorder(self) -> tuple[int, ...]:
        """Block ids in reverse postorder from the entry block (cached).

        This is the canonical iteration order for forward dataflow problems:
        ignoring back edges, every predecessor of a block appears before the
        block itself.  Blocks unreachable from the entry are appended at the
        end in id order so the sequence always covers the whole graph.
        """
        cached = self._analysis_cache.get("reverse_postorder")
        if cached is None:
            succ = self.successor_map()
            order = list(reversed(depth_first_postorder([self.entry.block_id], succ)))
            reached = set(order)
            order.extend(bid for bid in sorted(self._blocks) if bid not in reached)
            cached = tuple(order)
            self._analysis_cache["reverse_postorder"] = cached
        return cached  # type: ignore[return-value]

    def backward_reverse_postorder(self) -> tuple[int, ...]:
        """Block ids in reverse postorder of the *reversed* graph (cached).

        The analogous iteration order for backward dataflow problems
        (liveness): computed from the exit block over predecessor edges.
        """
        cached = self._analysis_cache.get("backward_reverse_postorder")
        if cached is None:
            pred = self.predecessor_map()
            order = list(reversed(depth_first_postorder([self.exit.block_id], pred)))
            reached = set(order)
            order.extend(bid for bid in sorted(self._blocks) if bid not in reached)
            cached = tuple(order)
            self._analysis_cache["backward_reverse_postorder"] = cached
        return cached  # type: ignore[return-value]

    # ------------------------------------------------------------------ #
    # algorithms
    # ------------------------------------------------------------------ #
    def reachable_blocks(
        self, infeasible_edges: set[tuple[int, int, str]] | frozenset | None = None
    ) -> set[int]:
        """Ids of blocks reachable from the entry block.

        ``infeasible_edges`` optionally excludes edges a sound analysis has
        proven can never be taken (``(source, target, kind value)`` triples,
        see :mod:`repro.sa.feasibility`); the traversal then yields the
        blocks reachable along *feasible* edges only.
        """
        seen: set[int] = set()
        stack = [self.entry.block_id]
        while stack:
            block_id = stack.pop()
            if block_id in seen:
                continue
            seen.add(block_id)
            for e in self._succ.get(block_id, ()):
                if (
                    infeasible_edges is not None
                    and (e.source, e.target, e.kind.value) in infeasible_edges
                ):
                    continue
                stack.append(e.target)
        return seen

    def prune_unreachable(self) -> list[int]:
        """Remove unreachable blocks; return the removed ids."""
        reachable = self.reachable_blocks()
        removed = [bid for bid in list(self._blocks) if bid not in reachable
                   and bid != self.exit.block_id]
        for block_id in removed:
            self.remove_block(block_id)
        return removed

    def topological_order(self) -> list[BasicBlock]:
        """Blocks in topological order, ignoring back edges.

        Works for reducible graphs produced by the builder (back edges are
        tagged :data:`EdgeKind.BACK` at construction time).
        """
        indegree: dict[int, int] = {bid: 0 for bid in self._blocks}
        for edge in self._edges:
            if edge.kind is not EdgeKind.BACK:
                indegree[edge.target] += 1
        worklist = deque(bid for bid, deg in sorted(indegree.items()) if deg == 0)
        order: list[BasicBlock] = []
        while worklist:
            block_id = worklist.popleft()
            order.append(self._blocks[block_id])
            for edge in self._succ.get(block_id, ()):
                if edge.kind is EdgeKind.BACK:
                    continue
                indegree[edge.target] -= 1
                if indegree[edge.target] == 0:
                    worklist.append(edge.target)
        if len(order) != len(self._blocks):
            raise CfgError("graph contains a cycle not tagged with BACK edges")
        return order

    def validate(self) -> None:
        """Check structural invariants; raise :class:`CfgError` on violation."""
        if self.entry.statements:
            raise CfgError("entry block must be empty")
        if self.exit.statements:
            raise CfgError("exit block must be empty")
        if self._succ.get(self.exit.block_id):
            raise CfgError("exit block must not have successors")
        reachable = self.reachable_blocks()
        for block in self.blocks():
            if block.block_id not in reachable and block is not self.exit:
                raise CfgError(f"block {block.block_id} is unreachable")
            out_edges = self._succ.get(block.block_id, [])
            kind = block.terminator.kind
            if kind is TerminatorKind.JUMP and len(out_edges) != 1:
                raise CfgError(f"jump block {block.block_id} has {len(out_edges)} successors")
            if kind is TerminatorKind.BRANCH and len(out_edges) != 2:
                raise CfgError(f"branch block {block.block_id} has {len(out_edges)} successors")
            if kind is TerminatorKind.RETURN and len(out_edges) != 1:
                raise CfgError(f"return block {block.block_id} must go to exit")
            if kind is TerminatorKind.NONE and block is not self.exit and out_edges:
                raise CfgError(f"block {block.block_id} has no terminator but successors")

    # ------------------------------------------------------------------ #
    # conversions
    # ------------------------------------------------------------------ #
    def summary(self) -> dict[str, int]:
        """Size statistics used by workload generators and reports."""
        branches = sum(
            1 for b in self.blocks() if b.terminator.kind is TerminatorKind.BRANCH
        )
        switches = sum(
            1 for b in self.blocks() if b.terminator.kind is TerminatorKind.SWITCH
        )
        return {
            "blocks": len(self.real_blocks()),
            "edges": len(self._edges),
            "conditional_branches": branches,
            "switches": switches,
        }
