"""Mapping between AST statements and the CFG blocks that contain them.

The partitioner traverses the abstract syntax tree (Section 2.2 of the paper:
"The CFG is partitioned into PS following the abstract syntax tree") but
segments are ultimately *sets of CFG blocks*.  :class:`AstBlockMap` provides
the bridge:

* every straight-line statement maps to the block whose ``statements`` list
  holds it,
* every branching statement (``if``/``switch``/loop) maps to the block whose
  terminator it drives, and
* a whole AST subtree maps to the union of the blocks of its statements.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..cfg.graph import ControlFlowGraph
from ..minic.ast_nodes import (
    CompoundStmt,
    DoWhileStmt,
    ExprStmt,
    ForStmt,
    IfStmt,
    Node,
    Stmt,
    SwitchCase,
    SwitchStmt,
    WhileStmt,
)


@dataclass
class AstBlockMap:
    """Bidirectional statement <-> block mapping for one function CFG."""

    cfg: ControlFlowGraph
    statement_block: dict[int, int] = field(default_factory=dict)
    terminator_block: dict[int, int] = field(default_factory=dict)

    @classmethod
    def build(cls, cfg: ControlFlowGraph) -> "AstBlockMap":
        mapping = cls(cfg=cfg)
        for block in cfg.blocks():
            for stmt in block.statements:
                mapping.statement_block[stmt.node_id] = block.block_id
                # The builder wraps for-loop step expressions into synthetic
                # ExprStmt nodes; index the wrapped expression too so that
                # the original AST subtree still finds the step block.
                if isinstance(stmt, ExprStmt):
                    mapping.statement_block.setdefault(stmt.expr.node_id, block.block_id)
            anchor = block.terminator.ast_node
            if anchor is not None:
                # Several blocks can share one AST anchor (e.g. the condition
                # block of a do-while and its body-start block); the *first*
                # block with the branching terminator wins, which is the one
                # evaluating the condition.
                mapping.terminator_block.setdefault(anchor.node_id, block.block_id)
        return mapping

    # ------------------------------------------------------------------ #
    def blocks_of_subtree(self, node: Node) -> set[int]:
        """All blocks holding statements or branch conditions of *node*'s subtree.

        For a branching statement the returned set includes its condition
        block; for a branch *alternative* (a then/else/case body) it does not,
        because the condition lives in the parent region -- which is exactly
        what the partitioner needs when it turns alternatives into program
        segments.
        """
        blocks: set[int] = set()
        for descendant in node.walk():
            node_id = descendant.node_id
            if node_id in self.statement_block:
                blocks.add(self.statement_block[node_id])
            if node_id in self.terminator_block:
                blocks.add(self.terminator_block[node_id])
        return blocks

    def alternatives(self, stmt: Stmt) -> list[tuple[str, Node]]:
        """The branch alternatives of a branching statement.

        Returns ``(label, subtree)`` pairs: then/else branches of an ``if``,
        the case bodies of a ``switch`` (labelled ``case <values>`` or
        ``default``), and the body of a loop.  Non-branching statements return
        an empty list.
        """
        if isinstance(stmt, IfStmt):
            alternatives: list[tuple[str, Node]] = [("then", stmt.then_branch)]
            if stmt.else_branch is not None:
                alternatives.append(("else", stmt.else_branch))
            return alternatives
        if isinstance(stmt, SwitchStmt):
            result: list[tuple[str, Node]] = []
            for case in stmt.cases:
                result.append((self._case_label(case), case.body))
            return result
        if isinstance(stmt, WhileStmt):
            return [("loop-body", stmt.body)]
        if isinstance(stmt, DoWhileStmt):
            return [("loop-body", stmt.body)]
        if isinstance(stmt, ForStmt):
            return [("loop-body", stmt.body)]
        return []

    @staticmethod
    def _case_label(case: SwitchCase) -> str:
        if case.is_default:
            return "default"
        return "case " + ",".join(str(v) for v in case.values)

    @staticmethod
    def is_branching(stmt: Stmt) -> bool:
        """True for statements that introduce control-flow alternatives."""
        return isinstance(stmt, (IfStmt, SwitchStmt, WhileStmt, DoWhileStmt, ForStmt))

    @staticmethod
    def nested_statements(node: Node) -> list[Stmt]:
        """The statement sequence directly inside a compound/subtree root.

        Used by the partitioner to walk a region "top level" without
        descending into nested branch alternatives (those are handled through
        :meth:`alternatives`).
        """
        if isinstance(node, CompoundStmt):
            return list(node.statements)
        if isinstance(node, Stmt):
            return [node]
        return []
