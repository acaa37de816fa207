"""Construction of control-flow graphs from mini-C abstract syntax trees.

The builder follows the textbook algorithm with one WCET-tooling-specific
rule: *statements containing a function call terminate their basic block*.
Instrumentation is placed around blocks, so a call must not share a block with
trailing code -- and this is also what reproduces the 11 measurable blocks of
the paper's Figure 1 example (each ``printfN()`` call is its own block and
each ``if`` condition lands in a block of its own whenever it follows a call).

Join blocks are *not* materialised: dangling branch exits are kept on a
frontier and wired to the next real block, so the CFG contains no empty
synthetic blocks that would distort the instrumentation-point counts.
"""

from __future__ import annotations

from dataclasses import dataclass

from .. import perf
from ..minic.ast_nodes import (
    BoolLiteral,
    BreakStmt,
    CompoundStmt,
    ContinueStmt,
    DeclStmt,
    DoWhileStmt,
    EmptyStmt,
    Expr,
    ExprStmt,
    ForStmt,
    FunctionDef,
    IfStmt,
    Node,
    ReturnStmt,
    Stmt,
    SwitchStmt,
    WhileStmt,
)
from ..minic.folding import has_calls
from .graph import (
    BasicBlock,
    ControlFlowGraph,
    EdgeKind,
    Terminator,
    TerminatorKind,
)


@dataclass
class _PendingEdge:
    """A dangling control transfer waiting for its target block."""

    source: BasicBlock
    kind: EdgeKind
    case_values: tuple[int, ...] = ()
    is_back_edge: bool = False


@dataclass
class _LoopContext:
    """Continue target of the innermost enclosing loop."""

    continue_target: BasicBlock


class CfgBuilder:
    """Builds one :class:`ControlFlowGraph` per function."""

    def __init__(self) -> None:
        self._cfg: ControlFlowGraph | None = None
        self._current: BasicBlock | None = None
        self._frontier: list[_PendingEdge] = []
        self._loops: list[_LoopContext] = []
        #: one entry per enclosing breakable construct (loop or switch);
        #: ``break`` statements append their dangling edge to the top entry.
        self._break_stack: list[list[_PendingEdge]] = []

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def build_function(self, function: FunctionDef) -> ControlFlowGraph:
        """Build the CFG of a single function."""
        self._cfg = ControlFlowGraph(function.name)
        self._current = None
        self._frontier = [_PendingEdge(self._cfg.entry, EdgeKind.FALLTHROUGH)]
        self._loops = []
        self._break_stack = []
        self._build_stmt(function.body)
        self._finish()
        self._cfg.prune_unreachable()
        self._cfg.validate()
        return self._cfg

    # ------------------------------------------------------------------ #
    # frontier / block management
    # ------------------------------------------------------------------ #
    def _connect(self, edges: list[_PendingEdge], target: BasicBlock) -> None:
        assert self._cfg is not None
        for pending in edges:
            kind = EdgeKind.BACK if pending.is_back_edge else pending.kind
            self._cfg.add_edge(pending.source, target, kind, pending.case_values)

    def _start_block(self) -> BasicBlock:
        """Begin a new block, wiring the current frontier to it."""
        assert self._cfg is not None
        block = self._cfg.new_block()
        self._connect(self._frontier, block)
        self._frontier = []
        self._current = block
        return block

    def _ensure_block(self) -> BasicBlock:
        """Return the block new statements should be appended to."""
        if self._current is None:
            return self._start_block()
        return self._current

    def _seal_current(self) -> None:
        """Terminate the current block with a jump to whatever comes next."""
        if self._current is None:
            return
        self._current.terminator = Terminator(kind=TerminatorKind.JUMP)
        self._frontier.append(_PendingEdge(self._current, EdgeKind.FALLTHROUGH))
        self._current = None

    def _finish(self) -> None:
        assert self._cfg is not None
        if self._current is not None:
            self._seal_current()
        self._connect(self._frontier, self._cfg.exit)
        self._frontier = []

    # ------------------------------------------------------------------ #
    # statements
    # ------------------------------------------------------------------ #
    def _build_stmt(self, stmt: Stmt) -> None:
        if isinstance(stmt, CompoundStmt):
            for child in stmt.statements:
                self._build_stmt(child)
        elif isinstance(stmt, (DeclStmt, ExprStmt)):
            self._append_simple(stmt)
        elif isinstance(stmt, EmptyStmt):
            pass
        elif isinstance(stmt, ReturnStmt):
            self._build_return(stmt)
        elif isinstance(stmt, IfStmt):
            self._build_if(stmt)
        elif isinstance(stmt, SwitchStmt):
            self._build_switch(stmt)
        elif isinstance(stmt, WhileStmt):
            self._build_while(stmt)
        elif isinstance(stmt, DoWhileStmt):
            self._build_do_while(stmt)
        elif isinstance(stmt, ForStmt):
            self._build_for(stmt)
        elif isinstance(stmt, BreakStmt):
            self._build_break(stmt)
        elif isinstance(stmt, ContinueStmt):
            self._build_continue(stmt)
        else:  # pragma: no cover - defensive
            raise TypeError(f"cannot build CFG for {type(stmt).__name__}")

    def _append_simple(self, stmt: Stmt) -> None:
        block = self._ensure_block()
        block.statements.append(stmt)
        if block.source_line is None and stmt.location.line:
            block.source_line = stmt.location.line
        contains_call = False
        if isinstance(stmt, ExprStmt):
            contains_call = has_calls(stmt.expr)
        elif isinstance(stmt, DeclStmt) and stmt.init is not None:
            contains_call = has_calls(stmt.init)
        if contains_call:
            # Calls terminate basic blocks (see module docstring).
            self._seal_current()

    def _build_return(self, stmt: ReturnStmt) -> None:
        assert self._cfg is not None
        block = self._ensure_block()
        block.statements.append(stmt)
        if block.source_line is None and stmt.location.line:
            block.source_line = stmt.location.line
        block.terminator = Terminator(kind=TerminatorKind.RETURN, ast_node=stmt)
        self._cfg.add_edge(block, self._cfg.exit, EdgeKind.RETURN)
        self._current = None
        self._frontier = []

    def _set_branch_terminator(self, condition: Expr, ast_node: Node) -> BasicBlock:
        """Place a two-way branch at the end of the current block."""
        block = self._ensure_block()
        block.terminator = Terminator(
            kind=TerminatorKind.BRANCH, condition=condition, ast_node=ast_node
        )
        if block.source_line is None and ast_node.location.line:
            block.source_line = ast_node.location.line
        self._current = None
        return block

    def _build_if(self, stmt: IfStmt) -> None:
        cond_block = self._set_branch_terminator(stmt.cond, stmt)
        exits: list[_PendingEdge] = []

        self._frontier = [_PendingEdge(cond_block, EdgeKind.TRUE)]
        self._build_stmt(stmt.then_branch)
        if self._current is not None:
            self._seal_current()
        exits.extend(self._frontier)

        if stmt.else_branch is not None:
            self._frontier = [_PendingEdge(cond_block, EdgeKind.FALSE)]
            self._build_stmt(stmt.else_branch)
            if self._current is not None:
                self._seal_current()
            exits.extend(self._frontier)
        else:
            exits.append(_PendingEdge(cond_block, EdgeKind.FALSE))

        self._frontier = exits
        self._current = None

    def _build_switch(self, stmt: SwitchStmt) -> None:
        switch_block = self._ensure_block()
        switch_block.terminator = Terminator(
            kind=TerminatorKind.SWITCH, condition=stmt.expr, ast_node=stmt
        )
        if switch_block.source_line is None and stmt.location.line:
            switch_block.source_line = stmt.location.line
        self._current = None

        exits: list[_PendingEdge] = []
        has_default = False
        self._break_stack.append([])
        for case in stmt.cases:
            if case.is_default:
                has_default = True
                pending = _PendingEdge(switch_block, EdgeKind.DEFAULT)
            else:
                pending = _PendingEdge(
                    switch_block, EdgeKind.CASE, tuple(case.values)
                )
            self._frontier = [pending]
            self._current = None
            self._build_stmt(case.body)
            if self._current is not None:
                self._seal_current()
            exits.extend(self._frontier)
        if not has_default:
            exits.append(_PendingEdge(switch_block, EdgeKind.DEFAULT))
        exits.extend(self._break_stack.pop())
        self._frontier = exits
        self._current = None

    def _build_while(self, stmt: WhileStmt) -> None:
        self._seal_current()
        cond_block = self._start_block()
        cond_block.terminator = Terminator(
            kind=TerminatorKind.BRANCH, condition=stmt.cond, ast_node=stmt
        )
        if cond_block.source_line is None and stmt.location.line:
            cond_block.source_line = stmt.location.line
        self._current = None

        context = _LoopContext(continue_target=cond_block)
        self._loops.append(context)
        self._break_stack.append([])
        self._frontier = [_PendingEdge(cond_block, EdgeKind.TRUE)]
        self._build_stmt(stmt.body)
        if self._current is not None:
            self._seal_current()
        # loop back edges
        for pending in self._frontier:
            pending.is_back_edge = True
        self._connect(self._frontier, cond_block)
        self._loops.pop()
        break_edges = self._break_stack.pop()

        self._frontier = [_PendingEdge(cond_block, EdgeKind.FALSE)] + break_edges
        self._current = None

    def _build_do_while(self, stmt: DoWhileStmt) -> None:
        self._seal_current()
        body_block = self._start_block()
        if body_block.source_line is None and stmt.location.line:
            body_block.source_line = stmt.location.line

        # The continue target of a do-while is the condition block, which does
        # not exist yet; we therefore collect continue edges like break edges
        # and wire them afterwards.
        context = _LoopContext(continue_target=body_block)
        self._loops.append(context)
        self._break_stack.append([])
        original_connect = context.continue_target

        self._build_stmt(stmt.body)
        if self._current is not None:
            self._seal_current()
        body_exits = self._frontier
        self._loops.pop()
        context_breaks = self._break_stack.pop()

        cond_block = self._cfg.new_block()  # type: ignore[union-attr]
        self._connect(body_exits, cond_block)
        # Continue statements recorded against the provisional target are
        # rewired to the condition block (a do-while continue re-tests the
        # condition).
        self._rewire_continue_edges(original_connect, cond_block)
        cond_block.terminator = Terminator(
            kind=TerminatorKind.BRANCH, condition=stmt.cond, ast_node=stmt
        )
        if cond_block.source_line is None and stmt.cond.location.line:
            cond_block.source_line = stmt.cond.location.line
        self._cfg.add_edge(cond_block, body_block, EdgeKind.BACK)  # type: ignore[union-attr]

        self._frontier = [_PendingEdge(cond_block, EdgeKind.FALSE)] + context_breaks
        self._current = None

    def _rewire_continue_edges(
        self,
        provisional: BasicBlock,
        actual: BasicBlock,
    ) -> None:
        """Move continue edges from the provisional target to the real one.

        ``continue`` inside a ``do``/``while`` loop body is wired immediately
        against the loop header known at that time; for do-while loops the
        real target (the condition block) is only created after the body, so
        edges pointing at the provisional header are redirected here.
        """
        assert self._cfg is not None
        if provisional is actual:
            return
        for edge in self._cfg.edges():
            if edge.target == provisional.block_id and edge.kind is EdgeKind.BACK:
                # only continue edges are BACK edges into the provisional
                # header at this point (the loop's own back edge is added
                # after this call)
                edge.target = actual.block_id
        # rebuild adjacency after in-place mutation
        self._rebuild_adjacency()

    def _rebuild_adjacency(self) -> None:
        assert self._cfg is not None
        cfg = self._cfg
        succ = {b.block_id: [] for b in cfg.blocks()}
        pred = {b.block_id: [] for b in cfg.blocks()}
        for edge in cfg.edges():
            succ[edge.source].append(edge)
            pred[edge.target].append(edge)
        cfg._succ = succ  # noqa: SLF001 - builder is a friend of the graph
        cfg._pred = pred  # noqa: SLF001

    def _build_for(self, stmt: ForStmt) -> None:
        if stmt.init is not None:
            self._build_stmt(stmt.init)
        self._seal_current()
        cond_block = self._start_block()
        condition: Expr = stmt.cond if stmt.cond is not None else BoolLiteral(
            value=True, location=stmt.location
        )
        cond_block.terminator = Terminator(
            kind=TerminatorKind.BRANCH, condition=condition, ast_node=stmt
        )
        if cond_block.source_line is None and stmt.location.line:
            cond_block.source_line = stmt.location.line
        self._current = None

        # The continue target is the step block when a step exists.
        step_block: BasicBlock | None = None
        if stmt.step is not None:
            step_block = self._cfg.new_block()  # type: ignore[union-attr]
            step_block.statements.append(ExprStmt(expr=stmt.step, location=stmt.step.location))
            step_block.source_line = stmt.step.location.line or None
            step_block.terminator = Terminator(kind=TerminatorKind.JUMP)

        context = _LoopContext(continue_target=step_block or cond_block)
        self._loops.append(context)
        self._break_stack.append([])
        self._frontier = [_PendingEdge(cond_block, EdgeKind.TRUE)]
        self._build_stmt(stmt.body)
        if self._current is not None:
            self._seal_current()
        body_exits = self._frontier
        self._loops.pop()
        break_edges = self._break_stack.pop()

        if step_block is not None:
            self._connect(body_exits, step_block)
            self._cfg.add_edge(step_block, cond_block, EdgeKind.BACK)  # type: ignore[union-attr]
        else:
            for pending in body_exits:
                pending.is_back_edge = True
            self._connect(body_exits, cond_block)

        self._frontier = [_PendingEdge(cond_block, EdgeKind.FALSE)] + break_edges
        self._current = None

    def _build_break(self, stmt: BreakStmt) -> None:
        del stmt
        block = self._ensure_block()
        block.terminator = Terminator(kind=TerminatorKind.JUMP)
        pending = _PendingEdge(block, EdgeKind.FALLTHROUGH)
        if self._break_stack:
            self._break_stack[-1].append(pending)
        else:
            # a stray break (the parser normally consumes case-terminating
            # breaks) simply ends the function
            self._cfg.add_edge(block, self._cfg.exit, EdgeKind.FALLTHROUGH)  # type: ignore[union-attr]
        self._current = None
        self._frontier = []

    def _build_continue(self, stmt: ContinueStmt) -> None:
        del stmt
        assert self._cfg is not None
        block = self._ensure_block()
        block.terminator = Terminator(kind=TerminatorKind.JUMP)
        target = self._loops[-1].continue_target
        self._cfg.add_edge(block, target, EdgeKind.BACK)
        self._current = None
        self._frontier = []


def build_cfg(function: FunctionDef) -> ControlFlowGraph:
    """Build the CFG of *function*."""
    perf.add("cfg.builds")
    return CfgBuilder().build_function(function)
