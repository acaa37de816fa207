"""The step-by-step board walker: the test oracle of ``Interpreter.run``.

The board used to run every block on this walker, which evaluates the AST
one step at a time.  It now runs only closures compiled from the CFGs
(:mod:`repro.hw.compiler`), and the walker is kept here, verbatim, as the
reference those closures are compared against field for field.  Two things
changed.  The step limit and the deadline poll (every 1024 steps) are
checked at each block end, for the steps the block took, instead of at each
step.  That is where the compiled board checks them, so the two raise the
same errors on the same runs and hit ``interp.step`` equally often.  And a
global's initialiser is evaluated like any expression in a function body,
the rule the board starts globals by; the walker keeps its own evaluator for
it rather than calling the board's.
"""

from __future__ import annotations

from types import MappingProxyType, SimpleNamespace

import repro.hw.interpreter as interpreter_module
from repro.cfg.graph import ControlFlowGraph, Edge, EdgeKind, TerminatorKind
from repro.hw.compiler import FAILURE_CONSTANT
from repro.hw.interpreter import (
    BranchEvent,
    ExecutionError,
    Interpreter,
    RunResult,
    SwitchEvent,
)
from repro.minic.ast_nodes import (
    AssignExpr,
    BinaryOp,
    BoolLiteral,
    CallExpr,
    CastExpr,
    Conditional,
    DeclStmt,
    Expr,
    ExprStmt,
    Identifier,
    IntLiteral,
    ReturnStmt,
    Stmt,
    UnaryOp,
    RELATIONAL_OPERATORS,
)
from repro.minic.folding import apply_binary, apply_unary
from repro.minic.types import BOOL, CType, INT16
from repro.resilience import faults as _resilience


def _poll_resilience() -> None:
    """Deadline poll + ``interp.step`` fault site (no-op on clean paths)."""
    if _resilience.current() is None:
        return
    _resilience.poll_deadline()
    _resilience.maybe_fault("interp.step")


def _step(state) -> None:
    state.steps += 1


class BoardWalker:
    """Runs the functions of an :class:`Interpreter`'s program step by step."""

    def __init__(self, interpreter: Interpreter):
        self._program = interpreter._program
        self._cost = interpreter._cost
        self._max_steps = interpreter._max_steps
        self._defined = {func.name for func in self._program.functions}
        self._stubbed = interpreter._stubbed
        self.cfg = interpreter.cfg
        #: the step count at the last block end
        self._checked = 0

    def run(self, function_name: str, inputs: dict[str, int] | None = None) -> RunResult:
        """The :class:`RunResult` (or the error) ``Interpreter.run`` must give."""
        inputs = dict(inputs or {})
        environment = self._initial_environment(inputs)
        # looked up at run time, so a test can substitute a recording state
        state = interpreter_module._RunState(self._max_steps)
        self._checked = 0
        function = self._program.function(function_name)

        # top-level parameters come from the inputs mapping (default 0)
        for param in function.params:
            value = inputs.get(param.name, 0)
            environment[param.name] = param.param_type.wrap(value)

        return_value = self._walk_function(function_name, environment, state, True)
        return RunResult(
            function_name,
            MappingProxyType(inputs),
            state.cycles,
            return_value,
            tuple(state.trace),
            tuple(state.stamps),
            tuple(state.branch_events),
            tuple(state.switch_events),
            MappingProxyType(environment),
        )

    def _initial_environment(self, inputs: dict[str, int]) -> dict[str, int]:
        environment: dict[str, int] = {}
        # an initialiser evaluates as in a function body; its steps and
        # cycles are not part of the run
        scratch = SimpleNamespace(steps=0, cycles=0)
        for decl in self._program.globals:
            value = 0
            if decl.init is not None:
                value = self._evaluate(decl.init, environment, scratch)
            environment[decl.name] = decl.var_type.wrap(value)
        for name, value in inputs.items():
            if name in environment:
                decl = self._program.global_decl(name)
                environment[name] = decl.var_type.wrap(value)
            else:
                environment[name] = value
        return environment

    def _walk_function(
        self,
        function_name: str,
        environment: dict[str, int],
        state: "_RunState",
        record: bool,
    ) -> int | None:
        cfg = self.cfg(function_name)
        block = cfg.entry
        return_value: int | None = None
        while block is not None:
            block, return_value = self._walk_block(
                cfg, block, environment, state, record, return_value
            )
        return return_value

    def _walk_block(
        self,
        cfg: ControlFlowGraph,
        block,
        environment: dict[str, int],
        state: "_RunState",
        record: bool,
        return_value: int | None,
    ) -> tuple:
        """Run one block step by step: (next block or None on return, return value)."""
        result = self._walk_steps(cfg, block, environment, state, record, return_value)
        self._block_end(state)
        return result

    def _block_end(self, state: "_RunState") -> None:
        """The step limit and the 1024-step polls of the steps since the last
        block end, in step order: a poll at or below the limit comes first."""
        last = min(state.steps, self._max_steps)
        for _ in range(self._checked // 1024, last // 1024):
            _poll_resilience()
        self._checked = state.steps
        if state.steps > self._max_steps:
            raise ExecutionError(
                f"execution exceeded {self._max_steps} steps (possible unbounded loop)"
            )

    def _walk_steps(
        self,
        cfg: ControlFlowGraph,
        block,
        environment: dict[str, int],
        state: "_RunState",
        record: bool,
        return_value: int | None,
    ) -> tuple:
        _step(state)
        if record:
            state.trace.append(block.block_id)
            state.stamps.append(state.cycles)
        for stmt in block.statements:
            result = self._execute_statement(stmt, environment, state)
            if isinstance(stmt, ReturnStmt):
                return_value = result

        terminator = block.terminator
        if terminator.kind is TerminatorKind.RETURN:
            state.cycles += self._cost.return_cost
            self._single_edge(cfg, block)  # raises unless there is exactly one
            return None, return_value
        if block is cfg.exit:
            return None, return_value
        if terminator.kind is TerminatorKind.JUMP or terminator.kind is TerminatorKind.NONE:
            edge = self._single_edge(cfg, block)
        elif terminator.kind is TerminatorKind.BRANCH:
            edge = self._execute_branch(cfg, block, environment, state, record)
        elif terminator.kind is TerminatorKind.SWITCH:
            edge = self._execute_switch(cfg, block, environment, state, record)
        else:  # pragma: no cover - defensive
            raise ExecutionError(f"unknown terminator {terminator.kind}")
        next_block = cfg.block(edge.target)
        if next_block is cfg.exit:
            if record:
                state.trace.append(next_block.block_id)
                state.stamps.append(state.cycles)
            return None, return_value
        return next_block, return_value

    def _single_edge(self, cfg: ControlFlowGraph, block) -> Edge:
        edges = cfg.out_edges(block)
        if len(edges) != 1:
            raise ExecutionError(
                f"block {block.block_id} of {cfg.function_name} has {len(edges)} successors"
            )
        return edges[0]

    def _execute_branch(
        self, cfg: ControlFlowGraph, block, environment, state: "_RunState", record: bool
    ) -> Edge:
        condition = block.terminator.condition
        assert condition is not None
        value = self._evaluate(condition, environment, state)
        outcome = value != 0
        state.cycles += self._cost.branch_taken if outcome else self._cost.branch_not_taken
        if record:
            distances = self._branch_distances(condition, environment)
            state.branch_events.append(BranchEvent(block.block_id, outcome, *distances))
        wanted = EdgeKind.TRUE if outcome else EdgeKind.FALSE
        # loop back-edges may carry the TRUE direction for do-while loops
        for edge in cfg.out_edges(block):
            if edge.kind is wanted or (edge.kind is EdgeKind.BACK and outcome):
                return edge
        raise ExecutionError(
            f"branch block {block.block_id} has no {wanted.value} successor"
        )

    def _execute_switch(
        self, cfg: ControlFlowGraph, block, environment, state: "_RunState", record: bool
    ) -> Edge:
        condition = block.terminator.condition
        assert condition is not None
        value = self._evaluate(condition, environment, state)
        edges = cfg.out_edges(block)
        default_edge: Edge | None = None
        chosen: Edge | None = None
        comparisons = 0
        for edge in edges:
            if edge.kind is EdgeKind.CASE:
                comparisons += 1
                if value in edge.case_values:
                    chosen = edge
                    break
            elif edge.kind is EdgeKind.DEFAULT:
                default_edge = edge
        state.cycles += self._cost.switch_dispatch_per_case * max(1, comparisons)
        if chosen is None:
            chosen = default_edge
        if chosen is None:
            raise ExecutionError(
                f"switch block {block.block_id}: no case matches value {value} and no default"
            )
        if record:
            state.switch_events.append(SwitchEvent(block.block_id, value, chosen))
        return chosen

    # ------------------------------------------------------------------ #
    # statements and expressions
    # ------------------------------------------------------------------ #
    def _execute_statement(
        self, stmt: Stmt, environment: dict[str, int], state: "_RunState"
    ) -> int | None:
        _step(state)
        if isinstance(stmt, DeclStmt):
            state.cycles += self._cost.declaration_cost
            value = 0
            if stmt.init is not None:
                value = self._evaluate(stmt.init, environment, state)
                state.cycles += self._cost.store_cost(stmt.var_type)
            environment[stmt.name] = stmt.var_type.wrap(value)
            return None
        if isinstance(stmt, ExprStmt):
            self._evaluate(stmt.expr, environment, state)
            return None
        if isinstance(stmt, ReturnStmt):
            if stmt.value is not None:
                return self._evaluate(stmt.value, environment, state)
            return None
        raise ExecutionError(f"cannot execute statement {type(stmt).__name__}")

    def _evaluate(self, expr: Expr, environment: dict[str, int], state: "_RunState") -> int:
        _step(state)
        if isinstance(expr, IntLiteral):
            state.cycles += self._cost.load_literal
            return expr.value
        if isinstance(expr, BoolLiteral):
            state.cycles += self._cost.load_literal
            return int(expr.value)
        if isinstance(expr, Identifier):
            state.cycles += self._cost.load_cost(expr.ctype)
            if expr.name not in environment:
                raise ExecutionError(f"read of unbound variable {expr.name!r}")
            return environment[expr.name]
        if isinstance(expr, UnaryOp):
            operand = self._evaluate(expr.operand, environment, state)
            width = expr.ctype.bits if expr.ctype else 16
            state.cycles += self._cost.unary_cost(expr.op, width)
            return self._wrap(expr.ctype, apply_unary(expr.op, operand))
        if isinstance(expr, BinaryOp):
            return self._evaluate_binary(expr, environment, state)
        if isinstance(expr, Conditional):
            condition = self._evaluate(expr.cond, environment, state)
            state.cycles += self._cost.branch_taken
            if condition != 0:
                return self._evaluate(expr.then, environment, state)
            return self._evaluate(expr.otherwise, environment, state)
        if isinstance(expr, AssignExpr):
            value = self._evaluate(expr.value, environment, state)
            target_type = expr.target.ctype or expr.ctype
            state.cycles += self._cost.store_cost(target_type)
            wrapped = self._wrap(target_type, value)
            environment[expr.target.name] = wrapped
            return wrapped
        if isinstance(expr, CastExpr):
            value = self._evaluate(expr.operand, environment, state)
            state.cycles += self._cost.cast_op
            return expr.target_type.wrap(value)
        if isinstance(expr, CallExpr):
            return self._evaluate_call(expr, environment, state)
        raise ExecutionError(f"cannot evaluate expression {type(expr).__name__}")

    def _evaluate_binary(
        self, expr: BinaryOp, environment: dict[str, int], state: "_RunState"
    ) -> int:
        # short-circuit evaluation for && and ||
        if expr.op in ("&&", "||"):
            left = self._evaluate(expr.left, environment, state)
            state.cycles += self._cost.logic_op
            if expr.op == "&&" and left == 0:
                return 0
            if expr.op == "||" and left != 0:
                return 1
            right = self._evaluate(expr.right, environment, state)
            return int(right != 0)
        left = self._evaluate(expr.left, environment, state)
        right = self._evaluate(expr.right, environment, state)
        width = expr.ctype.bits if expr.ctype else 16
        state.cycles += self._cost.binary_cost(expr.op, width)
        try:
            raw = apply_binary(expr.op, left, right)
        except ZeroDivisionError as exc:
            raise ExecutionError(f"division by zero at line {expr.location.line}") from exc
        if expr.op in RELATIONAL_OPERATORS:
            return int(raw != 0)
        return self._wrap(expr.ctype, raw)

    def _evaluate_call(
        self, expr: CallExpr, environment: dict[str, int], state: "_RunState"
    ) -> int:
        state.cycles += self._cost.call_overhead
        argument_values = [self._evaluate(arg, environment, state) for arg in expr.args]
        if expr.name not in self._defined or expr.name in self._stubbed:
            state.cycles += self._cost.external_call_cost(expr.name)
            return 0
        callee = self._program.function(expr.name)
        # callee environment: globals are shared; parameters and locals form
        # the callee's frame, and the caller's values of those names come
        # back on return (also when the callee raises)
        frame = {param.name for param in callee.params} | {
            node.name for node in callee.body.walk() if isinstance(node, DeclStmt)
        }
        saved = {name: environment[name] for name in frame if name in environment}
        for param, value in zip(callee.params, argument_values):
            environment[param.name] = param.param_type.wrap(value)
        try:
            result = self._walk_function(expr.name, environment, state, record=False)
        finally:
            for name in frame:
                environment.pop(name, None)
            environment.update(saved)
        return result if result is not None else 0

    # ------------------------------------------------------------------ #
    # branch distances (Tracey-style objective functions)
    # ------------------------------------------------------------------ #
    _FAILURE_CONSTANT = FAILURE_CONSTANT

    def _branch_distances(
        self, condition: Expr, environment: dict[str, int]
    ) -> tuple[float, float]:
        """Distances to making *condition* true and false respectively."""
        return (
            self._distance_true(condition, environment),
            self._distance_false(condition, environment),
        )

    def _value_of(self, expr: Expr, environment: dict[str, int]) -> int:
        """Side-effect-free re-evaluation for distance computation."""
        if isinstance(expr, IntLiteral):
            return expr.value
        if isinstance(expr, BoolLiteral):
            return int(expr.value)
        if isinstance(expr, Identifier):
            return environment.get(expr.name, 0)
        if isinstance(expr, UnaryOp):
            return apply_unary(expr.op, self._value_of(expr.operand, environment))
        if isinstance(expr, BinaryOp):
            try:
                return apply_binary(
                    expr.op,
                    self._value_of(expr.left, environment),
                    self._value_of(expr.right, environment),
                )
            except ZeroDivisionError:
                return 0
        if isinstance(expr, Conditional):
            if self._value_of(expr.cond, environment) != 0:
                return self._value_of(expr.then, environment)
            return self._value_of(expr.otherwise, environment)
        if isinstance(expr, CastExpr):
            return expr.target_type.wrap(self._value_of(expr.operand, environment))
        if isinstance(expr, AssignExpr):
            return self._value_of(expr.value, environment)
        if isinstance(expr, CallExpr):
            return 0
        return 0

    def _distance_true(self, condition: Expr, env: dict[str, int]) -> float:
        K = self._FAILURE_CONSTANT
        if isinstance(condition, BinaryOp):
            op = condition.op
            if op == "&&":
                return self._distance_true(condition.left, env) + self._distance_true(
                    condition.right, env
                )
            if op == "||":
                return min(
                    self._distance_true(condition.left, env),
                    self._distance_true(condition.right, env),
                )
            if op in ("==", "!=", "<", "<=", ">", ">="):
                a = self._value_of(condition.left, env)
                b = self._value_of(condition.right, env)
                if op == "==":
                    return float(abs(a - b))
                if op == "!=":
                    return 0.0 if a != b else K
                if op == "<":
                    return 0.0 if a < b else float(a - b) + K
                if op == "<=":
                    return 0.0 if a <= b else float(a - b)
                if op == ">":
                    return 0.0 if a > b else float(b - a) + K
                if op == ">=":
                    return 0.0 if a >= b else float(b - a)
        if isinstance(condition, UnaryOp) and condition.op == "!":
            return self._distance_false(condition.operand, env)
        value = self._value_of(condition, env)
        return 0.0 if value != 0 else K

    def _distance_false(self, condition: Expr, env: dict[str, int]) -> float:
        K = self._FAILURE_CONSTANT
        if isinstance(condition, BinaryOp):
            op = condition.op
            if op == "&&":
                return min(
                    self._distance_false(condition.left, env),
                    self._distance_false(condition.right, env),
                )
            if op == "||":
                return self._distance_false(condition.left, env) + self._distance_false(
                    condition.right, env
                )
            if op in ("==", "!=", "<", "<=", ">", ">="):
                a = self._value_of(condition.left, env)
                b = self._value_of(condition.right, env)
                if op == "==":
                    return 0.0 if a != b else K
                if op == "!=":
                    return float(abs(a - b))
                if op == "<":
                    return 0.0 if a >= b else float(b - a)
                if op == "<=":
                    return 0.0 if a > b else float(b - a) + K
                if op == ">":
                    return 0.0 if a <= b else float(a - b)
                if op == ">=":
                    return 0.0 if a < b else float(a - b) + K
        if isinstance(condition, UnaryOp) and condition.op == "!":
            return self._distance_true(condition.operand, env)
        value = self._value_of(condition, env)
        return 0.0 if value == 0 else K

    @staticmethod
    def _wrap(ctype: CType | None, value: int) -> int:
        if ctype is None or ctype.is_void:
            return INT16.wrap(value)
        if ctype.is_bool:
            return BOOL.wrap(value)
        return ctype.wrap(value)

