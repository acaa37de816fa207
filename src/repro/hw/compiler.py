"""Closure compilation of CFGs for the simulated board.

:class:`~repro.hw.interpreter.Interpreter` compiles each function once, on
its first run, into one :class:`CompiledBlock` per basic block (closure
compilation after Feeley & Lapalme, *Using closures for code generation*,
1987):

* statements and conditions become closures ``run(env, state) -> value``;
* the block's step count and cycle charge are summed once from the
  :class:`~repro.hw.cost_model.CostModel`;
* successor, true/false and back edges are resolved ahead of time, and a
  switch maps each case value to ``(edge, successor, dispatch cycles)``;
* the Tracey branch distances are closures over the same side-effect-free
  value semantics as the walker's ``_value_of``.

The step-by-step walker in the interpreter stays the reference semantics.
Every number here must equal what the walker charges for the same code:

* A block's ``fixed_steps``/``cycles`` are the steps and cycles every
  execution of it takes.
* The short-circuit operators and ``?:`` add the steps and cycles of the
  operand they evaluate when they evaluate it.
* ``steps`` is the most steps one execution can take.  The interpreter uses
  it to decide whether the block's step window is free of deadline polls
  and of the step limit.

A block the compiler cannot reproduce exactly is a *walk-only* block.  Its
``steps`` is :data:`WALK_ONLY`, so no step window ever admits it.  That
covers a call into a defined function (its steps depend on the callee), a
construct the walker rejects at run time, and a malformed terminator.  The
interpreter runs such a block on the walker, which raises the walker's
errors at the walker's point.
"""

from __future__ import annotations

import operator
from functools import partial
from typing import Any, Callable, Iterable, NamedTuple

from ..cfg.graph import ControlFlowGraph, Edge, EdgeKind, TerminatorKind
from ..minic.ast_nodes import (
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
)
from ..minic.folding import apply_binary, apply_unary
from ..minic.types import CType, INT16
from .cost_model import CostModel

#: step count of a walk-only block: larger than any step window
WALK_ONLY = 1 << 62

#: terminator kinds of compiled blocks
JUMP, BRANCH, SWITCH, RETURN, EXIT = range(5)

#: objective-distance penalty of a condition that holds the wrong way
FAILURE_CONSTANT = 1.0

Value = Callable[[dict, Any], int]
Successor = tuple  # (edge, next compiled block or None for the exit)

_ARITHMETIC: dict[str, Callable[[int, int], int]] = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "&": operator.and_,
    "|": operator.or_,
    "^": operator.xor,
    "<<": lambda left, right: left << (right & 31),
    ">>": lambda left, right: left >> (right & 31),
}
_COMPARISONS: dict[str, Callable[[int, int], bool]] = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


class _Code(NamedTuple):
    """One compiled expression or statement."""

    run: Value
    #: steps and cycles charged on every evaluation
    steps: int
    cycles: int
    #: most further steps the short-circuit / conditional parts can take
    extra: int


class CompiledBlock:
    """One basic block, ready to run without re-reading the AST."""

    __slots__ = (
        "block",
        "block_id",
        "steps",
        "fixed_steps",
        "cycles",
        "statements",
        "kind",
        "successor",
        "condition",
        "on_true",
        "on_false",
        "distances",
        "cases",
        "default",
    )

    def __init__(self, block) -> None:
        self.block = block
        self.block_id: int = block.block_id
        self.steps = WALK_ONLY
        self.fixed_steps = 0
        self.cycles = 0
        #: (closure, is a return statement) per statement
        self.statements: tuple[tuple[Value, bool], ...] = ()
        self.kind = JUMP
        #: JUMP: the single out edge and where it leads
        self.successor: Successor | None = None
        self.condition: Value | None = None
        #: BRANCH: (edge, next block, branch cycles) per outcome
        self.on_true: tuple | None = None
        self.on_false: tuple | None = None
        #: BRANCH: env -> (distance to true, distance to false)
        self.distances: Callable[[dict], tuple[float, float]] | None = None
        #: SWITCH: case value -> (edge, next block, dispatch cycles)
        self.cases: dict[int, tuple] = {}
        self.default: tuple | None = None


class CompiledFunction(NamedTuple):
    cfg: ControlFlowGraph
    entry: CompiledBlock
    exit_id: int
    blocks: dict[int, CompiledBlock]


def compile_function(
    cfg: ControlFlowGraph, cost: CostModel, callees: Iterable[str]
) -> CompiledFunction:
    """Compile every block of *cfg*; calls into *callees* stay on the walker."""
    compiler = _Compiler(cost, frozenset(callees))
    blocks = {block.block_id: CompiledBlock(block) for block in cfg.blocks()}
    exit_id = cfg.exit.block_id

    def successor(edge: Edge) -> Successor | None:
        if edge.target not in blocks:
            return None
        return (edge, None if edge.target == exit_id else blocks[edge.target])

    for compiled in blocks.values():
        compiler.compile_block(cfg, compiled, successor)
    return CompiledFunction(cfg, blocks[cfg.entry.block_id], exit_id, blocks)


# ---------------------------------------------------------------------- #
def _value_wrapper(ctype: CType | None) -> Callable[[int], int]:
    """``Interpreter._wrap`` for one result type, as a closure."""
    if ctype is None or ctype.is_void:
        ctype = INT16
    return _type_wrapper(ctype)


def _type_wrapper(ctype: CType) -> Callable[[int], int]:
    """``ctype.wrap`` of a non-void type, specialised to the type's width."""
    if ctype.is_bool:
        return lambda value: 1 if value != 0 else 0
    mask = (1 << ctype.bits) - 1
    if not ctype.signed:
        return lambda value: value & mask
    half = 1 << (ctype.bits - 1)
    full = 1 << ctype.bits

    def wrap_signed(value: int) -> int:
        value &= mask
        return value - full if value >= half else value

    return wrap_signed


def _width(expr: Expr) -> int:
    return expr.ctype.bits if expr.ctype else 16


class _Compiler:
    def __init__(self, cost: CostModel, callees: frozenset[str]):
        self._cost = cost
        self._callees = callees

    # ------------------------------------------------------------------ #
    # blocks
    # ------------------------------------------------------------------ #
    def compile_block(self, cfg: ControlFlowGraph, compiled: CompiledBlock, successor) -> None:
        """Fill in *compiled*, or leave it walk-only."""
        block = compiled.block
        cost = self._cost
        steps, cycles, extra = 1, 0, 0
        statements: list[tuple[Value, bool]] = []
        for stmt in block.statements:
            code = self._statement(stmt)
            if code is None:
                return
            statements.append((code.run, isinstance(stmt, ReturnStmt)))
            steps += code.steps
            cycles += code.cycles
            extra += code.extra

        terminator = block.terminator
        kind = terminator.kind
        edges = cfg.out_edges(block)
        if kind is TerminatorKind.RETURN:
            if len(edges) != 1:
                return
            compiled.kind = RETURN
            cycles += cost.return_cost
        elif block is cfg.exit:
            compiled.kind = EXIT
        elif kind is TerminatorKind.JUMP or kind is TerminatorKind.NONE:
            if len(edges) != 1 or (target := successor(edges[0])) is None:
                return
            compiled.kind = JUMP
            compiled.successor = target
        elif kind is TerminatorKind.BRANCH or kind is TerminatorKind.SWITCH:
            if terminator.condition is None:
                return
            condition = self.expression(terminator.condition)
            if condition is None:
                return
            steps += condition.steps
            cycles += condition.cycles
            extra += condition.extra
            compiled.condition = condition.run
            if kind is TerminatorKind.BRANCH:
                if not self._branch(compiled, edges, successor, terminator.condition):
                    return
                compiled.kind = BRANCH
            else:
                if not self._switch(compiled, edges, successor):
                    return
                compiled.kind = SWITCH
        else:
            return
        compiled.statements = tuple(statements)
        compiled.fixed_steps = steps
        compiled.cycles = cycles
        compiled.steps = steps + extra

    def _branch(self, compiled: CompiledBlock, edges, successor, condition: Expr) -> bool:
        # the walker takes the first TRUE-or-BACK edge on true, the first FALSE edge on false
        on_true = next(
            (e for e in edges if e.kind is EdgeKind.TRUE or e.kind is EdgeKind.BACK), None
        )
        on_false = next((e for e in edges if e.kind is EdgeKind.FALSE), None)
        if on_true is None or on_false is None:
            return False
        taken, not_taken = successor(on_true), successor(on_false)
        if taken is None or not_taken is None:
            return False
        compiled.on_true = (*taken, self._cost.branch_taken)
        compiled.on_false = (*not_taken, self._cost.branch_not_taken)
        compiled.distances = _distances(condition)
        return True

    def _switch(self, compiled: CompiledBlock, edges, successor) -> bool:
        # the walker compares case edges in order; a miss has compared them all
        per_case = self._cost.switch_dispatch_per_case
        comparisons = 0
        default_edge: Edge | None = None
        for edge in edges:
            if edge.kind is EdgeKind.CASE:
                comparisons += 1
                target = successor(edge)
                if target is None:
                    return False
                for value in edge.case_values:
                    compiled.cases.setdefault(value, (*target, per_case * comparisons))
            elif edge.kind is EdgeKind.DEFAULT:
                default_edge = edge
        if default_edge is not None:
            target = successor(default_edge)
            if target is None:
                return False
            compiled.default = (*target, per_case * max(1, comparisons))
        return True

    # ------------------------------------------------------------------ #
    # statements and expressions (mirror Interpreter._execute_statement/_evaluate)
    # ------------------------------------------------------------------ #
    def _statement(self, stmt: Stmt) -> _Code | None:
        cost = self._cost
        if isinstance(stmt, DeclStmt):
            name, var_type = stmt.name, stmt.var_type
            if var_type.is_void:
                return None
            wrap = _type_wrapper(var_type)
            if stmt.init is None:
                zero = wrap(0)

                def declare(env, state):
                    env[name] = zero

                return _Code(declare, 1, cost.declaration_cost, 0)
            init = self.expression(stmt.init)
            if init is None:
                return None
            value = init.run

            def declare_init(env, state):
                env[name] = wrap(value(env, state))

            return _Code(
                declare_init,
                1 + init.steps,
                cost.declaration_cost + init.cycles + cost.store_cost(var_type),
                init.extra,
            )
        if isinstance(stmt, ExprStmt):
            code = self.expression(stmt.expr)
            return None if code is None else code._replace(steps=code.steps + 1)
        if isinstance(stmt, ReturnStmt):
            if stmt.value is None:
                return _Code(lambda env, state: None, 1, 0, 0)
            code = self.expression(stmt.value)
            return None if code is None else code._replace(steps=code.steps + 1)
        return None

    def expression(self, expr: Expr) -> _Code | None:
        """Compile *expr*, or ``None`` when only the walker can run it."""
        cost = self._cost
        if isinstance(expr, IntLiteral):
            literal = expr.value
            return _Code(lambda env, state: literal, 1, cost.load_literal, 0)
        if isinstance(expr, BoolLiteral):
            flag = int(expr.value)
            return _Code(lambda env, state: flag, 1, cost.load_literal, 0)
        if isinstance(expr, Identifier):
            # an unbound name raises KeyError, which the interpreter reports
            # as the walker's ExecutionError
            name = expr.name
            return _Code(lambda env, state: env[name], 1, cost.load_cost(expr.ctype), 0)
        if isinstance(expr, UnaryOp):
            operand = self.expression(expr.operand)
            if operand is None:
                return None
            run, wrap, op = operand.run, _value_wrapper(expr.ctype), expr.op
            if op == "-":
                unary = lambda env, state: wrap(-run(env, state))  # noqa: E731
            else:
                apply = partial(apply_unary, op)
                unary = lambda env, state: wrap(apply(run(env, state)))  # noqa: E731
            return _Code(
                unary,
                1 + operand.steps,
                cost.unary_cost(op, _width(expr)) + operand.cycles,
                operand.extra,
            )
        if isinstance(expr, BinaryOp):
            return self._binary(expr)
        if isinstance(expr, Conditional):
            return self._conditional(expr)
        if isinstance(expr, AssignExpr):
            value = self.expression(expr.value)
            target_type = expr.target.ctype or expr.ctype
            if value is None:
                return None
            run, wrap, name = value.run, _value_wrapper(target_type), expr.target.name

            def assign(env, state):
                env[name] = result = wrap(run(env, state))
                return result

            return _Code(
                assign, 1 + value.steps, cost.store_cost(target_type) + value.cycles, value.extra
            )
        if isinstance(expr, CastExpr):
            operand = self.expression(expr.operand)
            if operand is None or expr.target_type.is_void:
                return None
            run, wrap = operand.run, _type_wrapper(expr.target_type)
            return _Code(
                lambda env, state: wrap(run(env, state)),
                1 + operand.steps,
                cost.cast_op + operand.cycles,
                operand.extra,
            )
        if isinstance(expr, CallExpr):
            if expr.name in self._callees:
                return None
            arguments = [self.expression(arg) for arg in expr.args]
            if any(argument is None for argument in arguments):
                return None
            runs = tuple(argument.run for argument in arguments)

            def call_external(env, state):
                for run in runs:
                    run(env, state)
                return 0

            return _Code(
                call_external,
                1 + sum(argument.steps for argument in arguments),
                cost.call_overhead
                + cost.external_call_cost(expr.name)
                + sum(argument.cycles for argument in arguments),
                sum(argument.extra for argument in arguments),
            )
        return None

    def _binary(self, expr: BinaryOp) -> _Code | None:
        left = self.expression(expr.left)
        right = self.expression(expr.right)
        if left is None or right is None:
            return None
        op = expr.op
        lhs, rhs = left.run, right.run
        if op in ("&&", "||"):
            # the right operand's steps and cycles are charged only when it runs
            right_steps, right_cycles = right.steps, right.cycles
            if op == "&&":

                def logic(env, state):
                    if lhs(env, state) == 0:
                        return 0
                    state.steps += right_steps
                    state.cycles += right_cycles
                    return 1 if rhs(env, state) != 0 else 0

            else:

                def logic(env, state):
                    if lhs(env, state) != 0:
                        return 1
                    state.steps += right_steps
                    state.cycles += right_cycles
                    return 1 if rhs(env, state) != 0 else 0

            return _Code(
                logic,
                1 + left.steps,
                self._cost.logic_op + left.cycles,
                left.extra + right.steps + right.extra,
            )

        compare = _COMPARISONS.get(op)
        wrap = _value_wrapper(expr.ctype)
        if compare is not None:
            binary = _comparison(compare, lhs, rhs, expr.left, expr.right)
        elif op in ("/", "%"):

            def binary(env, state):
                a = lhs(env, state)
                b = rhs(env, state)
                try:
                    return wrap(apply_binary(op, a, b))
                except ZeroDivisionError as exc:
                    raise _division_error(expr) from exc

        else:
            apply = _ARITHMETIC.get(op) or partial(apply_binary, op)
            binary = _arithmetic(apply, wrap, lhs, rhs, expr.right)
        return _Code(
            binary,
            1 + left.steps + right.steps,
            self._cost.binary_cost(op, _width(expr)) + left.cycles + right.cycles,
            left.extra + right.extra,
        )

    def _conditional(self, expr: Conditional) -> _Code | None:
        condition = self.expression(expr.cond)
        then = self.expression(expr.then)
        otherwise = self.expression(expr.otherwise)
        if condition is None or then is None or otherwise is None:
            return None
        test, then_run, else_run = condition.run, then.run, otherwise.run
        then_steps, then_cycles = then.steps, then.cycles
        else_steps, else_cycles = otherwise.steps, otherwise.cycles

        def choose(env, state):
            if test(env, state) != 0:
                state.steps += then_steps
                state.cycles += then_cycles
                return then_run(env, state)
            state.steps += else_steps
            state.cycles += else_cycles
            return else_run(env, state)

        return _Code(
            choose,
            1 + condition.steps,
            self._cost.branch_taken + condition.cycles,
            condition.extra
            + max(then_steps + then.extra, else_steps + otherwise.extra),
        )


def _division_error(expr: BinaryOp) -> Exception:
    from .interpreter import ExecutionError

    return ExecutionError(f"division by zero at line {expr.location.line}")


def _comparison(compare, lhs: Value, rhs: Value, left: Expr, right: Expr) -> Value:
    """A relational operator; variable/literal operands are read inline."""
    if isinstance(left, Identifier):
        name = left.name
        if isinstance(right, IntLiteral):
            literal = right.value
            return lambda env, state: 1 if compare(env[name], literal) else 0
        if isinstance(right, Identifier):
            other = right.name
            return lambda env, state: 1 if compare(env[name], env[other]) else 0
    return lambda env, state: 1 if compare(lhs(env, state), rhs(env, state)) else 0


def _arithmetic(apply, wrap, lhs: Value, rhs: Value, right: Expr) -> Value:
    """A non-dividing arithmetic operator; a literal right operand is inlined."""
    if isinstance(right, IntLiteral):
        literal = right.value
        return lambda env, state: wrap(apply(lhs(env, state), literal))
    return lambda env, state: wrap(apply(lhs(env, state), rhs(env, state)))


# ---------------------------------------------------------------------- #
# branch distances (mirror Interpreter._value_of/_distance_true/_distance_false)
# ---------------------------------------------------------------------- #
def _value_of(expr: Expr) -> Callable[[dict], int]:
    """Side-effect-free value of *expr*, as the walker's ``_value_of``."""
    if isinstance(expr, IntLiteral):
        literal = expr.value
        return lambda env: literal
    if isinstance(expr, BoolLiteral):
        flag = int(expr.value)
        return lambda env: flag
    if isinstance(expr, Identifier):
        name = expr.name
        return lambda env: env.get(name, 0)
    if isinstance(expr, UnaryOp):
        operand, apply = _value_of(expr.operand), partial(apply_unary, expr.op)
        return lambda env: apply(operand(env))
    if isinstance(expr, BinaryOp):
        left, right, op = _value_of(expr.left), _value_of(expr.right), expr.op

        def binary(env):
            a = left(env)
            b = right(env)
            try:
                return apply_binary(op, a, b)
            except ZeroDivisionError:
                return 0

        return binary
    if isinstance(expr, Conditional):
        test, then, otherwise = (
            _value_of(expr.cond),
            _value_of(expr.then),
            _value_of(expr.otherwise),
        )
        return lambda env: then(env) if test(env) != 0 else otherwise(env)
    if isinstance(expr, CastExpr):
        operand, wrap = _value_of(expr.operand), expr.target_type.wrap
        return lambda env: wrap(operand(env))
    if isinstance(expr, AssignExpr):
        return _value_of(expr.value)
    return lambda env: 0


def _distances(condition: Expr) -> Callable[[dict], tuple[float, float]]:
    """Distances to making *condition* true and false (Tracey et al.).

    One closure yields both, so each operand is valued once; the walker
    values the side-effect-free operands once per distance, which gives
    the same numbers.
    """
    K = FAILURE_CONSTANT
    if isinstance(condition, BinaryOp):
        op = condition.op
        if op == "&&" or op == "||":
            left, right = _distances(condition.left), _distances(condition.right)
            if op == "&&":

                def conjunction(env):
                    left_true, left_false = left(env)
                    right_true, right_false = right(env)
                    return left_true + right_true, min(left_false, right_false)

                return conjunction

            def disjunction(env):
                left_true, left_false = left(env)
                right_true, right_false = right(env)
                return min(left_true, right_true), left_false + right_false

            return disjunction
        formula = _RELATIONAL_DISTANCES.get(op)
        if formula is not None:
            if isinstance(condition.left, Identifier) and isinstance(
                condition.right, IntLiteral
            ):
                name, literal = condition.left.name, condition.right.value
                return lambda env: formula(env.get(name, 0), literal)
            a, b = _value_of(condition.left), _value_of(condition.right)
            return lambda env: formula(a(env), b(env))
    if isinstance(condition, UnaryOp) and condition.op == "!":
        negated = _distances(condition.operand)

        def negation(env):
            true, false = negated(env)
            return false, true

        return negation
    value = _value_of(condition)
    return lambda env: (0.0, K) if value(env) != 0 else (K, 0.0)


_K = FAILURE_CONSTANT
#: (distance to true, distance to false) of ``x op y``
_RELATIONAL_DISTANCES: dict[str, Callable[[int, int], tuple[float, float]]] = {
    "==": lambda x, y: (float(abs(x - y)), 0.0 if x != y else _K),
    "!=": lambda x, y: (0.0 if x != y else _K, float(abs(x - y))),
    "<": lambda x, y: (
        0.0 if x < y else float(x - y) + _K,
        0.0 if x >= y else float(y - x),
    ),
    "<=": lambda x, y: (
        0.0 if x <= y else float(x - y),
        0.0 if x > y else float(y - x) + _K,
    ),
    ">": lambda x, y: (
        0.0 if x > y else float(y - x) + _K,
        0.0 if x <= y else float(x - y),
    ),
    ">=": lambda x, y: (
        0.0 if x >= y else float(y - x),
        0.0 if x < y else float(x - y) + _K,
    ),
}
