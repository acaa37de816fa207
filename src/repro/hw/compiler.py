"""Closure compilation of CFGs for the simulated board.

A :class:`~repro.hw.interpreter.CompiledProgram` compiles each function once,
on its first run, into one :class:`CompiledBlock` per basic block (closure
compilation after Feeley & Lapalme, *Using closures for code generation*,
1987); every interpreter of a run with the same program, cost model and
stubs shares the result (:mod:`repro.hw.artifacts`):

* statements and conditions become closures ``run(env, state) -> value``;
* the block's step count and cycle charge are summed once from the
  :class:`~repro.hw.cost_model.CostModel`;
* successor, true/false and back edges are resolved ahead of time, and a
  switch maps each case value to ``(edge, successor, dispatch cycles)``;
* a call to a defined, unstubbed function evaluates its arguments, wraps
  them into the callee's parameters and runs the callee's compiled code,
  looked up when the call runs (so compilation stays lazy and recursion
  works); the callee's parameters and locals form a C call frame, so the
  caller's values of those names are restored on return;
* the Tracey branch distances are closures over a side-effect-free value
  semantics.

Every block compiles.  Every number here is what the step-by-step semantics
charges for the same code (the tests keep that walker as the oracle):

* A block's ``fixed_steps``/``cycles`` are the steps and cycles every
  execution of it takes; they are charged when the block is entered.
* The short-circuit operators and ``?:`` add the steps and cycles of the
  operand they evaluate when they evaluate it.
* A call lowers the step count by the block's steps that are charged but
  come after the call in evaluation order while its callee runs, so each
  callee block ends at the step count the step-by-step semantics reaches
  there.  The interpreter checks the step limit and the deadline polls at
  block ends only.
* A statement or expression the step-by-step semantics cannot execute
  (the CFG builder puts none in a block) compiles to a closure that raises
  that semantics' ``ExecutionError`` when it runs.
"""

from __future__ import annotations

import operator
from functools import partial
from typing import Any, Callable, Mapping, NamedTuple

from .. import perf
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
    FunctionDef,
    Identifier,
    IntLiteral,
    ReturnStmt,
    Stmt,
    UnaryOp,
)
from ..minic.folding import apply_binary, apply_unary
from ..minic.types import CType, INT16
from .cost_model import CostModel

#: terminator kinds of compiled blocks (RETURN and EXIT leave the function)
JUMP, BRANCH, SWITCH, RETURN, EXIT = range(5)

#: objective-distance penalty of a condition that holds the wrong way
FAILURE_CONSTANT = 1.0

Value = Callable[[dict, Any], int]
#: runs a defined function: (name, env, state, record) -> return value
RunFunction = Callable[[str, dict, Any, bool], "int | None"]

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


class CompiledBlock:
    """One basic block, ready to run without re-reading the AST."""

    __slots__ = (
        "block_id",
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

    def __init__(self, block_id: int) -> None:
        self.block_id = block_id
        self.fixed_steps = 0
        self.cycles = 0
        #: (closure, is a return statement) per statement
        self.statements: tuple[tuple[Value, bool], ...] = ()
        self.kind = JUMP
        #: JUMP: the next block, or None for the exit
        self.successor: CompiledBlock | None = None
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
    entry: CompiledBlock
    exit_id: int


def compile_function(
    cfg: ControlFlowGraph,
    cost: CostModel,
    callees: Mapping[str, FunctionDef],
    run_function: RunFunction,
) -> CompiledFunction:
    """Compile every block of *cfg*.

    A call into one of *callees* runs it through *run_function*; a call to
    any other name is an external call that only consumes cycles.
    """
    perf.add("hw.compiles")
    compiler = _Compiler(cost, callees, run_function)
    blocks = {block.block_id: CompiledBlock(block.block_id) for block in cfg.blocks()}
    exit_id = cfg.exit.block_id

    def successor(edge: Edge) -> tuple:
        """(edge, next compiled block or None for the exit)"""
        return (edge, None if edge.target == exit_id else blocks[edge.target])

    for block in cfg.blocks():
        compiler.compile_block(cfg, block, blocks[block.block_id], successor)
    return CompiledFunction(blocks[cfg.entry.block_id], exit_id)


# ---------------------------------------------------------------------- #
#: a name the caller's environment did not bind before a call
_UNBOUND = object()


def _frame_names(function: FunctionDef) -> tuple[str, ...]:
    """The names of *function*'s call frame: its parameters and locals."""
    names = [param.name for param in function.params]
    names.extend(node.name for node in function.body.walk() if isinstance(node, DeclStmt))
    return tuple(dict.fromkeys(names))


def _value_wrapper(ctype: CType | None) -> Callable[[int], int]:
    """The wrap of an expression result: its type's, int16 for none or void."""
    if ctype is None or ctype.is_void:
        ctype = INT16
    return _type_wrapper(ctype)


def _type_wrapper(ctype: CType) -> Callable[[int], int]:
    """``ctype.wrap``, specialised to the type's width (void raises as it does)."""
    if ctype.is_void:
        return ctype.wrap
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
    """Compiles one function's blocks, each bottom-up.

    Every ``after`` argument is the number of steps the enclosing levels
    have charged for code that runs after the compiled node: a block's
    later statements and terminator condition, a binary operator's right
    operand, a call's later arguments.  Only calls into defined functions
    use it.
    """

    def __init__(
        self, cost: CostModel, callees: Mapping[str, FunctionDef], run_function: RunFunction
    ):
        self._cost = cost
        self._callees = callees
        self._run_function = run_function

    # ------------------------------------------------------------------ #
    # blocks
    # ------------------------------------------------------------------ #
    def compile_block(
        self, cfg: ControlFlowGraph, block, compiled: CompiledBlock, successor
    ) -> None:
        cost = self._cost
        terminator = block.terminator
        kind = terminator.kind
        edges = cfg.out_edges(block)
        # built backwards: the steps of the code after each statement
        after, cycles = 0, 0
        if kind is TerminatorKind.RETURN:
            compiled.kind = RETURN
            cycles += cost.return_cost
        elif block is cfg.exit:
            compiled.kind = EXIT
        elif kind is TerminatorKind.JUMP or kind is TerminatorKind.NONE:
            compiled.kind = JUMP
            compiled.successor = successor(edges[0])[1]
        else:
            condition = self.expression(terminator.condition, 0)
            after = condition.steps
            cycles += condition.cycles
            compiled.condition = condition.run
            if kind is TerminatorKind.BRANCH:
                compiled.kind = BRANCH
                self._branch(compiled, edges, successor, terminator.condition)
            else:
                compiled.kind = SWITCH
                self._switch(compiled, edges, successor)

        statements: list[tuple[Value, bool]] = []
        for stmt in reversed(block.statements):
            code = self._statement(stmt, after)
            statements.append((code.run, isinstance(stmt, ReturnStmt)))
            after += code.steps
            cycles += code.cycles
        compiled.statements = tuple(reversed(statements))
        compiled.fixed_steps = 1 + after  # the block's own step comes first
        compiled.cycles = cycles

    def _branch(self, compiled: CompiledBlock, edges, successor, condition: Expr) -> None:
        # the first TRUE-or-BACK edge on true (do-while back edges carry the
        # true direction), the first FALSE edge on false
        on_true = next(e for e in edges if e.kind is EdgeKind.TRUE or e.kind is EdgeKind.BACK)
        on_false = next(e for e in edges if e.kind is EdgeKind.FALSE)
        compiled.on_true = (*successor(on_true), self._cost.branch_taken)
        compiled.on_false = (*successor(on_false), self._cost.branch_not_taken)
        compiled.distances = _distances(condition)

    def _switch(self, compiled: CompiledBlock, edges, successor) -> None:
        # case edges are compared in order; a miss has compared them all
        per_case = self._cost.switch_dispatch_per_case
        comparisons = 0
        default_edge: Edge | None = None
        for edge in edges:
            if edge.kind is EdgeKind.CASE:
                comparisons += 1
                target = successor(edge)
                for value in edge.case_values:
                    compiled.cases.setdefault(value, (*target, per_case * comparisons))
            elif edge.kind is EdgeKind.DEFAULT:
                default_edge = edge
        if default_edge is not None:
            compiled.default = (*successor(default_edge), per_case * max(1, comparisons))

    # ------------------------------------------------------------------ #
    # statements and expressions
    # ------------------------------------------------------------------ #
    def _statement(self, stmt: Stmt, after: int) -> _Code:
        cost = self._cost
        if isinstance(stmt, DeclStmt):
            name, var_type = stmt.name, stmt.var_type
            wrap = _type_wrapper(var_type)
            if stmt.init is None:
                zero = wrap(0)

                def declare(env, state):
                    env[name] = zero

                return _Code(declare, 1, cost.declaration_cost)
            init = self.expression(stmt.init, after)
            value = init.run

            def declare_init(env, state):
                env[name] = wrap(value(env, state))

            return _Code(
                declare_init,
                1 + init.steps,
                cost.declaration_cost + init.cycles + cost.store_cost(var_type),
            )
        if isinstance(stmt, ExprStmt):
            code = self.expression(stmt.expr, after)
            return code._replace(steps=code.steps + 1)
        if isinstance(stmt, ReturnStmt):
            if stmt.value is None:
                return _Code(lambda env, state: None, 1, 0)
            code = self.expression(stmt.value, after)
            return code._replace(steps=code.steps + 1)
        return _Code(_raiser(f"cannot execute statement {type(stmt).__name__}"), 1, 0)

    def expression(self, expr: Expr, after: int) -> _Code:
        """Compile *expr*; *after* as in the class docstring."""
        cost = self._cost
        if isinstance(expr, IntLiteral):
            literal = expr.value
            return _Code(lambda env, state: literal, 1, cost.load_literal)
        if isinstance(expr, BoolLiteral):
            flag = int(expr.value)
            return _Code(lambda env, state: flag, 1, cost.load_literal)
        if isinstance(expr, Identifier):
            # an unbound name raises KeyError, which the interpreter reports
            # as an ExecutionError
            name = expr.name
            return _Code(lambda env, state: env[name], 1, cost.load_cost(expr.ctype))
        if isinstance(expr, UnaryOp):
            operand = self.expression(expr.operand, after)
            run, wrap, op = operand.run, _value_wrapper(expr.ctype), expr.op
            if op == "-":
                unary = lambda env, state: wrap(-run(env, state))  # noqa: E731
            else:
                apply = partial(apply_unary, op)
                unary = lambda env, state: wrap(apply(run(env, state)))  # noqa: E731
            return _Code(
                unary, 1 + operand.steps, cost.unary_cost(op, _width(expr)) + operand.cycles
            )
        if isinstance(expr, BinaryOp):
            return self._binary(expr, after)
        if isinstance(expr, Conditional):
            return self._conditional(expr, after)
        if isinstance(expr, AssignExpr):
            value = self.expression(expr.value, after)
            target_type = expr.target.ctype or expr.ctype
            run, wrap, name = value.run, _value_wrapper(target_type), expr.target.name

            def assign(env, state):
                env[name] = result = wrap(run(env, state))
                return result

            return _Code(assign, 1 + value.steps, cost.store_cost(target_type) + value.cycles)
        if isinstance(expr, CastExpr):
            operand = self.expression(expr.operand, after)
            run, wrap = operand.run, _type_wrapper(expr.target_type)
            return _Code(
                lambda env, state: wrap(run(env, state)),
                1 + operand.steps,
                cost.cast_op + operand.cycles,
            )
        if isinstance(expr, CallExpr):
            return self._call(expr, after)
        return _Code(_raiser(f"cannot evaluate expression {type(expr).__name__}"), 1, 0)

    def _call(self, expr: CallExpr, after: int) -> _Code:
        arguments: list[_Code] = []
        later = after
        for argument in reversed(expr.args):
            arguments.append(self.expression(argument, later))
            later += arguments[-1].steps
        arguments.reverse()
        runs = tuple(argument.run for argument in arguments)
        steps = 1 + sum(argument.steps for argument in arguments)
        cycles = self._cost.call_overhead + sum(argument.cycles for argument in arguments)
        callee = self._callees.get(expr.name)
        if callee is None:

            def call_external(env, state):
                for run in runs:
                    run(env, state)
                return 0

            return _Code(call_external, steps, cycles + self._cost.external_call_cost(expr.name))

        name, run_function = expr.name, self._run_function
        # callee environment: globals are shared, parameters are local copies
        params = tuple((param.name, _type_wrapper(param.param_type)) for param in callee.params)
        frame = _frame_names(callee)

        def call_defined(env, state):
            values = [run(env, state) for run in runs]
            # the callee's parameters and locals live in its own frame: the
            # caller's values of those names come back on return, also when
            # the callee raises
            saved = [env.get(local, _UNBOUND) for local in frame]
            for (param, wrap), value in zip(params, values):
                env[param] = wrap(value)
            # the caller's block charged its later steps on entry; the
            # callee's block ends must see only the steps executed so far
            state.steps -= after
            try:
                result = run_function(name, env, state, False)
            finally:
                for local, value in zip(frame, saved):
                    if value is _UNBOUND:
                        env.pop(local, None)
                    else:
                        env[local] = value
            state.steps += after
            return 0 if result is None else result

        return _Code(call_defined, steps, cycles)

    def _binary(self, expr: BinaryOp, after: int) -> _Code:
        op = expr.op
        if op in ("&&", "||"):
            # the right operand's steps and cycles are charged only when it runs
            right = self.expression(expr.right, after)
            left = self.expression(expr.left, after)
            lhs, rhs = left.run, right.run
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

            return _Code(logic, 1 + left.steps, self._cost.logic_op + left.cycles)

        right = self.expression(expr.right, after)
        left = self.expression(expr.left, after + right.steps)
        lhs, rhs = left.run, right.run
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
                    raise _execution_error(
                        f"division by zero at line {expr.location.line}"
                    ) from exc

        else:
            apply = _ARITHMETIC.get(op) or partial(apply_binary, op)
            binary = _arithmetic(apply, wrap, lhs, rhs, expr.right)
        return _Code(
            binary,
            1 + left.steps + right.steps,
            self._cost.binary_cost(op, _width(expr)) + left.cycles + right.cycles,
        )

    def _conditional(self, expr: Conditional, after: int) -> _Code:
        condition = self.expression(expr.cond, after)
        then = self.expression(expr.then, after)
        otherwise = self.expression(expr.otherwise, after)
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

        return _Code(choose, 1 + condition.steps, self._cost.branch_taken + condition.cycles)


def _execution_error(message: str) -> Exception:
    from .interpreter import ExecutionError

    return ExecutionError(message)


def _raiser(message: str) -> Value:
    """A closure that raises ``ExecutionError(message)`` when it runs."""

    def raise_error(env, state):
        raise _execution_error(message)

    return raise_error


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
# branch distances
# ---------------------------------------------------------------------- #
def _value_of(expr: Expr) -> Callable[[dict], int]:
    """Side-effect-free value of *expr* (calls value 0, unbound names 0)."""
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

    One closure yields both, so each side-effect-free operand is valued
    once.
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
