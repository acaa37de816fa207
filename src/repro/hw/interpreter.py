"""Cycle-accurate mini-C interpreter -- the simulated evaluation board CPU.

The interpreter executes a function over its CFG, charging cycles from a
:class:`~repro.hw.cost_model.CostModel` for every operation, exactly like the
HCS12 on the paper's evaluation board accumulates cycles in its counter
register.  Besides the final cycle count it records everything the
surrounding tooling needs:

* the *trace* -- the id of every block entered, in execution order, and the
  *stamps* -- the cycle count at each of those entries; the measurement
  subsystem converts the pair into per-segment execution times using the
  instrumentation plan, and the test-data generators match the trace
  against their path targets; and
* *branch events* with objective branch distances (Tracey-style), which the
  genetic algorithm uses as its fitness signal.

Defined functions can call each other (arguments by value, globals shared);
external functions only consume cycles.  Execution is deterministic.

:meth:`Interpreter.run` executes closures compiled from each function's CFG
on its first run (:mod:`repro.hw.compiler`).  A block runs on its compiled
form only when its step window crosses neither a deadline poll (every 1024
steps) nor the step limit; every other block runs on the step-by-step
walker, so faults, deadline polls and step-limit errors fire at the same
step as on the walker alone.  :meth:`Interpreter.run_reference` runs the
walker alone: it is the reference oracle the compiled path is tested
against, field for field.
"""

from __future__ import annotations

from functools import partial
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, NamedTuple

from ..cfg.builder import build_all_cfgs
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
    RELATIONAL_OPERATORS,
)
from ..minic.folding import apply_binary, apply_unary
from ..minic.semantic import AnalyzedProgram
from ..minic.types import BOOL, CType, INT16
from ..resilience import faults as _resilience
from .compiler import (
    BRANCH,
    EXIT,
    FAILURE_CONSTANT,
    RETURN,
    SWITCH,
    CompiledFunction,
    _type_wrapper,
    compile_function,
)
from .cost_model import CostModel, HCS12_COST_MODEL


def _poll_resilience() -> None:
    """Deadline poll + ``interp.step`` fault site (no-op on clean paths)."""
    if _resilience.current() is None:
        return
    _resilience.poll_deadline()
    _resilience.maybe_fault("interp.step")


class ExecutionError(Exception):
    """Raised for runtime errors (division by zero, step-limit exceeded, ...)."""


class BranchEvent(NamedTuple):
    """Outcome and branch distances of one executed two-way branch.

    ``distance_true``/``distance_false`` are objective distances ("how far was
    the condition from evaluating to true/false"); the outcome that occurred
    has distance 0.  Distances follow Tracey et al. (the paper's reference
    [11]): ``|a-b|`` style measures combined with min over ``||`` and sum over
    ``&&``.
    """

    block_id: int
    outcome: bool
    distance_true: float
    distance_false: float


class SwitchEvent(NamedTuple):
    """Outcome of one executed switch dispatch."""

    block_id: int
    value: int
    taken_edge: Edge


#: ``BranchEvent`` from one ``(block_id, outcome, distance_true,
#: distance_false)`` tuple, without the keyword-argument constructor
_branch_event = partial(tuple.__new__, BranchEvent)


class RunResult(NamedTuple):
    """Everything observed during one run of the top-level function.

    ``trace`` holds the id of every block the top-level function entered, in
    execution order, and ``stamps`` the cycle counter at each entry
    (``stamps[i]`` belongs to ``trace[i]``).  Callees run unrecorded.

    Immutable: a memoising :class:`~repro.hw.board.EvaluationBoard` hands the
    same result to every caller that runs the same input vector, so the
    traces and event sequences are tuples and the mappings read-only views.
    """

    function_name: str
    inputs: Mapping[str, int]
    total_cycles: int
    return_value: int | None
    trace: tuple[int, ...]
    stamps: tuple[int, ...]
    branch_events: tuple[BranchEvent, ...]
    switch_events: tuple[SwitchEvent, ...]
    final_environment: Mapping[str, int]


class Interpreter:
    """Executes functions of one analysed program with cycle accounting.

    Compiled code is built from the CFGs on first use, so the CFGs must not
    change after the first run.
    """

    def __init__(
        self,
        analyzed: AnalyzedProgram,
        cost_model: CostModel = HCS12_COST_MODEL,
        cfgs: dict[str, ControlFlowGraph] | None = None,
        max_steps: int = 1_000_000,
        stub_functions: "Iterable[str]" = (),
    ):
        self._analyzed = analyzed
        self._program = analyzed.program
        self._cost = cost_model
        self._cfgs = cfgs if cfgs is not None else build_all_cfgs(analyzed.program)
        self._max_steps = max_steps
        self._defined = {func.name for func in analyzed.program.functions}
        #: defined functions treated as opaque external calls: their body is
        #: not executed and each call is charged the cost model's external
        #: cost for the name instead.  The interprocedural analysis uses this
        #: to replace already-summarised callees with their WCET bound.
        self._stubbed = set(stub_functions)
        #: function name -> its compiled CFG, built on the function's first run
        self._compiled: dict[str, CompiledFunction] = {}
        #: (global environment before inputs, global name -> wrap function
        #: of its declared type), built on the first run
        self._globals: tuple[dict[str, int], dict[str, Callable[[int], int]]] | None = None

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def cfg(self, function_name: str) -> ControlFlowGraph:
        try:
            return self._cfgs[function_name]
        except KeyError as exc:
            raise ExecutionError(f"no CFG for function {function_name!r}") from exc

    def run(
        self,
        function_name: str,
        inputs: dict[str, int] | None = None,
    ) -> RunResult:
        """Execute *function_name* with the given input-variable values.

        ``inputs`` assigns values to the analysis input variables (and may
        override any global); unspecified globals start at their initialiser
        or zero.  Parameters of the top-level function may also be supplied
        through ``inputs`` by name.
        """
        return self._run(function_name, inputs, False)

    def run_reference(
        self,
        function_name: str,
        inputs: dict[str, int] | None = None,
    ) -> RunResult:
        """:meth:`run` on the step-by-step walker alone (the reference oracle).

        Returns the same :class:`RunResult` as :meth:`run` and raises the
        same errors on the same runs; it is kept for the tests that check
        exactly that.
        """
        return self._run(function_name, inputs, True)

    def _run(
        self, function_name: str, inputs: dict[str, int] | None, reference: bool
    ) -> RunResult:
        inputs = dict(inputs or {})
        if reference:
            environment = self._initial_environment(inputs)
        else:
            environment = self._environment_for(inputs)
        state = _RunState(self._cost, self._max_steps, reference)
        function = self._program.function(function_name)

        # top-level parameters come from the inputs mapping (default 0)
        for param in function.params:
            value = inputs.get(param.name, 0)
            environment[param.name] = param.param_type.wrap(value)

        return_value = self._execute_function(function_name, environment, state, True)
        # positional: keyword arguments would add about 0.5 µs to every run
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

    # ------------------------------------------------------------------ #
    # execution machinery
    # ------------------------------------------------------------------ #
    def _initial_environment(self, inputs: dict[str, int]) -> dict[str, int]:
        environment: dict[str, int] = {}
        for decl in self._program.globals:
            value = 0
            if decl.init is not None:
                value = self._evaluate_static(decl.init)
            environment[decl.name] = decl.var_type.wrap(value)
        for name, value in inputs.items():
            if name in environment:
                decl = self._program.global_decl(name)
                environment[name] = decl.var_type.wrap(value)
            else:
                environment[name] = value
        return environment

    def _environment_for(self, inputs: dict[str, int]) -> dict[str, int]:
        """:meth:`_initial_environment` from globals evaluated, and each
        global's wrap function built, once per board."""
        if self._globals is None:
            wraps: dict[str, Callable[[int], int]] = {}
            for decl in self._program.globals:
                wraps.setdefault(decl.name, _type_wrapper(decl.var_type))
            self._globals = (self._initial_environment({}), wraps)
        initial, wraps = self._globals
        environment = initial.copy()
        for name, value in inputs.items():
            wrap = wraps.get(name)
            environment[name] = value if wrap is None else wrap(value)
        return environment

    def _evaluate_static(self, expr: Expr) -> int:
        """Evaluate a global initialiser (no variables allowed)."""
        if isinstance(expr, IntLiteral):
            return expr.value
        if isinstance(expr, BoolLiteral):
            return int(expr.value)
        if isinstance(expr, UnaryOp):
            return apply_unary(expr.op, self._evaluate_static(expr.operand))
        if isinstance(expr, BinaryOp):
            return apply_binary(
                expr.op,
                self._evaluate_static(expr.left),
                self._evaluate_static(expr.right),
            )
        raise ExecutionError("global initialisers must be constant expressions")

    def _execute_function(
        self,
        function_name: str,
        environment: dict[str, int],
        state: "_RunState",
        record: bool,
    ) -> int | None:
        if state.reference:
            return self._walk_function(function_name, environment, state, record)
        return self._run_compiled(function_name, environment, state, record)

    def _run_compiled(
        self,
        function_name: str,
        environment: dict[str, int],
        state: "_RunState",
        record: bool,
    ) -> int | None:
        code = self._compiled.get(function_name)
        if code is None:
            code = self._compiled[function_name] = compile_function(
                self.cfg(function_name), self._cost, self._defined - self._stubbed
            )
        max_steps = state.max_steps
        enter, stamp = state.trace.append, state.stamps.append
        branch_events = state.branch_events.append
        block = code.entry
        return_value: int | None = None
        while True:
            steps = state.steps
            window = block.steps
            if (steps & 1023) + window >= 1024 or steps + window > max_steps:
                # a poll or the step limit falls inside the block (or it is
                # walk-only): take it step by step
                successor, return_value = self._walk_block(
                    code.cfg, block.block, environment, state, record, return_value
                )
                if successor is None:
                    return return_value
                block = code.blocks[successor.block_id]
                continue
            state.steps = steps + block.fixed_steps
            if record:
                enter(block.block_id)
                stamp(state.cycles)
            state.cycles += block.cycles
            try:
                for statement, is_return in block.statements:
                    result = statement(environment, state)
                    if is_return:
                        return_value = result
                kind = block.kind
                if kind == BRANCH:
                    outcome = block.condition(environment, state) != 0
                    _, target, cycles = block.on_true if outcome else block.on_false
                    state.cycles += cycles
                    if record:
                        branch_events(
                            _branch_event((block.block_id, outcome) + block.distances(environment))
                        )
                elif kind == SWITCH:
                    value = block.condition(environment, state)
                    case = block.cases.get(value) or block.default
                    if case is None:
                        raise ExecutionError(
                            f"switch block {block.block_id}: no case matches value "
                            f"{value} and no default"
                        )
                    edge, target, cycles = case
                    state.cycles += cycles
                    if record:
                        state.switch_events.append(SwitchEvent(block.block_id, value, edge))
                elif kind == RETURN or kind == EXIT:
                    return return_value
                else:
                    target = block.successor[1]
            except KeyError as exc:
                raise ExecutionError(f"read of unbound variable {exc.args[0]!r}") from None
            if target is None:
                if record:
                    enter(code.exit_id)
                    stamp(state.cycles)
                return return_value
            block = target

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
        state.step()
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
        state.step()
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
        state.step()
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
        # callee environment: globals are shared, parameters are local copies
        for param, value in zip(callee.params, argument_values):
            environment[param.name] = param.param_type.wrap(value)
        result = self._execute_function(expr.name, environment, state, record=False)
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


class _RunState:
    """Mutable execution state shared across nested function calls."""

    __slots__ = (
        "cost", "max_steps", "reference", "cycles", "steps",
        "trace", "stamps", "branch_events", "switch_events",
    )

    def __init__(self, cost: CostModel, max_steps: int, reference: bool = False):
        self.cost = cost
        self.max_steps = max_steps
        #: run every function on the walker alone (:meth:`Interpreter.run_reference`)
        self.reference = reference
        self.cycles = 0
        self.steps = 0
        self.trace: list[int] = []
        self.stamps: list[int] = []
        self.branch_events: list[BranchEvent] = []
        self.switch_events: list[SwitchEvent] = []

    def step(self) -> None:
        self.steps += 1
        if self.steps > self.max_steps:
            raise ExecutionError(
                f"execution exceeded {self.max_steps} steps (possible unbounded loop)"
            )
        if not self.steps & 1023:
            # every 1024 steps: cooperative per-job deadline + fault site.
            # Outside chaos runs the ambient context is None and this costs
            # one mask, one call and one global read per 1024 steps.
            _poll_resilience()
