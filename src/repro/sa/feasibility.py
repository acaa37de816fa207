"""Sound interval analysis over mini-C CFGs: branch feasibility and state ranges.

The model checker answers reachability questions exactly but at solver cost.
This module settles a useful subset of those questions *statically*: a forward
interval propagation with branch-condition refinement proves edges and blocks
unreachable, and the :class:`StaticPrefilter` turns those proofs into
``UNREACHABLE`` verdicts in front of :mod:`repro.mc.query` — with no solver
call and, by construction, verdicts identical to what the model checker would
return (the differential suite in ``tests/test_sa.py`` enforces this).

The same fixpoint is the paper's variable range analysis (Section 3.2.4): its
final pass collects the hull of every value stored into each variable, and
:attr:`FeasibilityResult.state_ranges` sizes the model checker's state
variables from it.  This is the only interval domain of the reproduction.

Soundness is the contract: every arithmetic result is checked against the
expression's fixed-width type and widened to the full type range whenever
two's-complement wrap-around is possible, mirroring exactly how
:mod:`repro.hw.interpreter` wraps each subexpression.  Side-effecting
conditions are never used for refinement, and widening bails to the type range
after a bounded number of updates — so an edge reported infeasible is
infeasible for *every* concrete execution the interpreter or the transition
system could produce.

Function entry and calls follow the board, which runs the analysed function
as its entry point:

* a call to a function the unit defines havocs every global (callees share
  globals; the verification board runs the body of a stubbed callee too);
  a call to a function the unit does not define writes nothing, as on the
  board and in the model checker, and every call's value keeps its type
  range;
* with ``initialised`` entry a non-input global starts at its
  :func:`~repro.minic.folding.initial_value`, as the board resets it before
  every run and the variable-initialisation model (Section 3.2.5) starts
  it; inputs keep their declared or type range and parameters their type
  range.  Models that leave variables uninitialised let a global start at
  any value, so their state ranges come from the any-value entry
  (``initialised=False``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections import deque
from collections.abc import Iterable

from .. import perf
from ..analysis.liveness import block_liveness
from ..cfg.graph import (
    BasicBlock,
    ControlFlowGraph,
    Edge,
    EdgeKind,
    TerminatorKind,
)
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
    Program,
    ReturnStmt,
    Stmt,
    UnaryOp,
    RELATIONAL_OPERATORS,
)
from ..minic.folding import apply_binary, assigned_variables, has_calls, initial_value
from ..minic.symbols import FunctionSymbolTable, SymbolKind
from ..minic.types import IntRange

TRUE_RANGE = IntRange(1, 1)
FALSE_RANGE = IntRange(0, 0)
UNKNOWN_RANGE = IntRange(0, 1)

#: interval updates of one variable at one block before widening to type range
_WIDENING_THRESHOLD = 3

#: largest selector interval enumerated to prove a switch default dead
_DEFAULT_ENUM_LIMIT = 4096

_NEGATED_OP = {
    "<": ">=",
    "<=": ">",
    ">": "<=",
    ">=": "<",
    "==": "!=",
    "!=": "==",
}


def defined_functions(program: Program) -> frozenset[str]:
    """Names of the functions *program* defines (their calls run a body)."""
    return frozenset(function.name for function in program.functions)


def _calls_defined(expr: Expr, defined: frozenset[str]) -> bool:
    """True when *expr* calls one of the *defined* functions."""
    if isinstance(expr, CallExpr) and expr.name in defined:
        return True
    return any(
        _calls_defined(child, defined)
        for child in expr.children()
        if isinstance(child, Expr)
    )


def variable_defaults(table: FunctionSymbolTable) -> dict[str, IntRange]:
    """Default interval of every variable: declared (pragma) range or type range."""
    defaults: dict[str, IntRange] = {}
    for name, symbol in table.variables.items():
        declared = symbol.declared_range
        defaults[name] = declared if declared is not None else symbol.ctype.value_range()
    return defaults


@dataclass
class RangeEnvironment:
    """A mapping from variable names to intervals (missing = type range)."""

    ranges: dict[str, IntRange] = field(default_factory=dict)

    def copy(self) -> "RangeEnvironment":
        return RangeEnvironment(ranges=dict(self.ranges))

    def join(self, other: "RangeEnvironment", keys: set[str],
             defaults: dict[str, IntRange]) -> "RangeEnvironment":
        joined: dict[str, IntRange] = {}
        for key in keys:
            mine = self.ranges.get(key, defaults[key])
            theirs = other.ranges.get(key, defaults[key])
            joined[key] = mine.union(theirs)
        return RangeEnvironment(ranges=joined)


@dataclass(frozen=True)
class EvalEvent:
    """A diagnostic-relevant fact observed while evaluating an expression."""

    kind: str  # "div_zero" | "overflow"
    node_id: int
    line: int | None
    op: str
    definite: bool = False


@dataclass(frozen=True)
class ConstantBranch:
    """A branch whose condition has a statically known truth value."""

    block_id: int
    line: int | None
    value: bool


@dataclass
class FeasibilityResult:
    """Outcome of the feasibility fixpoint for one function CFG."""

    #: block ids provably executable (entry environment exists)
    reachable: frozenset[int]
    #: real block ids that can never execute
    unreachable_blocks: frozenset[int]
    #: ``(source, target, kind.value)`` of provably infeasible edges
    infeasible_edges: frozenset[tuple[int, int, str]]
    #: sound interval environment at the entry of every reachable block
    block_entry: dict[int, RangeEnvironment]
    #: domain of every variable as a model-checker state variable
    state_ranges: dict[str, IntRange]
    constant_branches: tuple[ConstantBranch, ...] = ()
    events: tuple[EvalEvent, ...] = ()


def _line_of(expr: Expr) -> int | None:
    location = getattr(expr, "location", None)
    return getattr(location, "line", None)


class SoundEvaluator:
    """Wrap-aware interval evaluation of mini-C expressions.

    ``recorder`` (when set) receives an :class:`EvalEvent` for every possible
    division by zero and every signed arithmetic result that may wrap — the
    raw material of the SA003/SA004 diagnostics.
    """

    def __init__(self, type_ranges: dict[str, IntRange]):
        self._type_ranges = type_ranges
        self.recorder = None

    # ------------------------------------------------------------------ #
    def evaluate(self, expr: Expr, env: RangeEnvironment) -> IntRange:
        if isinstance(expr, IntLiteral):
            return IntRange(expr.value, expr.value)
        if isinstance(expr, BoolLiteral):
            value = int(expr.value)
            return IntRange(value, value)
        if isinstance(expr, Identifier):
            known = env.ranges.get(expr.name)
            if known is not None:
                return known
            return self._type_ranges.get(expr.name, self._type_range(expr))
        if isinstance(expr, UnaryOp):
            return self._evaluate_unary(expr, env)
        if isinstance(expr, BinaryOp):
            return self._evaluate_binary(expr, env)
        if isinstance(expr, Conditional):
            self.evaluate(expr.cond, env)
            then = self.evaluate(expr.then, env)
            otherwise = self.evaluate(expr.otherwise, env)
            return then.union(otherwise)
        if isinstance(expr, CastExpr):
            operand = self.evaluate(expr.operand, env)
            target = expr.target_type.value_range()
            if operand.lo >= target.lo and operand.hi <= target.hi:
                return operand
            return target
        if isinstance(expr, AssignExpr):
            value = self.evaluate(expr.value, env)
            target_type = expr.target.ctype or expr.ctype
            if target_type is not None and not target_type.is_void:
                target = target_type.value_range()
                if value.lo >= target.lo and value.hi <= target.hi:
                    return value
                return target
            return value
        if isinstance(expr, CallExpr):
            for argument in expr.args:
                self.evaluate(argument, env)
            return self._type_range(expr)
        return self._type_range(expr)

    # ------------------------------------------------------------------ #
    def condition_truth(self, expr: Expr, env: RangeEnvironment) -> IntRange:
        """Truth interval of *expr*: [1,1] true, [0,0] false, [0,1] unknown."""
        if isinstance(expr, UnaryOp) and expr.op == "!":
            inner = self.condition_truth(expr.operand, env)
            if inner == TRUE_RANGE:
                return FALSE_RANGE
            if inner == FALSE_RANGE:
                return TRUE_RANGE
            return UNKNOWN_RANGE
        if isinstance(expr, BinaryOp):
            if expr.op == "&&":
                left = self.condition_truth(expr.left, env)
                right = self.condition_truth(expr.right, env)
                if left == FALSE_RANGE or right == FALSE_RANGE:
                    return FALSE_RANGE
                if left == TRUE_RANGE and right == TRUE_RANGE:
                    return TRUE_RANGE
                return UNKNOWN_RANGE
            if expr.op == "||":
                left = self.condition_truth(expr.left, env)
                right = self.condition_truth(expr.right, env)
                if left == TRUE_RANGE or right == TRUE_RANGE:
                    return TRUE_RANGE
                if left == FALSE_RANGE and right == FALSE_RANGE:
                    return FALSE_RANGE
                return UNKNOWN_RANGE
            if expr.op in ("<", "<=", ">", ">=", "==", "!="):
                left = self.evaluate(expr.left, env)
                right = self.evaluate(expr.right, env)
                return _compare(expr.op, left, right)
        interval = self.evaluate(expr, env)
        if interval.lo > 0 or interval.hi < 0:
            return TRUE_RANGE
        if interval == FALSE_RANGE:
            return FALSE_RANGE
        return UNKNOWN_RANGE

    def refine(
        self, expr: Expr, want_true: bool, env: RangeEnvironment
    ) -> RangeEnvironment | None:
        """Environment narrowed by assuming *expr* is *want_true*.

        Returns ``None`` when the assumption is contradictory (the
        corresponding edge is infeasible).  Never mutates *env*.
        """
        if isinstance(expr, UnaryOp) and expr.op == "!":
            return self.refine(expr.operand, not want_true, env)
        if isinstance(expr, BinaryOp):
            conjunctive = (expr.op == "&&") is want_true
            if expr.op in ("&&", "||"):
                if conjunctive:
                    refined = self.refine(expr.left, want_true, env)
                    if refined is None:
                        return None
                    return self.refine(expr.right, want_true, refined)
                left = self.refine(expr.left, want_true, env)
                right = self.refine(expr.right, want_true, env)
                if left is None:
                    return right
                if right is None:
                    return left
                return _join_envs(left, right)
            if expr.op in _NEGATED_OP:
                op = expr.op if want_true else _NEGATED_OP[expr.op]
                return self._refine_relational(op, expr.left, expr.right, env)
        if isinstance(expr, Identifier):
            interval = self.evaluate(expr, env)
            if want_true:
                narrowed = _exclude_zero(interval)
                if narrowed is None:
                    return None
                refined = env.copy()
                refined.ranges[expr.name] = narrowed
                return refined
            if 0 not in interval:
                return None
            refined = env.copy()
            refined.ranges[expr.name] = FALSE_RANGE
            return refined
        truth = self.condition_truth(expr, env)
        if want_true and truth == FALSE_RANGE:
            return None
        if not want_true and truth == TRUE_RANGE:
            return None
        return env.copy()

    def _refine_relational(
        self, op: str, left: Expr, right: Expr, env: RangeEnvironment
    ) -> RangeEnvironment | None:
        left_iv = self.evaluate(left, env)
        right_iv = self.evaluate(right, env)
        if _compare(op, left_iv, right_iv) == FALSE_RANGE:
            return None
        refined = env.copy()
        new_left = _narrow_left(op, left_iv, right_iv)
        new_right = _narrow_left(_flip(op), right_iv, left_iv)
        if new_left is None or new_right is None:
            return None
        if isinstance(left, Identifier):
            refined.ranges[left.name] = new_left
        if isinstance(right, Identifier):
            refined.ranges[right.name] = new_right
        return refined

    # ------------------------------------------------------------------ #
    def _evaluate_unary(self, expr: UnaryOp, env: RangeEnvironment) -> IntRange:
        operand = self.evaluate(expr.operand, env)
        if expr.op == "+":
            return operand
        if expr.op == "!":
            truth = self.condition_truth(expr.operand, env)
            if truth == TRUE_RANGE:
                return FALSE_RANGE
            if truth == FALSE_RANGE:
                return TRUE_RANGE
            return UNKNOWN_RANGE
        if expr.op == "-":
            return self._wrap(expr, -operand.hi, -operand.lo)
        if expr.op == "~":
            return self._wrap(expr, ~operand.hi, ~operand.lo)
        return self._type_range(expr)

    def _evaluate_binary(self, expr: BinaryOp, env: RangeEnvironment) -> IntRange:
        if expr.op in RELATIONAL_OPERATORS:
            return self.condition_truth(expr, env)
        left = self.evaluate(expr.left, env)
        right = self.evaluate(expr.right, env)
        if expr.op in ("+", "-", "*"):
            candidates = [
                apply_binary(expr.op, a, b)
                for a in (left.lo, left.hi)
                for b in (right.lo, right.hi)
            ]
            return self._wrap(expr, min(candidates), max(candidates))
        if expr.op in ("/", "%"):
            if right.lo <= 0 <= right.hi:
                self._record(
                    EvalEvent(
                        kind="div_zero",
                        node_id=expr.node_id,
                        line=_line_of(expr),
                        op=expr.op,
                        definite=right == FALSE_RANGE,
                    )
                )
                return self._type_range(expr)
            if expr.op == "/":
                candidates = [
                    apply_binary("/", a, b)
                    for a in (left.lo, left.hi)
                    for b in (right.lo, right.hi)
                ]
                return self._wrap(expr, min(candidates), max(candidates))
            magnitude = max(abs(right.lo), abs(right.hi)) - 1
            lo = -magnitude if left.lo < 0 else 0
            return self._wrap(expr, lo, magnitude, record_overflow=False)
        if expr.op == "&" and left.lo >= 0 and right.lo >= 0:
            return self._wrap(
                expr, 0, min(left.hi, right.hi), record_overflow=False
            )
        if expr.op in ("|", "^") and left.lo >= 0 and right.lo >= 0:
            bits = max(left.hi, right.hi).bit_length()
            return self._wrap(expr, 0, (1 << bits) - 1, record_overflow=False)
        return self._type_range(expr)

    def _wrap(
        self, expr: Expr, lo: int, hi: int, record_overflow: bool = True
    ) -> IntRange:
        """Raw interval if it fits the expression type, else the type range."""
        type_range = self._type_range(expr)
        if lo >= type_range.lo and hi <= type_range.hi:
            return IntRange(lo, hi)
        if (
            record_overflow
            and expr.ctype is not None
            and expr.ctype.signed
            and not expr.ctype.is_void
        ):
            self._record(
                EvalEvent(
                    kind="overflow",
                    node_id=expr.node_id,
                    line=_line_of(expr),
                    op=getattr(expr, "op", "?"),
                )
            )
        return type_range

    def _type_range(self, expr: Expr) -> IntRange:
        if expr.ctype is not None and not expr.ctype.is_void:
            return expr.ctype.value_range()
        return IntRange(-(2 ** 15), 2 ** 15 - 1)

    def _record(self, event: EvalEvent) -> None:
        if self.recorder is not None:
            self.recorder(event)


def _compare(op: str, left: IntRange, right: IntRange) -> IntRange:
    """Truth interval of ``left <op> right`` over raw operand intervals."""
    if op == "<":
        if left.hi < right.lo:
            return TRUE_RANGE
        if left.lo >= right.hi:
            return FALSE_RANGE
    elif op == "<=":
        if left.hi <= right.lo:
            return TRUE_RANGE
        if left.lo > right.hi:
            return FALSE_RANGE
    elif op == ">":
        if left.lo > right.hi:
            return TRUE_RANGE
        if left.hi <= right.lo:
            return FALSE_RANGE
    elif op == ">=":
        if left.lo >= right.hi:
            return TRUE_RANGE
        if left.hi < right.lo:
            return FALSE_RANGE
    elif op == "==":
        if left == right and left.lo == left.hi:
            return TRUE_RANGE
        if left.intersect(right) is None:
            return FALSE_RANGE
    elif op == "!=":
        if left == right and left.lo == left.hi:
            return FALSE_RANGE
        if left.intersect(right) is None:
            return TRUE_RANGE
    return UNKNOWN_RANGE


def _flip(op: str) -> str:
    """Mirror a relational operator (``a op b`` == ``b flip(op) a``)."""
    return {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "==": "==", "!=": "!="}[op]


def _narrow_left(op: str, left: IntRange, right: IntRange) -> IntRange | None:
    """Values of *left* compatible with ``left <op> right`` holding."""
    if op == "<":
        hi = min(left.hi, right.hi - 1)
        return IntRange(left.lo, hi) if left.lo <= hi else None
    if op == "<=":
        hi = min(left.hi, right.hi)
        return IntRange(left.lo, hi) if left.lo <= hi else None
    if op == ">":
        lo = max(left.lo, right.lo + 1)
        return IntRange(lo, left.hi) if lo <= left.hi else None
    if op == ">=":
        lo = max(left.lo, right.lo)
        return IntRange(lo, left.hi) if lo <= left.hi else None
    if op == "==":
        return left.intersect(right)
    if op == "!=":
        if right.lo == right.hi:
            if left.lo == left.hi == right.lo:
                return None
            if left.lo == right.lo:
                return IntRange(left.lo + 1, left.hi)
            if left.hi == right.lo:
                return IntRange(left.lo, left.hi - 1)
        return left
    return left


def _exclude_zero(interval: IntRange) -> IntRange | None:
    if interval == FALSE_RANGE:
        return None
    if interval.lo == 0:
        return IntRange(1, interval.hi)
    if interval.hi == 0:
        return IntRange(interval.lo, -1)
    return interval


def _join_envs(left: RangeEnvironment, right: RangeEnvironment) -> RangeEnvironment:
    joined: dict[str, IntRange] = dict(left.ranges)
    for name, interval in right.ranges.items():
        mine = joined.get(name)
        joined[name] = interval if mine is None else mine.union(interval)
    return RangeEnvironment(ranges=joined)


class FeasibilityAnalyzer:
    """Forward interval propagation along *feasible* edges only.

    *defined* names the functions whose calls run a body (and so may write
    any global); *initialised* starts non-input globals at their static
    initialisers instead of any value (see the module docstring).
    """

    def __init__(
        self,
        cfg: ControlFlowGraph,
        table: FunctionSymbolTable,
        defined: frozenset[str],
        initialised: bool,
    ):
        self._cfg = cfg
        self._table = table
        self._defined = defined
        self._initialised = initialised
        #: declared (pragma) range or type range; the any-value entry
        self._defaults = variable_defaults(table)
        #: widening / havoc target: always the full type range (assignments
        #: and callee writes may leave a declared input range)
        self._type_ranges = {
            name: symbol.ctype.value_range()
            for name, symbol in table.variables.items()
            if not symbol.ctype.is_void
        }
        self._globals = tuple(
            name
            for name, symbol in table.variables.items()
            if symbol.kind is SymbolKind.GLOBAL and not symbol.ctype.is_void
        )
        self._evaluator = SoundEvaluator(self._type_ranges)
        self._events: list[EvalEvent] = []
        self._seen_events: set[tuple[str, int]] = set()
        self._constant_branches: list[ConstantBranch] = []
        #: hull of every value stored into each variable; collected by the
        #: final pass only (``None`` while iterating)
        self._stored: dict[str, IntRange] | None = None

    # ------------------------------------------------------------------ #
    def run(self) -> FeasibilityResult:
        entry_env: dict[int, RangeEnvironment] = {
            self._cfg.entry.block_id: self._entry_environment()
        }
        names = set(self._defaults)
        update_counts: dict[tuple[int, str], int] = {}
        worklist = deque([self._cfg.entry.block_id])
        pending = {self._cfg.entry.block_id}
        out_env: dict[int, RangeEnvironment] = {}
        iterations = 0
        while worklist:
            iterations += 1
            if iterations > 50 * max(1, len(self._cfg)):
                break  # widening guarantees this is unreachable, but be safe
            block_id = worklist.popleft()
            pending.discard(block_id)
            env_in = entry_env.get(block_id)
            if env_in is None:
                continue
            block = self._cfg.block(block_id)
            env_out = self._transfer(block, env_in.copy())
            if block_id in out_env and out_env[block_id] == env_out:
                continue
            out_env[block_id] = env_out
            for edge, env_edge in self._edge_envs(block, env_out):
                if env_edge is None:
                    continue
                successor = edge.target
                if successor in entry_env:
                    joined = entry_env[successor].join(env_edge, names, self._defaults)
                    joined = self._widen(
                        successor, entry_env[successor], joined, update_counts
                    )
                    if joined == entry_env[successor]:
                        continue
                    entry_env[successor] = joined
                else:
                    entry_env[successor] = env_edge.copy()
                if successor not in pending:
                    pending.add(successor)
                    worklist.append(successor)

        # final sound pass: environments are at their largest now, so any edge
        # still contradictory is contradictory for every execution; this pass
        # also records the diagnostic events (div-by-zero, overflow, constant
        # branches) and the stored-value hulls against the *final*
        # environments only.
        self._evaluator.recorder = self._note_event
        self._stored = {}
        infeasible: set[tuple[int, int, str]] = set()
        for block_id, env_in in entry_env.items():
            block = self._cfg.block(block_id)
            env_out = self._transfer(block, env_in.copy(), recording=True)
            for edge, env_edge in self._edge_envs(block, env_out, recording=True):
                if env_edge is None:
                    infeasible.add((edge.source, edge.target, edge.kind.value))
        self._evaluator.recorder = None
        state_ranges = self._state_ranges(self._stored)
        self._stored = None

        reachable = frozenset(entry_env)
        unreachable = frozenset(
            block.block_id
            for block in self._cfg.real_blocks()
            if block.block_id not in reachable
        )
        return FeasibilityResult(
            reachable=reachable,
            unreachable_blocks=unreachable,
            infeasible_edges=frozenset(infeasible),
            block_entry=entry_env,
            state_ranges=state_ranges,
            constant_branches=tuple(self._constant_branches),
            events=tuple(self._events),
        )

    def _entry_environment(self) -> RangeEnvironment:
        ranges = dict(self._defaults)
        if self._initialised:
            for name in self._globals:
                if self._table.variables[name].is_input:
                    continue
                # the frontend rejects a global whose initialiser does not fold
                value = initial_value(self._table.variables[name].decl)
                ranges[name] = IntRange(value, value)
        return RangeEnvironment(ranges=ranges)

    # ------------------------------------------------------------------ #
    def _state_ranges(self, stored: dict[str, IntRange]) -> dict[str, IntRange]:
        """Per-variable domain used to size the model's state variables.

        * analysis inputs keep their declared (pragma) range or type range;
        * variables that may be read before being written (live at function
          entry) keep their default range too -- their uninitialised value is
          part of the state space;
        * every other variable gets the hull of the values it is stored (plus
          its initial value), which is exactly the information the
          paper's variable range analysis feeds back into the model.
        """
        entry_successors = self._cfg.successors(self._cfg.entry)
        live_at_entry: frozenset[str] = frozenset()
        if entry_successors:
            live_at_entry = block_liveness(self._cfg).live_in.get(
                entry_successors[0].block_id, frozenset()
            )

        ranges: dict[str, IntRange] = {}
        for name, default in self._defaults.items():
            if self._table.variables[name].is_input or name in live_at_entry:
                ranges[name] = default
                continue
            hull = stored.get(name)
            value = initial_value(self._table.variables[name].decl)
            if value is not None:
                initial = IntRange(value, value)
                hull = initial if hull is None else hull.union(initial)
            if hull is None:
                # never stored and never read before written: one value is
                # enough to represent it
                hull = IntRange(0, 0)
            clamped = hull.intersect(default)
            ranges[name] = clamped if clamped is not None else default
        return ranges

    def _note_event(self, event: EvalEvent) -> None:
        key = (event.kind, event.node_id)
        if key in self._seen_events:
            return
        self._seen_events.add(key)
        self._events.append(event)

    def _widen(
        self,
        block_id: int,
        old: RangeEnvironment,
        new: RangeEnvironment,
        counts: dict[tuple[int, str], int],
    ) -> RangeEnvironment:
        widened = dict(new.ranges)
        for name, new_range in new.ranges.items():
            old_range = old.ranges.get(name, self._defaults.get(name, new_range))
            if new_range != old_range:
                key = (block_id, name)
                counts[key] = counts.get(key, 0) + 1
                if counts[key] > _WIDENING_THRESHOLD:
                    widened[name] = self._type_ranges.get(name, new_range)
        return RangeEnvironment(ranges=widened)

    # ------------------------------------------------------------------ #
    # transfer functions
    # ------------------------------------------------------------------ #
    def _transfer(
        self, block: BasicBlock, env: RangeEnvironment, recording: bool = False
    ) -> RangeEnvironment:
        for stmt in block.statements:
            self._transfer_stmt(stmt, env, recording)
        return env

    def _transfer_stmt(
        self, stmt: Stmt, env: RangeEnvironment, recording: bool
    ) -> None:
        if isinstance(stmt, DeclStmt):
            if stmt.init is None:
                # uninitialised declaration: junk value, full type range
                fallback = self._type_ranges.get(stmt.name)
                if fallback is not None:
                    env.ranges[stmt.name] = fallback
                return
            calls = _calls_defined(stmt.init, self._defined)
            if calls:
                self._havoc_globals(env)
            value = self._evaluator.evaluate(stmt.init, env)
            env.ranges[stmt.name] = self._store(stmt.name, value)
            if calls:
                self._havoc_globals(env)
            return
        if isinstance(stmt, ExprStmt):
            calls = _calls_defined(stmt.expr, self._defined)
            if calls:
                self._havoc_globals(env)
            self._transfer_expr(stmt.expr, env)
            if calls:
                self._havoc_globals(env)
            return
        if isinstance(stmt, ReturnStmt) and stmt.value is not None:
            calls = _calls_defined(stmt.value, self._defined)
            if calls:
                self._havoc_globals(env)
            if recording:
                self._evaluator.evaluate(stmt.value, env)
            if calls:
                self._havoc_globals(env)

    def _transfer_expr(self, expr: Expr, env: RangeEnvironment) -> None:
        if isinstance(expr, AssignExpr):
            self._transfer_expr(expr.value, env)
            value = self._evaluator.evaluate(expr.value, env)
            env.ranges[expr.target.name] = self._store(expr.target.name, value)
            return
        for child in expr.children():
            if isinstance(child, Expr):
                self._transfer_expr(child, env)
        if not isinstance(expr, (Identifier, IntLiteral, BoolLiteral)):
            # evaluate non-trivial reads so the recorder (final pass) sees
            # division/overflow sites outside assignment values too
            if self._evaluator.recorder is not None:
                self._evaluator.evaluate(expr, env)

    def _store(self, name: str, value: IntRange) -> IntRange:
        """Value interval after storing into *name* (wraps at its type)."""
        limit = self._type_ranges.get(name)
        if limit is not None and not (limit.lo <= value.lo and value.hi <= limit.hi):
            value = limit
        if self._stored is not None:
            known = self._stored.get(name)
            self._stored[name] = value if known is None else known.union(value)
        return value

    def _havoc_globals(self, env: RangeEnvironment) -> None:
        """A defined callee may write any global: widen them all to their
        type range."""
        for name in self._globals:
            env.ranges[name] = self._store(name, self._type_ranges[name])

    # ------------------------------------------------------------------ #
    # edge feasibility
    # ------------------------------------------------------------------ #
    def _edge_envs(
        self, block: BasicBlock, env_out: RangeEnvironment, recording: bool = False
    ) -> list[tuple[Edge, RangeEnvironment | None]]:
        edges = self._cfg.out_edges(block)
        terminator = block.terminator
        condition = terminator.condition
        if condition is None or terminator.kind not in (
            TerminatorKind.BRANCH,
            TerminatorKind.SWITCH,
        ):
            return [(edge, env_out.copy()) for edge in edges]

        if has_calls(condition) or assigned_variables(condition):
            # side-effecting condition: no refinement, havoc its effects
            havoced = env_out.copy()
            for name in assigned_variables(condition):
                fallback = self._type_ranges.get(name)
                if fallback is not None:
                    havoced.ranges[name] = self._store(name, fallback)
            if _calls_defined(condition, self._defined):
                self._havoc_globals(havoced)
            return [(edge, havoced.copy()) for edge in edges]

        if recording:
            self._evaluator.evaluate(condition, env_out)

        if terminator.kind is TerminatorKind.BRANCH:
            truth = self._evaluator.condition_truth(condition, env_out)
            if recording and truth in (TRUE_RANGE, FALSE_RANGE):
                self._constant_branches.append(
                    ConstantBranch(
                        block_id=block.block_id,
                        line=_line_of(condition),
                        value=truth == TRUE_RANGE,
                    )
                )
            result: list[tuple[Edge, RangeEnvironment | None]] = []
            for edge in edges:
                if edge.kind is EdgeKind.TRUE:
                    if truth == FALSE_RANGE:
                        result.append((edge, None))
                    else:
                        result.append(
                            (edge, self._evaluator.refine(condition, True, env_out))
                        )
                elif edge.kind is EdgeKind.FALSE:
                    if truth == TRUE_RANGE:
                        result.append((edge, None))
                    else:
                        result.append(
                            (edge, self._evaluator.refine(condition, False, env_out))
                        )
                else:
                    result.append((edge, env_out.copy()))
            return result

        # SWITCH
        selector = self._evaluator.evaluate(condition, env_out)
        all_case_values: set[int] = set()
        for edge in edges:
            if edge.kind is EdgeKind.CASE:
                all_case_values.update(edge.case_values)
        result = []
        for edge in edges:
            if edge.kind is EdgeKind.CASE:
                surviving = [v for v in edge.case_values if v in selector]
                if not surviving:
                    result.append((edge, None))
                    continue
                refined = env_out.copy()
                if isinstance(condition, Identifier):
                    refined.ranges[condition.name] = IntRange(
                        min(surviving), max(surviving)
                    )
                result.append((edge, refined))
            elif edge.kind is EdgeKind.DEFAULT:
                if selector.size() <= _DEFAULT_ENUM_LIMIT and all(
                    value in all_case_values
                    for value in range(selector.lo, selector.hi + 1)
                ):
                    result.append((edge, None))
                else:
                    result.append((edge, env_out.copy()))
            else:
                result.append((edge, env_out.copy()))
        return result


def analyze_feasibility(
    cfg: ControlFlowGraph,
    table: FunctionSymbolTable,
    defined: frozenset[str],
    *,
    initialised: bool,
) -> FeasibilityResult:
    """Run the sound feasibility analysis on *cfg*.

    *defined* is :func:`defined_functions` of the unit; *initialised* picks
    the entry rule (initialisers for the prefilter and initialised models,
    any value for models that leave variables uninitialised).
    """
    perf.add("sa.fixpoints")
    return FeasibilityAnalyzer(cfg, table, defined, initialised).run()


class StaticPrefilter:
    """Answers "is this goal statically unreachable?" for the query engine.

    Plugged into :class:`repro.mc.query.QueryEngineOptions` (duck-typed — the
    mc layer never imports sa).  A ``True`` answer is a *proof*: the target
    blocks can never execute or a required edge can never be taken when the
    board runs the function from its initialised globals, so the model
    checker on an initialised model would necessarily report
    ``UNREACHABLE``.  Build it from the initialised entry
    (``initialised=True``).
    """

    def __init__(self, feasibility: FeasibilityResult):
        #: the fixpoint the answers come from; the cfg-preserving model
        #: reads its state ranges instead of running it again
        self.feasibility = feasibility
        self._unreachable = set(feasibility.unreachable_blocks)
        self._infeasible_edges = set(feasibility.infeasible_edges)

    @property
    def unreachable_blocks(self) -> frozenset[int]:
        return frozenset(self._unreachable)

    @property
    def infeasible_edges(self) -> frozenset[tuple[int, int, str]]:
        return frozenset(self._infeasible_edges)

    def path_is_infeasible(
        self,
        blocks: Iterable[int],
        edges: Iterable[tuple[int, int, str]],
    ) -> bool:
        """True when no execution can follow a path through *blocks* and *edges*.

        The path is proved infeasible when one of its blocks is unreachable,
        or one of its edges is infeasible or has an unreachable endpoint.
        Edges are ``(source, target, kind value)`` triples as in
        :class:`repro.testgen.targets.PathTarget`.
        """
        unreachable = self._unreachable
        if any(block in unreachable for block in blocks):
            return True
        return any(
            edge in self._infeasible_edges
            or edge[0] in unreachable
            or edge[1] in unreachable
            for edge in edges
        )

    def goal_is_unreachable(self, goal, location_block) -> bool:
        from ..mc.slicing import parse_label

        # ordered labels: every one must be takeable for the goal to hold
        blocks: list[int] = []
        edges: list[tuple[int, int, str]] = []
        for label in goal.ordered_labels:
            parsed = parse_label(label)
            if parsed is None:
                continue
            if parsed[0] == "block":
                blocks.append(parsed[1])
            else:
                edges.append(parsed[1:])
        if self.path_is_infeasible(blocks, edges):
            return True

        # target disjuncts: *all* of them must be provably unreachable
        disjuncts: list[bool] = []
        provable = True
        for label in goal.target_labels:
            parsed = parse_label(label)
            if parsed is None:
                provable = False
                break
            if parsed[0] == "block":
                disjuncts.append(parsed[1] in self._unreachable)
            else:
                _, source, target, kind = parsed
                disjuncts.append(
                    (source, target, kind) in self._infeasible_edges
                    or source in self._unreachable
                    or target in self._unreachable
                )
        if provable:
            for location in goal.target_locations:
                block_id = location_block.get(location)
                if block_id is None:
                    provable = False
                    break
                disjuncts.append(block_id in self._unreachable)
        if provable and disjuncts and all(disjuncts):
            return True
        return False
