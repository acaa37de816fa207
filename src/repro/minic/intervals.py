"""The one interval domain of mini-C expressions: wrap-aware and sound.

:class:`SoundEvaluator` maps an expression and a :class:`RangeEnvironment`
(variable -> interval) to an interval that holds every value the board can
compute for it.  Every arithmetic result is checked against the expression's
fixed-width type and widened to the full type range whenever two's-complement
wrap-around is possible, mirroring how the board
(:mod:`repro.hw.compiler`) wraps each subexpression; a cast keeps its
operand's interval only when the target type holds all of it.  Comparisons
give truth intervals (:data:`TRUE_RANGE`, :data:`FALSE_RANGE`,
:data:`UNKNOWN_RANGE`), and :meth:`SoundEvaluator.refine` narrows an
environment by a branch condition.

Two consumers share it: :mod:`repro.sa.feasibility` runs it over CFGs (its
fixpoint also sizes the model checker's state variables), and the solver's
:class:`~repro.solver.constraints.Constraint` filters and propagates with it.
The concrete side is :func:`repro.solver.expression.concrete_eval`, which
wraps like the board, so each interval here encloses its value.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .ast_nodes import (
    AssignExpr,
    BinaryOp,
    BoolLiteral,
    CallExpr,
    CastExpr,
    Conditional,
    Expr,
    Identifier,
    IntLiteral,
    UnaryOp,
    RELATIONAL_OPERATORS,
)
from .folding import apply_binary
from .types import IntRange

TRUE_RANGE = IntRange(1, 1)
FALSE_RANGE = IntRange(0, 0)
UNKNOWN_RANGE = IntRange(0, 1)

_NEGATED_OP = {
    "<": ">=",
    "<=": ">",
    ">": "<=",
    ">=": "<",
    "==": "!=",
    "!=": "==",
}


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

