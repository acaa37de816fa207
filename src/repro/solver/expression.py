"""Expression evaluation over concrete assignments, and substitution.

The constraint solver manipulates mini-C expressions directly (no separate
constraint language): this module provides

* :func:`concrete_eval` -- evaluate an expression under a complete integer
  assignment, wrapping each result as the board does, and
* :func:`substitute` -- replace variables by expressions/constants (used by
  the symbolic model-checking engine to express everything in terms of the
  initial state).

Interval evaluation under partial assignments (constraint filtering and
bounds propagation) is :class:`repro.minic.intervals.SoundEvaluator`, the
interval domain :mod:`repro.sa` runs too; its intervals enclose the values
:func:`concrete_eval` computes.
"""

from __future__ import annotations

from ..minic.ast_nodes import (
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
)
from ..minic.folding import apply_binary, apply_unary, fold_expr
from ..minic.types import BOOL, INT16, CType


class EvaluationError(Exception):
    """Raised when an expression cannot be evaluated (unbound variable, ...)."""


# --------------------------------------------------------------------------- #
# concrete evaluation
# --------------------------------------------------------------------------- #
def concrete_eval(expr: Expr, assignment: dict[str, int]) -> int:
    """Evaluate *expr* under a complete assignment, with the board's semantics.

    Each unary, binary and assignment result wraps at its type (Int16 for an
    untyped or void expression) and each cast at its target type, as
    :mod:`repro.hw.compiler` wraps them; a call reads 0.
    """
    if isinstance(expr, IntLiteral):
        return expr.value
    if isinstance(expr, BoolLiteral):
        return int(expr.value)
    if isinstance(expr, Identifier):
        if expr.name not in assignment:
            raise EvaluationError(f"unbound variable {expr.name!r}")
        return assignment[expr.name]
    if isinstance(expr, UnaryOp):
        return _wrap(expr.ctype, apply_unary(expr.op, concrete_eval(expr.operand, assignment)))
    if isinstance(expr, BinaryOp):
        if expr.op == "&&":
            if concrete_eval(expr.left, assignment) == 0:
                return 0
            return int(concrete_eval(expr.right, assignment) != 0)
        if expr.op == "||":
            if concrete_eval(expr.left, assignment) != 0:
                return 1
            return int(concrete_eval(expr.right, assignment) != 0)
        try:
            return _wrap(expr.ctype, apply_binary(
                expr.op,
                concrete_eval(expr.left, assignment),
                concrete_eval(expr.right, assignment),
            ))
        except ZeroDivisionError as exc:
            raise EvaluationError("division by zero during evaluation") from exc
    if isinstance(expr, Conditional):
        if concrete_eval(expr.cond, assignment) != 0:
            return concrete_eval(expr.then, assignment)
        return concrete_eval(expr.otherwise, assignment)
    if isinstance(expr, CastExpr):
        return expr.target_type.wrap(concrete_eval(expr.operand, assignment))
    if isinstance(expr, AssignExpr):
        return _wrap(expr.target.ctype or expr.ctype, concrete_eval(expr.value, assignment))
    if isinstance(expr, CallExpr):
        return 0
    raise EvaluationError(f"cannot evaluate {type(expr).__name__}")


def _wrap(ctype: CType | None, value: int) -> int:
    """The board's wrap of an expression result: its type's, Int16 for none or void."""
    if ctype is None or ctype.is_void:
        return INT16.wrap(value)
    return ctype.wrap(value)


# --------------------------------------------------------------------------- #
# substitution
# --------------------------------------------------------------------------- #
def substitute(expr: Expr, environment: dict[str, Expr | int]) -> Expr:
    """Replace variables in *expr* by the expressions/constants of *environment*.

    Missing variables stay symbolic.  The result is constant-folded, which is
    what keeps symbolic execution expressions small for the mostly-constant
    generated code the paper analyses.
    """
    replaced = _substitute(expr, environment)
    return fold_expr(replaced)


def _substitute(expr: Expr, environment: dict[str, Expr | int]) -> Expr:
    if isinstance(expr, Identifier):
        if expr.name in environment:
            value = environment[expr.name]
            if isinstance(value, int):
                ctype = expr.ctype if expr.ctype is not None else INT16
                if ctype.is_bool:
                    return BoolLiteral(value=bool(value), ctype=BOOL, location=expr.location)
                return IntLiteral(value=value, ctype=ctype, location=expr.location)
            return value
        return expr
    if isinstance(expr, (IntLiteral, BoolLiteral)):
        return expr
    if isinstance(expr, UnaryOp):
        return UnaryOp(op=expr.op, operand=_substitute(expr.operand, environment),
                       ctype=expr.ctype, location=expr.location)
    if isinstance(expr, BinaryOp):
        return BinaryOp(
            op=expr.op,
            left=_substitute(expr.left, environment),
            right=_substitute(expr.right, environment),
            ctype=expr.ctype,
            location=expr.location,
        )
    if isinstance(expr, Conditional):
        return Conditional(
            cond=_substitute(expr.cond, environment),
            then=_substitute(expr.then, environment),
            otherwise=_substitute(expr.otherwise, environment),
            ctype=expr.ctype,
            location=expr.location,
        )
    if isinstance(expr, CastExpr):
        return CastExpr(target_type=expr.target_type,
                        operand=_substitute(expr.operand, environment),
                        ctype=expr.ctype, location=expr.location)
    if isinstance(expr, AssignExpr):
        return _substitute(expr.value, environment)
    if isinstance(expr, CallExpr):
        return IntLiteral(value=0, ctype=INT16, location=expr.location)
    return expr


def expression_node_count(expr: Expr) -> int:
    """Number of nodes of *expr* -- the solver's memory proxy for constraints."""
    return 1 + sum(
        expression_node_count(child) for child in expr.children() if isinstance(child, Expr)
    )
