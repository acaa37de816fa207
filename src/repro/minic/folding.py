"""Constant folding and expression utilities shared by later stages.

Folding is used by:

* the transition-system translator (smaller guard expressions),
* the solver and sa's loop bounds (literal operands), and
* :func:`initial_value`, the one rule for where a variable starts: the
  frontend rejects a global whose initialiser does not fold, and the board,
  sa and the translator start every global at this value.

Folding never changes observable semantics: arithmetic respects mini-C
wrap-around only when a result type is known, otherwise the fold is skipped.
"""

from __future__ import annotations

from .ast_nodes import (
    AssignExpr,
    BinaryOp,
    BoolLiteral,
    CallExpr,
    CastExpr,
    Conditional,
    DeclStmt,
    Expr,
    GlobalDecl,
    Identifier,
    IntLiteral,
    UnaryOp,
    RELATIONAL_OPERATORS,
)
from .types import BOOL, CType, INT16


def _as_int(expr: Expr) -> int | None:
    if isinstance(expr, IntLiteral):
        return expr.value
    if isinstance(expr, BoolLiteral):
        return int(expr.value)
    return None


def apply_binary(op: str, left: int, right: int) -> int:
    """Apply a mini-C binary operator to Python integers (C semantics).

    Division and modulo truncate toward zero like C; logical operators return
    0/1.  ``ZeroDivisionError`` propagates to the caller, which either reports
    a runtime error (interpreter) or skips the fold.
    """
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        if right == 0:
            raise ZeroDivisionError("division by zero")
        quotient = abs(left) // abs(right)
        return quotient if (left >= 0) == (right >= 0) else -quotient
    if op == "%":
        if right == 0:
            raise ZeroDivisionError("modulo by zero")
        return left - apply_binary("/", left, right) * right
    if op == "<<":
        return left << (right & 31)
    if op == ">>":
        return left >> (right & 31)
    if op == "&":
        return left & right
    if op == "|":
        return left | right
    if op == "^":
        return left ^ right
    if op == "==":
        return int(left == right)
    if op == "!=":
        return int(left != right)
    if op == "<":
        return int(left < right)
    if op == "<=":
        return int(left <= right)
    if op == ">":
        return int(left > right)
    if op == ">=":
        return int(left >= right)
    if op == "&&":
        return int(bool(left) and bool(right))
    if op == "||":
        return int(bool(left) or bool(right))
    raise ValueError(f"unknown binary operator {op!r}")


def apply_unary(op: str, value: int) -> int:
    """Apply a mini-C unary operator."""
    if op == "-":
        return -value
    if op == "+":
        return value
    if op == "!":
        return int(value == 0)
    if op == "~":
        return ~value
    raise ValueError(f"unknown unary operator {op!r}")


def _literal(value: int, ctype: CType | None, template: Expr) -> Expr:
    if ctype is not None and ctype.is_bool:
        return BoolLiteral(value=bool(value), location=template.location, ctype=BOOL)
    result_type = ctype if ctype is not None else INT16
    return IntLiteral(
        value=result_type.wrap(value), location=template.location, ctype=result_type
    )


def fold_expr(expr: Expr) -> Expr:
    """Return a constant-folded copy of *expr* (original left untouched)."""
    if isinstance(expr, (IntLiteral, BoolLiteral, Identifier)):
        return expr
    if isinstance(expr, UnaryOp):
        operand = fold_expr(expr.operand)
        value = _as_int(operand)
        if value is not None:
            try:
                result = apply_unary(expr.op, value)
            except ValueError:
                return UnaryOp(op=expr.op, operand=operand, location=expr.location,
                               ctype=expr.ctype)
            result_type = BOOL if expr.op == "!" else expr.ctype
            return _literal(result, result_type, expr)
        return UnaryOp(op=expr.op, operand=operand, location=expr.location, ctype=expr.ctype)
    if isinstance(expr, BinaryOp):
        left = fold_expr(expr.left)
        right = fold_expr(expr.right)
        lval = _as_int(left)
        rval = _as_int(right)
        if lval is not None and rval is not None:
            try:
                result = apply_binary(expr.op, lval, rval)
            except (ZeroDivisionError, ValueError):
                return BinaryOp(op=expr.op, left=left, right=right,
                                location=expr.location, ctype=expr.ctype)
            result_type = BOOL if expr.op in RELATIONAL_OPERATORS else expr.ctype
            return _literal(result, result_type, expr)
        # algebraic identities that never change semantics
        if expr.op == "&&":
            if lval == 0 or rval == 0:
                return _literal(0, BOOL, expr)
            if lval is not None and lval != 0:
                return _to_bool(right, expr)
        if expr.op == "||":
            if lval is not None and lval != 0:
                return _literal(1, BOOL, expr)
            if rval is not None and rval != 0 and _is_pure(left):
                return _literal(1, BOOL, expr)
            if lval == 0:
                return _to_bool(right, expr)
        if expr.op == "+" and rval == 0:
            return left
        if expr.op == "+" and lval == 0:
            return right
        if expr.op == "-" and rval == 0:
            return left
        if expr.op == "*" and (rval == 1):
            return left
        if expr.op == "*" and (lval == 1):
            return right
        return BinaryOp(op=expr.op, left=left, right=right, location=expr.location,
                        ctype=expr.ctype)
    if isinstance(expr, Conditional):
        cond = fold_expr(expr.cond)
        cval = _as_int(cond)
        if cval is not None:
            return fold_expr(expr.then if cval != 0 else expr.otherwise)
        return Conditional(
            cond=cond, then=fold_expr(expr.then), otherwise=fold_expr(expr.otherwise),
            location=expr.location, ctype=expr.ctype,
        )
    if isinstance(expr, AssignExpr):
        return AssignExpr(
            target=expr.target, value=fold_expr(expr.value),
            location=expr.location, ctype=expr.ctype,
        )
    if isinstance(expr, CastExpr):
        operand = fold_expr(expr.operand)
        value = _as_int(operand)
        if value is not None:
            return _literal(value, expr.target_type, expr)
        return CastExpr(target_type=expr.target_type, operand=operand,
                        location=expr.location, ctype=expr.ctype)
    if isinstance(expr, CallExpr):
        return CallExpr(
            name=expr.name, args=[fold_expr(a) for a in expr.args],
            location=expr.location, ctype=expr.ctype,
        )
    return expr


def initial_value(decl: GlobalDecl | DeclStmt) -> int | None:
    """The value *decl*'s variable starts at: its initialiser folded and
    wrapped at the declared type, the value the same expression gets in a
    function body; 0 without an initialiser, ``None`` when it does not fold.
    """
    if decl.init is None:
        return 0
    value = _as_int(fold_expr(decl.init))
    return None if value is None else decl.var_type.wrap(value)


def _to_bool(expr: Expr, template: Expr) -> Expr:
    """Normalise *expr* to a boolean-valued expression."""
    if isinstance(expr, (BoolLiteral,)):
        return expr
    value = _as_int(expr)
    if value is not None:
        return _literal(int(value != 0), BOOL, template)
    if isinstance(expr, BinaryOp) and expr.op in RELATIONAL_OPERATORS:
        return expr
    return BinaryOp(op="!=", left=expr, right=IntLiteral(value=0, ctype=INT16),
                    location=template.location, ctype=BOOL)


def _is_pure(expr: Expr) -> bool:
    """True when evaluating *expr* has no side effects."""
    if isinstance(expr, (AssignExpr, CallExpr)):
        return False
    return all(_is_pure(child) for child in expr.children()  # type: ignore[arg-type]
               if isinstance(child, Expr))


def expression_variables(expr: Expr) -> set[str]:
    """The set of variable names read by *expr*.

    Assignment targets are *not* counted as reads (the value expression is).
    """
    names: set[str] = set()

    def visit(node: Expr) -> None:
        if isinstance(node, Identifier):
            names.add(node.name)
            return
        if isinstance(node, AssignExpr):
            visit(node.value)
            return
        for child in node.children():
            if isinstance(child, Expr):
                visit(child)

    visit(expr)
    return names


def assigned_variables(expr: Expr) -> set[str]:
    """The set of variable names written by *expr* (nested assignments too)."""
    names: set[str] = set()

    def visit(node: Expr) -> None:
        if isinstance(node, AssignExpr):
            names.add(node.target.name)
            visit(node.value)
            return
        for child in node.children():
            if isinstance(child, Expr):
                visit(child)

    visit(expr)
    return names


def has_calls(expr: Expr) -> bool:
    """True when *expr* contains a function call."""
    if isinstance(expr, CallExpr):
        return True
    return any(has_calls(child) for child in expr.children() if isinstance(child, Expr))


def expression_size(expr: Expr) -> int:
    """Number of AST nodes in *expr* (a proxy for evaluation cost)."""
    return 1 + sum(
        expression_size(child) for child in expr.children() if isinstance(child, Expr)
    )
