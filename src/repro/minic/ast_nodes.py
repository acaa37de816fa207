"""Abstract syntax tree node classes for mini-C.

The AST is deliberately small and fully structured (no ``goto``): every node
is a dataclass, expressions and statements are separate hierarchies, and every
node records the :class:`~repro.minic.errors.SourceLocation` of its first
token.  The partitioning algorithm of the paper traverses the CFG "following
the abstract syntax tree", so CFG basic blocks keep back-references to the
statements they were built from.

Node overview
-------------

Expressions
    :class:`IntLiteral`, :class:`BoolLiteral`, :class:`Identifier`,
    :class:`UnaryOp`, :class:`BinaryOp`, :class:`Conditional`,
    :class:`CallExpr`, :class:`CastExpr`, :class:`AssignExpr`

Statements
    :class:`DeclStmt`, :class:`ExprStmt`, :class:`CompoundStmt`,
    :class:`IfStmt`, :class:`SwitchStmt` / :class:`SwitchCase`,
    :class:`WhileStmt`, :class:`DoWhileStmt`, :class:`ForStmt`,
    :class:`BreakStmt`, :class:`ContinueStmt`, :class:`ReturnStmt`,
    :class:`EmptyStmt`

Top level
    :class:`Parameter`, :class:`FunctionDef`, :class:`Program`
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator

from .errors import SourceLocation
from .types import CType, IntRange

_node_counter = itertools.count(1)


def _next_node_id() -> int:
    return next(_node_counter)


@dataclass
class Node:
    """Base class of every AST node.

    Each node receives a process-wide unique ``node_id`` which the CFG
    builder, the partitioner and the instrumenter use as a stable key.
    """

    location: SourceLocation = field(default_factory=SourceLocation, kw_only=True)
    node_id: int = field(default_factory=_next_node_id, kw_only=True, compare=False)

    def children(self) -> Iterator["Node"]:
        """Yield the direct child nodes (override in subclasses)."""
        return iter(())

    def walk(self) -> Iterator["Node"]:
        """Yield this node and all descendants in pre-order.

        An explicit stack of child iterators instead of nested generators,
        so yielding a node costs the same at any depth.
        """
        yield self
        stack = [self.children()]
        push, pop = stack.append, stack.pop
        while stack:
            for node in stack[-1]:
                yield node
                push(node.children())
                break
            else:
                pop()


# --------------------------------------------------------------------------- #
# Expressions
# --------------------------------------------------------------------------- #
@dataclass
class Expr(Node):
    """Base class of expressions.

    ``ctype`` is filled in by semantic analysis
    (:mod:`repro.minic.semantic`); before that it is ``None``.
    """

    ctype: CType | None = field(default=None, kw_only=True, compare=False)


@dataclass
class IntLiteral(Expr):
    value: int = 0

    def __str__(self) -> str:
        return str(self.value)


@dataclass
class BoolLiteral(Expr):
    value: bool = False

    def __str__(self) -> str:
        return "true" if self.value else "false"


@dataclass
class Identifier(Expr):
    name: str = ""

    def __str__(self) -> str:
        return self.name


#: Unary operators accepted by the parser.
UNARY_OPERATORS = ("-", "+", "!", "~")

#: Binary operators in increasing precedence groups (used by the parser).
BINARY_PRECEDENCE: dict[str, int] = {
    "||": 1,
    "&&": 2,
    "|": 3,
    "^": 4,
    "&": 5,
    "==": 6,
    "!=": 6,
    "<": 7,
    "<=": 7,
    ">": 7,
    ">=": 7,
    "<<": 8,
    ">>": 8,
    "+": 9,
    "-": 9,
    "*": 10,
    "/": 10,
    "%": 10,
}

#: Operators whose result is boolean (0/1).
RELATIONAL_OPERATORS = frozenset({"==", "!=", "<", "<=", ">", ">=", "&&", "||"})


@dataclass
class UnaryOp(Expr):
    op: str = "-"
    operand: Expr = None  # type: ignore[assignment]

    def children(self) -> Iterator[Node]:
        yield self.operand

    def __str__(self) -> str:
        return f"({self.op}{self.operand})"


@dataclass
class BinaryOp(Expr):
    op: str = "+"
    left: Expr = None  # type: ignore[assignment]
    right: Expr = None  # type: ignore[assignment]

    def children(self) -> Iterator[Node]:
        yield self.left
        yield self.right

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass
class Conditional(Expr):
    """The C ternary operator ``cond ? then : otherwise``."""

    cond: Expr = None  # type: ignore[assignment]
    then: Expr = None  # type: ignore[assignment]
    otherwise: Expr = None  # type: ignore[assignment]

    def children(self) -> Iterator[Node]:
        yield self.cond
        yield self.then
        yield self.otherwise

    def __str__(self) -> str:
        return f"({self.cond} ? {self.then} : {self.otherwise})"


@dataclass
class CallExpr(Expr):
    """A call to a named function (``printf3()``, ``min(a, b)``)."""

    name: str = ""
    args: list[Expr] = field(default_factory=list)

    def children(self) -> Iterator[Node]:
        yield from self.args

    def __str__(self) -> str:
        return f"{self.name}({', '.join(str(a) for a in self.args)})"


@dataclass
class CastExpr(Expr):
    target_type: CType = None  # type: ignore[assignment]
    operand: Expr = None  # type: ignore[assignment]

    def children(self) -> Iterator[Node]:
        yield self.operand

    def __str__(self) -> str:
        return f"(({self.target_type}){self.operand})"


@dataclass
class AssignExpr(Expr):
    """An assignment ``target = value``.

    Compound assignments (``+=`` etc.) and increments are desugared by the
    parser into plain assignments so every later stage only sees ``=``.
    """

    target: Identifier = None  # type: ignore[assignment]
    value: Expr = None  # type: ignore[assignment]

    def children(self) -> Iterator[Node]:
        yield self.target
        yield self.value

    def __str__(self) -> str:
        return f"{self.target} = {self.value}"


# --------------------------------------------------------------------------- #
# Statements
# --------------------------------------------------------------------------- #
@dataclass
class Stmt(Node):
    """Base class of statements."""


@dataclass
class DeclStmt(Stmt):
    """A local variable declaration, optionally with an initialiser."""

    name: str = ""
    var_type: CType = None  # type: ignore[assignment]
    init: Expr | None = None

    def children(self) -> Iterator[Node]:
        if self.init is not None:
            yield self.init


@dataclass
class ExprStmt(Stmt):
    """An expression evaluated for effect (assignment or call)."""

    expr: Expr = None  # type: ignore[assignment]

    def children(self) -> Iterator[Node]:
        yield self.expr


@dataclass
class CompoundStmt(Stmt):
    """A ``{ ... }`` block."""

    statements: list[Stmt] = field(default_factory=list)

    def children(self) -> Iterator[Node]:
        yield from self.statements


@dataclass
class IfStmt(Stmt):
    cond: Expr = None  # type: ignore[assignment]
    then_branch: Stmt = None  # type: ignore[assignment]
    else_branch: Stmt | None = None

    def children(self) -> Iterator[Node]:
        yield self.cond
        yield self.then_branch
        if self.else_branch is not None:
            yield self.else_branch


@dataclass
class SwitchCase(Node):
    """One ``case`` (or ``default``) arm of a switch statement.

    ``values`` contains the constant labels of the arm (several ``case``
    labels may share a body); it is empty for the ``default`` arm.  Arms in
    generated automotive code always end in ``break``; the parser enforces
    absence of fall-through so the CFG stays structured.
    """

    values: list[int] = field(default_factory=list)
    body: CompoundStmt = None  # type: ignore[assignment]
    is_default: bool = False

    def children(self) -> Iterator[Node]:
        yield self.body


@dataclass
class SwitchStmt(Stmt):
    expr: Expr = None  # type: ignore[assignment]
    cases: list[SwitchCase] = field(default_factory=list)

    def children(self) -> Iterator[Node]:
        yield self.expr
        yield from self.cases

    @property
    def default_case(self) -> SwitchCase | None:
        for case in self.cases:
            if case.is_default:
                return case
        return None


@dataclass
class WhileStmt(Stmt):
    cond: Expr = None  # type: ignore[assignment]
    body: Stmt = None  # type: ignore[assignment]
    #: Maximum iteration count from a ``#pragma loopbound(n)`` annotation.
    loop_bound: int | None = None

    def children(self) -> Iterator[Node]:
        yield self.cond
        yield self.body


@dataclass
class DoWhileStmt(Stmt):
    body: Stmt = None  # type: ignore[assignment]
    cond: Expr = None  # type: ignore[assignment]
    loop_bound: int | None = None

    def children(self) -> Iterator[Node]:
        yield self.body
        yield self.cond


@dataclass
class ForStmt(Stmt):
    init: Stmt | None = None
    cond: Expr | None = None
    step: Expr | None = None
    body: Stmt = None  # type: ignore[assignment]
    loop_bound: int | None = None

    def children(self) -> Iterator[Node]:
        if self.init is not None:
            yield self.init
        if self.cond is not None:
            yield self.cond
        if self.step is not None:
            yield self.step
        yield self.body


@dataclass
class BreakStmt(Stmt):
    pass


@dataclass
class ContinueStmt(Stmt):
    pass


@dataclass
class ReturnStmt(Stmt):
    value: Expr | None = None

    def children(self) -> Iterator[Node]:
        if self.value is not None:
            yield self.value


@dataclass
class EmptyStmt(Stmt):
    pass


# --------------------------------------------------------------------------- #
# Top level
# --------------------------------------------------------------------------- #
@dataclass
class Parameter(Node):
    name: str = ""
    param_type: CType = None  # type: ignore[assignment]


@dataclass
class FunctionDef(Node):
    name: str = ""
    return_type: CType = None  # type: ignore[assignment]
    params: list[Parameter] = field(default_factory=list)
    body: CompoundStmt = None  # type: ignore[assignment]

    def children(self) -> Iterator[Node]:
        yield from self.params
        yield self.body


@dataclass
class GlobalDecl(Node):
    """A file-scope variable declaration."""

    name: str = ""
    var_type: CType = None  # type: ignore[assignment]
    init: Expr | None = None
    is_input: bool = False
    declared_range: IntRange | None = None

    def children(self) -> Iterator[Node]:
        if self.init is not None:
            yield self.init


@dataclass
class Program(Node):
    """A translation unit: file-scope declarations plus function definitions.

    ``input_variables`` lists the names annotated with ``#pragma input``; they
    are the free variables of the WCET analysis (the test data the hybrid
    generator searches for).  ``range_annotations`` carries
    ``#pragma range x lo hi`` declarations consumed by the variable-range
    optimisation and the input-space model.
    """

    globals: list[GlobalDecl] = field(default_factory=list)
    functions: list[FunctionDef] = field(default_factory=list)
    input_variables: list[str] = field(default_factory=list)
    range_annotations: dict[str, IntRange] = field(default_factory=dict)
    external_functions: list[str] = field(default_factory=list)

    def children(self) -> Iterator[Node]:
        yield from self.globals
        yield from self.functions

    def function(self, name: str) -> FunctionDef:
        """Look up a function definition by name (raises ``KeyError``)."""
        for func in self.functions:
            if func.name == name:
                return func
        raise KeyError(f"no function named {name!r}")

    def global_decl(self, name: str) -> GlobalDecl:
        for decl in self.globals:
            if decl.name == name:
                return decl
        raise KeyError(f"no global named {name!r}")
