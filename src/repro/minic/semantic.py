"""Semantic analysis (name resolution and type checking) for mini-C.

:func:`analyze_program` walks a parsed :class:`~repro.minic.ast_nodes.Program`
and

* resolves every identifier against the symbol tables,
* rejects duplicate declarations, shadowing and uses of undeclared names,
* assigns a :class:`~repro.minic.types.CType` to every expression
  (``expr.ctype``) using simplified C conversion rules,
* checks that conditions are scalar, case labels fit the switch operand type
  and are pairwise distinct, assignments target variables, calls to known
  functions pass the right number of arguments, and every global initialiser
  folds to a constant (:func:`~repro.minic.folding.initial_value`), and
* produces a :class:`~repro.minic.symbols.FunctionSymbolTable` per function,
  which downstream stages (CFG builder, transition-system translator,
  interpreter, test-data generator) use as the authoritative variable list.

Calls to *unknown* functions (``printf1()``) are accepted and treated as
external, side-effect-free-for-data, void functions -- exactly how the paper's
tooling treats library calls whose timing is measured but whose semantics do
not influence the analysed control flow.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .ast_nodes import (
    AssignExpr,
    BinaryOp,
    BoolLiteral,
    BreakStmt,
    CallExpr,
    CastExpr,
    CompoundStmt,
    Conditional,
    ContinueStmt,
    DeclStmt,
    DoWhileStmt,
    EmptyStmt,
    Expr,
    ExprStmt,
    ForStmt,
    FunctionDef,
    Identifier,
    IfStmt,
    IntLiteral,
    Program,
    ReturnStmt,
    Stmt,
    SwitchStmt,
    UnaryOp,
    WhileStmt,
    RELATIONAL_OPERATORS,
)
from .errors import SemanticError
from .folding import initial_value
from .symbols import (
    FunctionSymbolTable,
    Scope,
    Symbol,
    SymbolKind,
    build_global_scope,
)
from .types import BOOL, INT16, VOID, CType, common_type


@dataclass
class AnalyzedProgram:
    """Result of semantic analysis.

    Attributes
    ----------
    program:
        The (mutated in place: ``ctype`` fields filled) AST.
    global_scope:
        File-scope symbol table.
    function_tables:
        Per-function flat symbol tables keyed by function name.
    """

    program: Program
    global_scope: Scope
    function_tables: dict[str, FunctionSymbolTable] = field(default_factory=dict)

    def table(self, name: str) -> FunctionSymbolTable:
        try:
            return self.function_tables[name]
        except KeyError as exc:
            raise SemanticError(f"no analysed function named {name!r}") from exc


def _declared_range(program: Program, name: str, ctype: CType, location):
    """The ``#pragma range`` of *name*, checked to fit *ctype*.

    The generators draw from the declared range and the board wraps what
    they draw at the type, while the model checker takes the range as the
    variable's domain; a range the type cannot hold would let the two
    disagree, so it is an error, as a global initialiser that does not fold is.
    """
    declared = program.range_annotations.get(name)
    if declared is None:
        return None
    representable = ctype.value_range()
    if declared.lo not in representable or declared.hi not in representable:
        raise SemanticError(
            f"range [{declared.lo}, {declared.hi}] of {name!r} does not fit "
            f"its type {ctype} [{ctype.min_value}, {ctype.max_value}]",
            location,
        )
    return declared


class _FunctionChecker:
    """Type checks one function body."""

    def __init__(self, analyzer: "_Analyzer", function: FunctionDef):
        self._analyzer = analyzer
        self._function = function
        self._scope = analyzer.global_scope.child()
        self._loop_depth = 0
        self._switch_depth = 0
        self.table = FunctionSymbolTable(function=function)
        # Globals are part of the flat variable view.
        for symbol in analyzer.global_scope.symbols.values():
            if symbol.is_variable:
                self.table.variables[symbol.name] = symbol
                if symbol.is_input:
                    self.table.inputs.append(symbol.name)

    # ------------------------------------------------------------------ #
    def check(self) -> FunctionSymbolTable:
        for param in self._function.params:
            # a parameter's range is checked but not used: it is an input
            # over its whole type
            _declared_range(
                self._analyzer.program, param.name, param.param_type, param.location
            )
            symbol = Symbol(
                name=param.name,
                kind=SymbolKind.PARAMETER,
                ctype=param.param_type,
                decl=param,
                is_input=True,
            )
            self._declare(symbol)
        self._check_stmt(self._function.body, self._scope)
        return self.table

    def _declare(self, symbol: Symbol) -> None:
        if symbol.name in self.table.variables:
            raise SemanticError(
                f"declaration of {symbol.name!r} shadows an existing variable",
                getattr(symbol.decl, "location", None),
            )
        self._scope.declare(symbol)
        self.table.variables[symbol.name] = symbol
        if symbol.is_input and symbol.name not in self.table.inputs:
            self.table.inputs.append(symbol.name)

    # ------------------------------------------------------------------ #
    # statements
    # ------------------------------------------------------------------ #
    def _check_stmt(self, stmt: Stmt, scope: Scope) -> None:
        if isinstance(stmt, CompoundStmt):
            inner = scope.child()
            for child in stmt.statements:
                self._check_stmt(child, inner)
        elif isinstance(stmt, DeclStmt):
            if stmt.var_type is VOID:
                raise SemanticError(f"variable {stmt.name!r} declared void", stmt.location)
            if stmt.init is not None:
                self._check_expr(stmt.init, scope)
            declared_range = _declared_range(
                self._analyzer.program, stmt.name, stmt.var_type, stmt.location
            )
            symbol = Symbol(
                name=stmt.name,
                kind=SymbolKind.LOCAL,
                ctype=stmt.var_type,
                decl=stmt,
                is_input=stmt.name in self._analyzer.program.input_variables,
                declared_range=declared_range,
            )
            # declare in the *flat* table but the nested scope governs lookup
            if symbol.name in self.table.variables:
                raise SemanticError(
                    f"declaration of {symbol.name!r} shadows an existing variable",
                    stmt.location,
                )
            scope.declare(symbol)
            self.table.variables[symbol.name] = symbol
            if symbol.is_input:
                self.table.inputs.append(symbol.name)
        elif isinstance(stmt, ExprStmt):
            self._check_expr(stmt.expr, scope)
        elif isinstance(stmt, IfStmt):
            self._check_condition(stmt.cond, scope)
            self._check_stmt(stmt.then_branch, scope)
            if stmt.else_branch is not None:
                self._check_stmt(stmt.else_branch, scope)
        elif isinstance(stmt, SwitchStmt):
            ctype = self._check_expr(stmt.expr, scope)
            if ctype.is_void:
                raise SemanticError("switch operand must be scalar", stmt.location)
            seen: set[int] = set()
            defaults = 0
            for case in stmt.cases:
                for value in case.values:
                    wrapped = ctype.wrap(value)
                    if wrapped in seen:
                        raise SemanticError(
                            f"duplicate case label {value}", case.location
                        )
                    seen.add(wrapped)
                if case.is_default:
                    defaults += 1
                self._switch_depth += 1
                self._check_stmt(case.body, scope)
                self._switch_depth -= 1
            if defaults > 1:
                raise SemanticError("multiple default labels in switch", stmt.location)
        elif isinstance(stmt, WhileStmt):
            self._check_condition(stmt.cond, scope)
            self._loop_depth += 1
            self._check_stmt(stmt.body, scope)
            self._loop_depth -= 1
        elif isinstance(stmt, DoWhileStmt):
            self._loop_depth += 1
            self._check_stmt(stmt.body, scope)
            self._loop_depth -= 1
            self._check_condition(stmt.cond, scope)
        elif isinstance(stmt, ForStmt):
            inner = scope.child()
            if stmt.init is not None:
                self._check_stmt(stmt.init, inner)
            if stmt.cond is not None:
                self._check_condition(stmt.cond, inner)
            if stmt.step is not None:
                self._check_expr(stmt.step, inner)
            self._loop_depth += 1
            self._check_stmt(stmt.body, inner)
            self._loop_depth -= 1
        elif isinstance(stmt, BreakStmt):
            if self._loop_depth == 0 and self._switch_depth == 0:
                raise SemanticError("'break' outside loop or switch", stmt.location)
        elif isinstance(stmt, ContinueStmt):
            if self._loop_depth == 0:
                raise SemanticError("'continue' outside loop", stmt.location)
        elif isinstance(stmt, ReturnStmt):
            if stmt.value is not None:
                if self._function.return_type.is_void:
                    raise SemanticError(
                        "void function returns a value", stmt.location
                    )
                self._check_expr(stmt.value, scope)
            elif not self._function.return_type.is_void:
                raise SemanticError(
                    "non-void function returns without a value", stmt.location
                )
        elif isinstance(stmt, EmptyStmt):
            pass
        else:  # pragma: no cover - defensive
            raise SemanticError(f"unsupported statement {type(stmt).__name__}", stmt.location)

    def _check_condition(self, expr: Expr, scope: Scope) -> None:
        ctype = self._check_expr(expr, scope)
        if ctype.is_void:
            raise SemanticError("condition must be scalar", expr.location)

    # ------------------------------------------------------------------ #
    # expressions
    # ------------------------------------------------------------------ #
    def _check_expr(self, expr: Expr, scope: Scope) -> CType:
        ctype = self._infer_type(expr, scope)
        expr.ctype = ctype
        return ctype

    def _infer_type(self, expr: Expr, scope: Scope) -> CType:
        if isinstance(expr, IntLiteral):
            return INT16 if -(1 << 15) <= expr.value < (1 << 15) else common_type(INT16, INT16)
        if isinstance(expr, BoolLiteral):
            return BOOL
        if isinstance(expr, Identifier):
            symbol = scope.lookup(expr.name)
            if symbol is None or not symbol.is_variable:
                raise SemanticError(f"use of undeclared variable {expr.name!r}", expr.location)
            return symbol.ctype
        if isinstance(expr, UnaryOp):
            operand = self._check_expr(expr.operand, scope)
            if operand.is_void:
                raise SemanticError("void operand", expr.location)
            if expr.op == "!":
                return BOOL
            return common_type(operand, operand)
        if isinstance(expr, BinaryOp):
            left = self._check_expr(expr.left, scope)
            right = self._check_expr(expr.right, scope)
            if left.is_void or right.is_void:
                raise SemanticError("void operand in binary expression", expr.location)
            if expr.op in RELATIONAL_OPERATORS:
                return BOOL
            return common_type(left, right)
        if isinstance(expr, Conditional):
            self._check_condition(expr.cond, scope)
            then = self._check_expr(expr.then, scope)
            otherwise = self._check_expr(expr.otherwise, scope)
            return common_type(then, otherwise)
        if isinstance(expr, AssignExpr):
            symbol = scope.lookup(expr.target.name)
            if symbol is None or not symbol.is_variable:
                raise SemanticError(
                    f"assignment to undeclared variable {expr.target.name!r}", expr.location
                )
            expr.target.ctype = symbol.ctype
            self._check_expr(expr.value, scope)
            return symbol.ctype
        if isinstance(expr, CastExpr):
            self._check_expr(expr.operand, scope)
            if expr.target_type.is_void:
                raise SemanticError("cast to void is not supported", expr.location)
            return expr.target_type
        if isinstance(expr, CallExpr):
            symbol = self._analyzer.global_scope.lookup(expr.name)
            for arg in expr.args:
                self._check_expr(arg, scope)
            if expr.name not in self.table.called_functions:
                self.table.called_functions.append(expr.name)
            if symbol is None or symbol.kind is not SymbolKind.FUNCTION:
                # unknown external function: void result, any arguments
                self._analyzer.external_calls.add(expr.name)
                return VOID
            if symbol.param_types is not None and len(symbol.param_types) != len(expr.args):
                raise SemanticError(
                    f"call to {expr.name!r} with {len(expr.args)} arguments, "
                    f"expected {len(symbol.param_types)}",
                    expr.location,
                )
            return symbol.ctype
        raise SemanticError(f"unsupported expression {type(expr).__name__}", expr.location)


class _Analyzer:
    def __init__(self, program: Program):
        self.program = program
        self.global_scope = build_global_scope(
            program.globals, program.functions, program.external_functions
        )
        self.external_calls: set[str] = set()

    def run(self) -> AnalyzedProgram:
        result = AnalyzedProgram(program=self.program, global_scope=self.global_scope)
        for decl in self.program.globals:
            if decl.var_type.is_void:
                raise SemanticError(f"global {decl.name!r} declared void", decl.location)
            _declared_range(self.program, decl.name, decl.var_type, decl.location)
            if decl.init is not None:
                checker = _FunctionChecker(
                    self, FunctionDef(name="<global-init>", return_type=VOID, params=[],
                                      body=CompoundStmt(statements=[]))
                )
                checker._check_expr(decl.init, self.global_scope)
                if initial_value(decl) is None:
                    # static storage needs a constant initialiser (C11 6.7.9p4)
                    raise SemanticError(
                        f"initialiser of global {decl.name!r} is not a constant expression",
                        decl.location,
                    )
        for function in self.program.functions:
            checker = _FunctionChecker(self, function)
            result.function_tables[function.name] = checker.check()
        for name in sorted(self.external_calls):
            if name not in self.program.external_functions:
                self.program.external_functions.append(name)
        return result


def analyze_program(program: Program) -> AnalyzedProgram:
    """Run semantic analysis on *program* and return the analysed view."""
    return _Analyzer(program).run()
