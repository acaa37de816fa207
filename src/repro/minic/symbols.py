"""Symbol tables for mini-C semantic analysis.

A :class:`Scope` maps names to :class:`Symbol` entries; scopes nest (function
scope inside file scope, block scopes inside function scope).  The analysis
pipeline mostly needs a *flat* view of every variable in a function --
generated automotive code declares everything at the top of the function --
but proper scoping is implemented so hand-written test programs behave like C.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .ast_nodes import FunctionDef, GlobalDecl, Node
from .errors import SemanticError
from .types import CType, IntRange


class SymbolKind(enum.Enum):
    GLOBAL = "global"
    LOCAL = "local"
    PARAMETER = "parameter"
    FUNCTION = "function"


@dataclass
class Symbol:
    """A named entity (variable or function)."""

    name: str
    kind: SymbolKind
    ctype: CType
    decl: Node | None = None
    is_input: bool = False
    declared_range: IntRange | None = None
    #: For functions: parameter types (None for unknown/external functions).
    param_types: list[CType] | None = None

    @property
    def is_variable(self) -> bool:
        return self.kind is not SymbolKind.FUNCTION


@dataclass
class Scope:
    """A lexical scope."""

    parent: "Scope | None" = None
    symbols: dict[str, Symbol] = field(default_factory=dict)

    def declare(self, symbol: Symbol) -> Symbol:
        if symbol.name in self.symbols:
            raise SemanticError(
                f"duplicate declaration of {symbol.name!r}",
                getattr(symbol.decl, "location", None),
            )
        self.symbols[symbol.name] = symbol
        return symbol

    def lookup(self, name: str) -> Symbol | None:
        scope: Scope | None = self
        while scope is not None:
            if name in scope.symbols:
                return scope.symbols[name]
            scope = scope.parent
        return None

    def child(self) -> "Scope":
        return Scope(parent=self)


@dataclass
class FunctionSymbolTable:
    """Flat per-function view produced by semantic analysis.

    Attributes
    ----------
    function:
        The analysed function definition.
    variables:
        Every variable visible in the function (globals, parameters and
        locals), keyed by name.  Generated control code has unique names, so
        a flat map is unambiguous; shadowing raises a
        :class:`~repro.minic.errors.SemanticError` during analysis.
    inputs:
        Names of the analysis input variables (``#pragma input`` globals plus
        all function parameters).
    """

    function: FunctionDef
    variables: dict[str, Symbol] = field(default_factory=dict)
    inputs: list[str] = field(default_factory=list)
    called_functions: list[str] = field(default_factory=list)

    def variable(self, name: str) -> Symbol:
        try:
            return self.variables[name]
        except KeyError as exc:
            raise SemanticError(f"unknown variable {name!r}") from exc


def build_global_scope(
    globals_: list[GlobalDecl], functions: list[FunctionDef], externals: list[str]
) -> Scope:
    """Create the file scope containing globals and function names."""
    scope = Scope()
    for decl in globals_:
        scope.declare(
            Symbol(
                name=decl.name,
                kind=SymbolKind.GLOBAL,
                ctype=decl.var_type,
                decl=decl,
                is_input=decl.is_input,
                declared_range=decl.declared_range,
            )
        )
    for func in functions:
        scope.declare(
            Symbol(
                name=func.name,
                kind=SymbolKind.FUNCTION,
                ctype=func.return_type,
                decl=func,
                param_types=[p.param_type for p in func.params],
            )
        )
    for name in externals:
        if scope.lookup(name) is None:
            from .types import VOID

            scope.declare(Symbol(name=name, kind=SymbolKind.FUNCTION, ctype=VOID))
    return scope
