"""Mini-C frontend: lexer, parser, semantic analysis and pretty printing.

This package implements the structured C subset that automotive code
generators (dSpace TargetLink in the paper) emit, which is the input language
of the WCET analysis.  The most common entry points are:

>>> from repro.minic import parse, parse_and_analyze
>>> program = parse("void f(void) { int x; x = 1; }")
>>> analyzed = parse_and_analyze("void f(void) { int x; x = 1; }")
"""

from __future__ import annotations

from . import ast_nodes as ast
from .ast_nodes import Program
from .calls import call_sites, called_names
from .errors import LexerError, MiniCError, ParseError, SemanticError, SourceLocation
from .folding import fold_expr
from .lexer import tokenize
from .parser import Parser, parse_expression, parse_program
from .pretty import PrettyPrinter, print_expression, print_program, print_statement
from .semantic import AnalyzedProgram, analyze_program
from .symbols import FunctionSymbolTable, Scope, Symbol, SymbolKind
from .types import (
    BOOL,
    INT8,
    INT16,
    INT32,
    SCALAR_TYPES,
    UINT8,
    UINT16,
    UINT32,
    VOID,
    CType,
    IntRange,
    common_type,
    lookup_type,
)

__all__ = [
    "ast",
    "Program",
    "call_sites",
    "called_names",
    "LexerError",
    "MiniCError",
    "ParseError",
    "SemanticError",
    "SourceLocation",
    "fold_expr",
    "tokenize",
    "Parser",
    "parse_expression",
    "parse_program",
    "PrettyPrinter",
    "print_expression",
    "print_program",
    "print_statement",
    "AnalyzedProgram",
    "analyze_program",
    "FunctionSymbolTable",
    "Scope",
    "Symbol",
    "SymbolKind",
    "BOOL",
    "INT8",
    "INT16",
    "INT32",
    "UINT8",
    "UINT16",
    "UINT32",
    "VOID",
    "SCALAR_TYPES",
    "CType",
    "IntRange",
    "common_type",
    "lookup_type",
    "parse",
    "parse_and_analyze",
]


def parse(source: str, filename: str = "<source>") -> Program:
    """Parse mini-C source text into an AST (no semantic checks)."""
    return parse_program(source, filename)


def parse_and_analyze(source: str, filename: str = "<source>") -> AnalyzedProgram:
    """Parse and semantically analyse mini-C source text."""
    return analyze_program(parse_program(source, filename))
