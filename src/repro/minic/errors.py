"""Error and diagnostic types for the mini-C frontend.

Every frontend failure is reported through one of the exception classes in
this module so that callers (the analysis pipeline, the CLI and the tests)
can distinguish *where* in the frontend an input was rejected:

* :class:`LexerError` -- the raw character stream could not be tokenised.
* :class:`ParseError` -- the token stream is not a valid mini-C program.
* :class:`SemanticError` -- the program parses but violates static rules
  (unknown identifiers, type mismatches, duplicate declarations, ...).

All of them derive from :class:`MiniCError` and carry an optional
:class:`SourceLocation` that points at the offending place in the input.
"""

from __future__ import annotations

from typing import NamedTuple


class SourceLocation(NamedTuple):
    """A position in a mini-C source text.

    A named tuple, cheap to build, since every token and AST node carries
    one; equality, ordering and hashing are those of the
    ``(line, column, filename)`` tuple.

    Attributes
    ----------
    line:
        1-based line number.
    column:
        1-based column number.
    filename:
        Name used in diagnostics; defaults to ``"<source>"`` for strings.
    """

    line: int = 0
    column: int = 0
    filename: str = "<source>"

    def __str__(self) -> str:  # pragma: no cover - trivial formatting
        return f"{self.filename}:{self.line}:{self.column}"


class MiniCError(Exception):
    """Base class of all mini-C frontend errors."""

    def __init__(self, message: str, location: SourceLocation | None = None):
        self.message = message
        self.location = location
        if location is not None:
            super().__init__(f"{location}: {message}")
        else:
            super().__init__(message)


class LexerError(MiniCError):
    """Raised when the lexer meets a character sequence it cannot tokenise."""


class ParseError(MiniCError):
    """Raised when the parser meets an unexpected token."""


class SemanticError(MiniCError):
    """Raised by semantic analysis (symbol resolution and type checking)."""
