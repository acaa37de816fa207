"""Token definitions for the mini-C lexer."""

from __future__ import annotations

import enum
from typing import NamedTuple

from .errors import SourceLocation


class TokenKind(enum.Enum):
    """Lexical category of a token."""

    IDENT = "identifier"
    NUMBER = "number"
    KEYWORD = "keyword"
    PUNCT = "punctuator"
    PRAGMA = "pragma"
    EOF = "end-of-file"


#: Reserved words of the language.  Type names are *not* keywords -- they are
#: ordinary identifiers resolved through :data:`repro.minic.types.TYPE_SPELLINGS`
#: -- except for the C storage/type keywords that may be combined
#: ("unsigned int"), which the parser needs to recognise eagerly.
KEYWORDS = frozenset(
    {
        "if",
        "else",
        "switch",
        "case",
        "default",
        "while",
        "do",
        "for",
        "break",
        "continue",
        "return",
        "void",
        "int",
        "char",
        "short",
        "long",
        "signed",
        "unsigned",
        "bool",
        "_Bool",
        "true",
        "false",
        "const",
        "volatile",
        "static",
        "enum",
        "goto",
    }
)

#: Punctuators, longest first: the lexer tries them in this order, so the
#: first that matches is the longest (maximal munch).
PUNCTUATORS = (
    "<<=", ">>=", "...",
    "==", "!=", "<=", ">=", "&&", "||", "<<", ">>", "++", "--",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "->",
    "(", ")", "{", "}", "[", "]", ";", ",", ":", "?", "=",
    "+", "-", "*", "/", "%", "<", ">", "!", "&", "|", "^", "~", ".",
)


class Token(NamedTuple):
    """A single lexical token.

    ``value`` holds the decoded payload: the identifier/keyword text, the
    integer value of a number literal, the punctuator spelling, or the pragma
    body for ``#pragma`` lines understood by the frontend (loop bounds and
    input-variable annotations).  A named tuple, like its location, so the
    lexer builds one per token cheaply.
    """

    kind: TokenKind
    value: object
    location: SourceLocation

    def is_punct(self, spelling: str) -> bool:
        return self.kind is TokenKind.PUNCT and self.value == spelling

    def is_keyword(self, word: str) -> bool:
        return self.kind is TokenKind.KEYWORD and self.value == word

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.kind.name}({self.value!r})@{self.location}"
