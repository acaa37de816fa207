"""Lexer for mini-C: one compiled regular expression, matched token by token.

The lexer turns a source string into a list of :class:`~repro.minic.tokens.Token`
objects.  It supports:

* decimal, hexadecimal (``0x``) and octal (``0...``) integer literals with
  optional ``u``/``U``/``l``/``L`` suffixes,
* character literals (mapped to their integer code),
* ``//`` line comments and ``/* */`` block comments,
* the frontend pragmas used by the WCET tooling::

      #pragma loopbound(8)        /* max iteration count of the next loop   */
      #pragma input x             /* x is an analysis input (free variable) */
      #pragma range x 0 10        /* value range annotation for variable x  */

  Pragma lines become :class:`TokenKind.PRAGMA` tokens carrying the raw body;
  any other preprocessor-style line (``#include``, ``#define`` of constants)
  is ignored so that TargetLink-style sources can be fed in unmodified.

Each match of :data:`_TOKEN` consumes the whitespace and comments before one
token and the token itself; ``lastgroup`` names the token's kind.  Line and
column come from counting newlines in the consumed text.
"""

from __future__ import annotations

import re

from .errors import LexerError, SourceLocation
from .tokens import KEYWORDS, PUNCTUATORS, Token, TokenKind

_ESCAPES = {"n": 10, "t": 9, "r": 13, "0": 0, "\\": 92, "'": 39, '"': 34}

_TOKEN = re.compile(
    # whitespace and comments before the token
    r"(?:[ \t\r\n\f\v]+|//[^\n]*|/\*[\s\S]*?\*/)*"
    r"(?:(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<number>0[xX][0-9a-fA-F]*|[0-9]+)[uUlL]*(?P<glued>[A-Za-z_])?"
    r"|(?P<directive>#[^\n]*)"
    r"|(?P<char>')"
    r"|(?P<comment>/\*)"
    r"|(?P<punct>" + "|".join(map(re.escape, PUNCTUATORS)) + ")"
    r"|(?P<eof>\Z)"
    r"|(?P<bad>[\s\S]))"
)

_IDENT = TokenKind.IDENT
_KEYWORD = TokenKind.KEYWORD
_NUMBER = TokenKind.NUMBER
_PUNCT = TokenKind.PUNCT
#: the named tuples' own ``__new__`` adds a Python call per token
_new = tuple.__new__


def tokenize(source: str, filename: str = "<source>") -> list[Token]:
    """Tokenise *source* and return the token list, terminated by an EOF token."""
    tokens: list[Token] = []
    append = tokens.append
    match = _TOKEN.match
    count = source.count
    line = 1
    line_start = 0  # offset of the first character of the current line
    counted = 0  # newlines before this offset are in ``line``
    pos = 0
    while True:
        m = match(source, pos)
        kind = m.lastgroup
        start = m.start(kind)
        newlines = count("\n", counted, start)
        if newlines:
            line += newlines
            line_start = source.rindex("\n", counted, start) + 1
        counted = start
        location = _new(SourceLocation, (line, start - line_start + 1, filename))
        pos = m.end()
        if kind == "ident":
            text = m.group(kind)
            append(_new(Token, (_KEYWORD if text in KEYWORDS else _IDENT, text, location)))
        elif kind == "punct":
            append(_new(Token, (_PUNCT, m.group(kind), location)))
        elif kind == "number":
            append(_new(Token, (_NUMBER, _number(m.group(kind), location), location)))
        elif kind == "directive":
            directive = m.group(kind).strip()
            if directive.startswith("#pragma"):
                body = directive[len("#pragma") :].strip()
                append(Token(TokenKind.PRAGMA, body, location))
            # #include / #define / other directives are ignored entirely.
        elif kind == "char":
            value, pos = _char_literal(source, start, location)
            append(Token(_NUMBER, value, location))
        elif kind == "eof":
            append(Token(TokenKind.EOF, None, location))
            return tokens
        elif kind == "glued":
            location = SourceLocation(line, m.start("number") - line_start + 1, filename)
            _number(m.group("number"), location)
            raise LexerError("identifier immediately after number literal", location)
        elif kind == "comment":
            raise LexerError("unterminated block comment", location)
        else:
            raise LexerError(f"unexpected character {m.group(kind)!r}", location)


def _number(text: str, location: SourceLocation) -> int:
    """The value of an integer literal (suffixes already stripped)."""
    if text[:2] in ("0x", "0X"):
        if len(text) == 2:
            raise LexerError("malformed hexadecimal literal", location)
        return int(text, 16)
    if text[0] == "0" and len(text) > 1:
        try:
            return int(text, 8)
        except ValueError as exc:
            raise LexerError(f"malformed octal literal {text!r}", location) from exc
    return int(text)


def _char_literal(source: str, start: int, location: SourceLocation) -> tuple[int, int]:
    """Decode the character literal at *start*: its value and end offset."""
    pos = start + 1
    ch = source[pos : pos + 1]
    if not ch:
        raise LexerError("unterminated character literal", location)
    if ch == "\\":
        escape = source[pos + 1 : pos + 2]
        if escape not in _ESCAPES:
            raise LexerError(f"unknown escape sequence \\{escape}", location)
        value = _ESCAPES[escape]
        pos += 2
    else:
        value = ord(ch)
        pos += 1
    if source[pos : pos + 1] != "'":
        raise LexerError("unterminated character literal", location)
    return value, pos + 1
