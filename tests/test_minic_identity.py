"""Identity of the mini-C frontend against its character-scanning reference.

The lexer matches one compiled regular expression per token and the parser
climbs precedences in one loop.  This module keeps the frontend they
replaced as in-test references: a lexer that scans one character at a time
and tries the punctuators in its own copy of their order, and a parser whose
token helpers and expression rules are the earlier ones, with a binary-expression rule
that recurses once per precedence level.  On every corpus below both
frontends must produce the same tokens (kind, value, line, column,
filename), the same ASTs with locations and inferred ``ctype``s, and the same
``LexerError``/``ParseError``/``SemanticError`` messages and locations.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import random
from pathlib import Path

import pytest

from repro.minic import analyze_program, print_program
from repro.minic.ast_nodes import (
    BINARY_PRECEDENCE,
    AssignExpr,
    BinaryOp,
    BoolLiteral,
    CastExpr,
    Conditional,
    Expr,
    Identifier,
    IntLiteral,
    UnaryOp,
)
from repro.minic.errors import LexerError, MiniCError, ParseError, SourceLocation
from repro.minic.lexer import tokenize
from repro.minic.parser import _TYPE_KEYWORDS, Parser
from repro.minic.tokens import KEYWORDS, Token, TokenKind
from repro.minic.types import lookup_type

REPO = Path(__file__).resolve().parent.parent

# --------------------------------------------------------------------------- #
# reference lexer: one character at a time
# --------------------------------------------------------------------------- #
#: the punctuators in the order the reference tries them (longest first)
REFERENCE_PUNCTUATORS = (
    "<<=", ">>=", "...", "==", "!=", "<=", ">=", "&&", "||", "<<", ">>", "++",
    "--", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "->", "(", ")", "{",
    "}", "[", "]", ";", ",", ":", "?", "=", "+", "-", "*", "/", "%", "<", ">",
    "!", "&", "|", "^", "~", ".",
)
_IDENT_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_IDENT_CONT = _IDENT_START | set("0123456789")
_DIGITS = set("0123456789")
_ESCAPES = {"n": 10, "t": 9, "r": 13, "0": 0, "\\": 92, "'": 39, '"': 34}


class ReferenceLexer:
    def __init__(self, source: str, filename: str):
        self._source = source
        self._filename = filename
        self._pos = 0
        self._line = 1
        self._column = 1

    def tokenize(self) -> list[Token]:
        tokens: list[Token] = []
        while True:
            token = self._next_token()
            tokens.append(token)
            if token.kind is TokenKind.EOF:
                return tokens

    def _location(self) -> SourceLocation:
        return SourceLocation(self._line, self._column, self._filename)

    def _peek(self, offset: int = 0) -> str:
        index = self._pos + offset
        if index >= len(self._source):
            return ""
        return self._source[index]

    def _advance(self, count: int = 1) -> str:
        text = self._source[self._pos : self._pos + count]
        for ch in text:
            if ch == "\n":
                self._line += 1
                self._column = 1
            else:
                self._column += 1
        self._pos += count
        return text

    def _skip_whitespace_and_comments(self) -> None:
        while True:
            ch = self._peek()
            if ch and ch in " \t\r\n\f\v":
                self._advance()
                continue
            if ch == "/" and self._peek(1) == "/":
                while self._peek() and self._peek() != "\n":
                    self._advance()
                continue
            if ch == "/" and self._peek(1) == "*":
                start = self._location()
                self._advance(2)
                while not (self._peek() == "*" and self._peek(1) == "/"):
                    if not self._peek():
                        raise LexerError("unterminated block comment", start)
                    self._advance()
                self._advance(2)
                continue
            return

    def _next_token(self) -> Token:
        self._skip_whitespace_and_comments()
        location = self._location()
        ch = self._peek()
        if not ch:
            return Token(TokenKind.EOF, None, location)
        if ch == "#":
            return self._scan_directive(location)
        if ch in _IDENT_START:
            return self._scan_identifier(location)
        if ch in _DIGITS:
            return self._scan_number(location)
        if ch == "'":
            return self._scan_char(location)
        for punct in REFERENCE_PUNCTUATORS:
            if self._source.startswith(punct, self._pos):
                self._advance(len(punct))
                return Token(TokenKind.PUNCT, punct, location)
        raise LexerError(f"unexpected character {ch!r}", location)

    def _scan_directive(self, location: SourceLocation) -> Token:
        line_chars: list[str] = []
        while self._peek() and self._peek() != "\n":
            line_chars.append(self._advance())
        line = "".join(line_chars).strip()
        if line.startswith("#pragma"):
            return Token(TokenKind.PRAGMA, line[len("#pragma") :].strip(), location)
        return self._next_token()

    def _scan_identifier(self, location: SourceLocation) -> Token:
        chars: list[str] = []
        while self._peek() in _IDENT_CONT and self._peek():
            chars.append(self._advance())
        text = "".join(chars)
        kind = TokenKind.KEYWORD if text in KEYWORDS else TokenKind.IDENT
        return Token(kind, text, location)

    def _scan_number(self, location: SourceLocation) -> Token:
        chars: list[str] = []
        if self._peek() == "0" and self._peek(1) in ("x", "X"):
            chars.append(self._advance(2))
            while self._peek() and self._peek() in "0123456789abcdefABCDEF":
                chars.append(self._advance())
            text = "".join(chars)
            if len(text) == 2:
                raise LexerError("malformed hexadecimal literal", location)
            value = int(text, 16)
        else:
            while self._peek() in _DIGITS and self._peek():
                chars.append(self._advance())
            text = "".join(chars)
            if text.startswith("0") and len(text) > 1:
                try:
                    value = int(text, 8)
                except ValueError as exc:
                    raise LexerError(f"malformed octal literal {text!r}", location) from exc
            else:
                value = int(text, 10)
        while self._peek() in "uUlL" and self._peek():
            self._advance()
        if self._peek() in _IDENT_START and self._peek():
            raise LexerError("identifier immediately after number literal", location)
        return Token(TokenKind.NUMBER, value, location)

    def _scan_char(self, location: SourceLocation) -> Token:
        self._advance()
        ch = self._peek()
        if not ch:
            raise LexerError("unterminated character literal", location)
        if ch == "\\":
            self._advance()
            escape = self._advance()
            if escape not in _ESCAPES:
                raise LexerError(f"unknown escape sequence \\{escape}", location)
            value = _ESCAPES[escape]
        else:
            value = ord(self._advance())
        if self._peek() != "'":
            raise LexerError("unterminated character literal", location)
        self._advance()
        return Token(TokenKind.NUMBER, value, location)


def reference_tokenize(source: str, filename: str = "<source>") -> list[Token]:
    return ReferenceLexer(source, filename).tokenize()


# --------------------------------------------------------------------------- #
# reference parser: the earlier token helpers and expression rules
# --------------------------------------------------------------------------- #
_MAX_PRECEDENCE = max(BINARY_PRECEDENCE.values()) + 1


class ReferenceParser(Parser):
    def _peek(self, offset: int = 0) -> Token:
        return self._tokens[min(self._index + offset, len(self._tokens) - 1)]

    def _lookahead(self, offset: int) -> Token:
        return self._peek(offset)

    def _check_punct(self, spelling: str) -> bool:
        return self._peek().is_punct(spelling)

    def _check_keyword(self, word: str) -> bool:
        return self._peek().is_keyword(word)

    def _accept_punct(self, spelling: str) -> bool:
        if self._check_punct(spelling):
            self._advance()
            return True
        return False

    def _accept_keyword(self, word: str) -> bool:
        if self._check_keyword(word):
            self._advance()
            return True
        return False

    def _expect_punct(self, spelling: str) -> Token:
        token = self._peek()
        if not token.is_punct(spelling):
            raise ParseError(f"expected {spelling!r}, found {token.value!r}", token.location)
        return self._advance()

    def _expect_keyword(self, word: str) -> Token:
        token = self._peek()
        if not token.is_keyword(word):
            raise ParseError(f"expected keyword {word!r}, found {token.value!r}", token.location)
        return self._advance()

    def _expect_identifier(self) -> Token:
        token = self._peek()
        if token.kind is not TokenKind.IDENT:
            raise ParseError(f"expected identifier, found {token.value!r}", token.location)
        return self._advance()

    def _parse_assignment_expr(self) -> Expr:
        left = self._parse_ternary_expr()
        token = self._peek()
        if token.kind is TokenKind.PUNCT and str(token.value).endswith("=") and str(
            token.value
        ) not in ("==", "!=", "<=", ">="):
            op = str(self._advance().value)
            right = self._parse_assignment_expr()
            if not isinstance(left, Identifier):
                raise ParseError("assignment target must be a variable", token.location)
            if op == "=":
                value = right
            else:
                value = BinaryOp(
                    op=op[:-1], left=Identifier(name=left.name, location=left.location),
                    right=right, location=token.location,
                )
            return AssignExpr(target=left, value=value, location=left.location)
        return left

    def _parse_binary_expr(self, min_precedence: int) -> Expr:
        if min_precedence >= _MAX_PRECEDENCE:
            return self._parse_unary_expr()
        left = self._parse_binary_expr(min_precedence + 1)
        while True:
            token = self._peek()
            op = str(token.value) if token.kind is TokenKind.PUNCT else ""
            if BINARY_PRECEDENCE.get(op) != min_precedence:
                return left
            self._advance()
            right = self._parse_binary_expr(min_precedence + 1)
            left = BinaryOp(op=op, left=left, right=right, location=token.location)

    def _parse_unary_expr(self) -> Expr:
        token = self._peek()
        if token.kind is TokenKind.PUNCT and token.value in ("-", "+", "!", "~"):
            self._advance()
            operand = self._parse_unary_expr()
            return UnaryOp(op=str(token.value), operand=operand, location=token.location)
        if token.is_punct("++") or token.is_punct("--"):
            self._advance()
            operand = self._parse_unary_expr()
            if not isinstance(operand, Identifier):
                raise ParseError("++/-- target must be a variable", token.location)
            return _reference_increment(operand, token)
        expr = self._parse_primary_expr()
        while True:
            token = self._peek()
            if token.is_punct("++") or token.is_punct("--"):
                self._advance()
                if not isinstance(expr, Identifier):
                    raise ParseError("++/-- target must be a variable", token.location)
                expr = _reference_increment(expr, token)
                continue
            return expr

    def _parse_primary_expr(self) -> Expr:
        token = self._peek()
        if token.kind is TokenKind.NUMBER:
            self._advance()
            return IntLiteral(value=int(token.value), location=token.location)
        if token.is_keyword("true"):
            self._advance()
            return BoolLiteral(value=True, location=token.location)
        if token.is_keyword("false"):
            self._advance()
            return BoolLiteral(value=False, location=token.location)
        if token.kind is TokenKind.IDENT:
            self._advance()
            name = str(token.value)
            if self._check_punct("("):
                return self._parse_call(name, token.location)
            return Identifier(name=name, location=token.location)
        if token.is_punct("("):
            nxt = self._peek(1)
            is_cast = False
            if nxt.kind is TokenKind.KEYWORD and nxt.value in _TYPE_KEYWORDS and nxt.value != "void":
                is_cast = True
            if (
                nxt.kind is TokenKind.IDENT
                and lookup_type(str(nxt.value)) is not None
                and self._peek(2).is_punct(")")
            ):
                is_cast = True
            if is_cast:
                self._advance()
                target_type = self._parse_type()
                self._expect_punct(")")
                operand = self._parse_unary_expr()
                return CastExpr(target_type=target_type, operand=operand, location=token.location)
            self._advance()
            expr = self._parse_expression()
            self._expect_punct(")")
            return expr
        raise ParseError(f"unexpected token {token.value!r} in expression", token.location)


def _reference_increment(target: Identifier, token: Token) -> AssignExpr:
    return AssignExpr(
        target=target,
        value=BinaryOp(
            op="+" if token.value == "++" else "-",
            left=Identifier(name=target.name, location=target.location),
            right=IntLiteral(value=1, location=token.location),
            location=token.location,
        ),
        location=token.location,
    )


# --------------------------------------------------------------------------- #
# outcomes
# --------------------------------------------------------------------------- #
def _error(error: MiniCError) -> tuple:
    location = error.location
    return (
        "error", type(error).__name__, error.message,
        None if location is None else tuple(location),
    )


def token_outcome(tokenize_fn, source: str, filename: str) -> object:
    try:
        tokens = tokenize_fn(source, filename)
    except MiniCError as error:
        return _error(error)
    return [
        (token.kind, type(token.value), token.value, tuple(token.location))
        for token in tokens
    ]


def dump(value: object) -> object:
    """Structural image of an AST: every field but ``node_id``, ctypes included."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return (type(value).__name__,) + tuple(
            (field.name, dump(getattr(value, field.name)))
            for field in dataclasses.fields(value)
            if field.name != "node_id"
        )
    if isinstance(value, SourceLocation):
        return ("at",) + tuple(value)
    if isinstance(value, (list, tuple)):
        return tuple(dump(item) for item in value)
    if isinstance(value, dict):
        return tuple((key, dump(item)) for key, item in value.items())
    return (type(value).__name__, value)


def parse_outcome(tokenize_fn, parser_cls, source: str, filename: str) -> object:
    try:
        program = parser_cls(tokenize_fn(source, filename)).parse_program()
    except MiniCError as error:
        return _error(error)
    try:
        analyze_program(program)
        analysis = "ok"
    except MiniCError as error:
        analysis = _error(error)
    return "parsed", dump(program), analysis


def assert_identical(source: str, filename: str = "unit.c") -> object:
    """Both frontends agree on *source*; returns the parse outcome."""
    expected_tokens = token_outcome(reference_tokenize, source, filename)
    assert token_outcome(tokenize, source, filename) == expected_tokens
    expected = parse_outcome(reference_tokenize, ReferenceParser, source, filename)
    assert parse_outcome(tokenize, Parser, source, filename) == expected
    return expected


def assert_all_parse(sources: dict[str, str]) -> None:
    for name, source in sources.items():
        assert assert_identical(source, name)[::2] == ("parsed", "ok"), name


# --------------------------------------------------------------------------- #
# corpora
# --------------------------------------------------------------------------- #
def _recorded_renders(generate, seed: int) -> list[str]:
    """Every candidate source the TargetLink generator renders while
    calibrating *seed*; the last one is the program it returns."""
    from repro.workloads.targetlink import SyntheticCodeGenerator

    renders: list[str] = []
    original = SyntheticCodeGenerator._render

    def record(self, function_name):
        renders.append(original(self, function_name))
        return renders[-1]

    SyntheticCodeGenerator._render = record
    try:
        application = generate(seed=seed)
    finally:
        SyntheticCodeGenerator._render = original
    assert renders[-1] == application.source
    return renders


class TestPinnedPrograms:
    def test_call_chain_and_wiper(self):
        from repro.workloads.multi import generate_call_chain_workload
        from repro.workloads.wiper import wiper_case_study

        sources = dict(generate_call_chain_workload(2005).sources)
        sources["wiper.c"] = wiper_case_study().source
        assert_all_parse(sources)

    @pytest.mark.parametrize("seed", [11, 2, 5])
    def test_every_controller_render(self, seed):
        from repro.workloads.targetlink import generate_small_application

        renders = _recorded_renders(generate_small_application, seed)
        assert len(renders) > 1
        assert_all_parse({f"controller_{seed}_{i}.c": r for i, r in enumerate(renders)})

    def test_industrial_source(self):
        from repro.workloads.targetlink import generate_synthetic_application

        assert_all_parse({"industrial.c": generate_synthetic_application().source})

    def test_walk_matches_recursive_reference(self):
        """``Node.walk`` visits the nodes of every pinned program in the
        order of the recursive pre-order walk it replaced."""
        from repro.minic import parse_and_analyze
        from repro.workloads.multi import generate_call_chain_workload
        from repro.workloads.targetlink import generate_small_application
        from repro.workloads.wiper import wiper_case_study

        def reference_walk(node):
            yield node
            for child in node.children():
                yield from reference_walk(child)

        sources = dict(generate_call_chain_workload(2005).sources)
        sources["wiper.c"] = wiper_case_study().source
        for seed in (11, 2, 5):
            sources[f"controller_{seed}.c"] = generate_small_application(seed=seed).source
        for name, source in sources.items():
            program = parse_and_analyze(source, name).program
            walked = list(program.walk())
            expected = list(reference_walk(program))
            assert len(walked) == len(expected) > 1
            assert all(a is b for a, b in zip(walked, expected)), name


class TestExampleAndBenchmarkSources:
    def test_workload_sources(self):
        from repro.workloads.figure1 import FIGURE1_SOURCE
        from repro.workloads.multi import (
            edit_call_chain_function,
            generate_call_chain_workload,
            generate_multi_function_workload,
        )
        from repro.workloads.optimisation_eval import OPTIMISATION_EVAL_SOURCE

        sources = {"figure1.c": FIGURE1_SOURCE, "eval.c": OPTIMISATION_EVAL_SOURCE}
        workload = generate_call_chain_workload(2005)
        sources.update(generate_multi_function_workload(7).sources)
        for _, function in workload.functions:
            edited = edit_call_chain_function(workload.sources, function)
            sources.update({f"{function}_{unit}": text for unit, text in edited.items()})
        assert_all_parse(sources)

    def test_example_scripts(self):
        path = REPO / "examples" / "test_data_generation.py"
        spec = importlib.util.spec_from_file_location("example_test_data_generation", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        assert_all_parse({"example.c": module.SOURCE})

    def test_optimised_and_printed_sources(self):
        """Table 2's re-parsed optimised programs, and printed pinned programs."""
        from repro.optim import TABLE2_CONFIGURATIONS, build_optimized_model, pipeline
        from repro.workloads.optimisation_eval import (
            EVAL_FUNCTION_NAME,
            optimisation_eval_program,
        )
        from repro.workloads.wiper import wiper_case_study

        printed: list[str] = []
        original = pipeline.parse_program

        def record(source, filename="<source>"):
            printed.append(source)
            return original(source, filename=filename)

        pipeline.parse_program = record
        try:
            for _, config in TABLE2_CONFIGURATIONS:
                build_optimized_model(optimisation_eval_program(), EVAL_FUNCTION_NAME, config)
        finally:
            pipeline.parse_program = original
        assert printed
        printed.append(print_program(optimisation_eval_program().program))
        printed.append(print_program(wiper_case_study().analyzed.program))
        assert_all_parse({f"printed_{i}.c": text for i, text in enumerate(printed)})


MALFORMED = [
    "int x = 0x;",
    "int x = 0X;",
    "int x = 09;",
    "int x = 1a;",
    "int x = 0x1g;",
    "int x = 12uLz;",
    "int x = 7;   \n  /* never closed",
    "int x = '\\q';",
    "int x = '\\",
    "int x = 'ab';",
    "int x = '",
    "int x = '\n';",
    "int x = ''';",
    "int x = @;",
    "int x = $;",
    'int x = "s";',
    "#pragmaX\nint x;",
    "#pragma\nint x;",
    "int x; #include <stdio.h>\nint y;",
    "int a = b # trailing\n;",
    "int x = 1 /*/ 2;",
    "int x = 1 // tail",
    "int x = 1;\r\n\f\v\tint y = 2;",
    "void f(void) { int x; x = 1 + ; }",
    "void f(void) { 3 = x; }",
    "void f(void) { int x; x++ ++; (x)++; }",
    "void f(void) { int x; x = (Int16) ; }",
    "void f(void) { int x; x = a ? b; }",
    "void f(void) { switch (x) { y = 1; } }",
    "void f(void) {",
    "",
]


class TestMalformedInputs:
    @pytest.mark.parametrize("source", MALFORMED)
    def test_same_tokens_and_errors(self, source):
        assert_identical(source)

    def test_table_exercises_every_lexer_error(self):
        messages = set()
        for source in MALFORMED:
            outcome = token_outcome(tokenize, source, "unit.c")
            if isinstance(outcome, tuple):
                messages.add(outcome[2].split(" '")[0].split(" \\")[0])
        assert messages >= {
            "malformed hexadecimal literal",
            "malformed octal literal",
            "identifier immediately after number literal",
            "unterminated block comment",
            "unknown escape sequence",
            "unterminated character literal",
            "unexpected character",
        }

    def test_unterminated_comment_is_located_at_its_start(self):
        with pytest.raises(LexerError) as error:
            tokenize("int x;\n   /* open", "unit.c")
        assert tuple(error.value.location) == (2, 4, "unit.c")


# --------------------------------------------------------------------------- #
# seeded random inputs
# --------------------------------------------------------------------------- #
_WORDS = sorted(KEYWORDS) + ["x", "y", "acc", "_t1", "Int16", "UInt8", "Int32", "f"]
_NUMBERS = ["0", "7", "42u", "0x1F", "0XffUL", "017", "123456", "1l", "08", "0x", "3q"]
_CHARS = ["'a'", "'\\n'", "'\\''", "'\\0'", "'\\q'", "'''", "'"]
_SPACE = [" ", " ", "\n", "\t", "\r\n", "\f", "\v", "  \n  "]
_COMMENTS = ["// note\n", "/* a\n b */", "/**/", "/*/ x */", "/* open"]
_DIRECTIVES = [
    "#pragma loopbound(3)\n", "#pragma input x\n", "#pragma range x 0 9\n",
    "#include <x.h>\n", "#define N 3\n", "#pragmaX\n", "#\n",
]
_STRAY = ["@", "$", "`", '"', "\\", "é"]


def token_soup(rng: random.Random) -> str:
    pieces: list[str] = []
    for _ in range(rng.randint(1, 60)):
        roll = rng.random()
        if roll < 0.35:
            pieces.append(rng.choice(REFERENCE_PUNCTUATORS))
        elif roll < 0.6:
            pieces.append(rng.choice(_WORDS))
        elif roll < 0.75:
            pieces.append(rng.choice(_NUMBERS))
        elif roll < 0.82:
            pieces.append(rng.choice(_COMMENTS + _DIRECTIVES))
        elif roll < 0.87:
            pieces.append(rng.choice(_CHARS))
        elif roll < 0.89:
            pieces.append(rng.choice(_STRAY))
        pieces.append(rng.choice(_SPACE) if rng.random() < 0.7 else "")
    return "".join(pieces)


_BINARY = sorted(BINARY_PRECEDENCE)


def random_expression(rng: random.Random, depth: int = 0) -> str:
    roll = rng.random()
    if depth > 3 or roll < 0.25:
        return rng.choice(["a", "b", "c", "d", "1", "0x10", "'z'", "true"])
    if roll < 0.6:
        operands = [random_expression(rng, depth + 1) for _ in range(rng.randint(2, 5))]
        text = operands[0]
        for operand in operands[1:]:
            text += f" {rng.choice(_BINARY)} {operand}"
        return text
    if roll < 0.7:
        return f"{rng.choice(['-', '!', '~', '+'])}{random_expression(rng, depth + 1)}"
    if roll < 0.8:
        return f"({random_expression(rng, depth + 1)})"
    if roll < 0.87:
        return f"(Int16) {random_expression(rng, depth + 1)}"
    if roll < 0.94:
        cond, then, other = (random_expression(rng, depth + 1) for _ in range(3))
        return f"{cond} ? {then} : {other}"
    return rng.choice(["(a++)", "(--b)", "(c += 2)", "(d <<= 1)", "c = d = 3"])


def expression_program(rng: random.Random) -> str:
    lines = [f"    x = {random_expression(rng)};" for _ in range(rng.randint(1, 4))]
    return (
        "Int16 a; Int16 b; Int16 c; Int16 d; Int32 x;\n"
        "void f(void) {\n" + "\n".join(lines) + "\n}\n"
    )


class TestSeededRandomInputs:
    @pytest.mark.parametrize("block", range(4))
    def test_token_soup(self, block):
        for seed in range(block * 50, block * 50 + 50):
            assert_identical(token_soup(random.Random(seed)), f"soup_{seed}.c")

    def test_random_expressions(self):
        parsed = 0
        for seed in range(200):
            outcome = assert_identical(expression_program(random.Random(seed)), f"e{seed}.c")
            parsed += outcome[::2] == ("parsed", "ok")
        assert parsed > 140
