"""Recursive-descent parser for mini-C.

The grammar is the structured subset of C that automotive code generators
emit::

    program        := (pragma | global-decl | function-def | prototype)*
    function-def   := type ident '(' params ')' compound
    global-decl    := type ident ('=' expr)? ';'
    statement      := compound | if | switch | while | do-while | for
                    | 'break' ';' | 'continue' ';' | 'return' expr? ';'
                    | declaration | expression ';' | ';'
    switch         := 'switch' '(' expr ')' '{' case* '}'
    case           := ('case' const ':')+ statement* 'break' ';'
                    | 'default' ':' statement* ('break' ';')?

Compound assignments and the ``++``/``--`` operators are desugared into plain
assignments, so later stages (CFG construction, translation to the transition
system) only deal with ``=``.

The parser also consumes the analysis pragmas documented in
:mod:`repro.minic.lexer` and records them on the resulting
:class:`~repro.minic.ast_nodes.Program`.
"""

from __future__ import annotations

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
    GlobalDecl,
    Identifier,
    IfStmt,
    IntLiteral,
    Parameter,
    Program,
    ReturnStmt,
    Stmt,
    SwitchCase,
    SwitchStmt,
    UnaryOp,
    WhileStmt,
    BINARY_PRECEDENCE,
    UNARY_OPERATORS,
)
from .errors import ParseError, SourceLocation
from .folding import apply_binary, apply_unary
from .lexer import tokenize
from .tokens import Token, TokenKind
from .types import CType, IntRange, lookup_type

_TYPE_KEYWORDS = frozenset(
    {"void", "int", "char", "short", "long", "signed", "unsigned", "bool", "_Bool"}
)
_QUALIFIER_KEYWORDS = frozenset({"const", "volatile", "static"})

#: Punctuators that assign; compound ones are desugared to ``=``.
_ASSIGNMENT_OPERATORS = frozenset(
    {"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="}
)

_IDENT = TokenKind.IDENT
_KEYWORD = TokenKind.KEYWORD
_PUNCT = TokenKind.PUNCT


class Parser:
    """Parse a token stream into a :class:`Program`."""

    def __init__(self, tokens: list[Token]):
        self._tokens = tokens
        self._index = 0
        self._pending_loop_bound: int | None = None
        self._input_variables: list[str] = []
        self._range_annotations: dict[str, IntRange] = {}

    # ------------------------------------------------------------------ #
    # token helpers (the token list ends with EOF, which is never consumed,
    # so the current token is always ``self._tokens[self._index]``)
    # ------------------------------------------------------------------ #
    def _peek(self) -> Token:
        return self._tokens[self._index]

    def _lookahead(self, offset: int) -> Token:
        return self._tokens[min(self._index + offset, len(self._tokens) - 1)]

    def _advance(self) -> Token:
        token = self._tokens[self._index]
        if token.kind is not TokenKind.EOF:
            self._index += 1
        return token

    def _check_punct(self, spelling: str) -> bool:
        token = self._tokens[self._index]
        return token.value == spelling and token.kind is _PUNCT

    def _check_keyword(self, word: str) -> bool:
        token = self._tokens[self._index]
        return token.value == word and token.kind is _KEYWORD

    def _accept_punct(self, spelling: str) -> bool:
        token = self._tokens[self._index]
        if token.value == spelling and token.kind is _PUNCT:
            self._index += 1
            return True
        return False

    def _accept_keyword(self, word: str) -> bool:
        token = self._tokens[self._index]
        if token.value == word and token.kind is _KEYWORD:
            self._index += 1
            return True
        return False

    def _expect_punct(self, spelling: str) -> Token:
        token = self._tokens[self._index]
        if token.value != spelling or token.kind is not _PUNCT:
            raise ParseError(f"expected {spelling!r}, found {token.value!r}", token.location)
        self._index += 1
        return token

    def _expect_keyword(self, word: str) -> Token:
        token = self._tokens[self._index]
        if token.value != word or token.kind is not _KEYWORD:
            raise ParseError(f"expected keyword {word!r}, found {token.value!r}", token.location)
        self._index += 1
        return token

    def _expect_identifier(self) -> Token:
        token = self._tokens[self._index]
        if token.kind is not _IDENT:
            raise ParseError(f"expected identifier, found {token.value!r}", token.location)
        self._index += 1
        return token

    # ------------------------------------------------------------------ #
    # pragmas
    # ------------------------------------------------------------------ #
    def _consume_pragmas(self) -> None:
        """Consume and interpret any pragma tokens at the current position."""
        while self._peek().kind is TokenKind.PRAGMA:
            token = self._advance()
            self._handle_pragma(token.value, token.location)

    def _handle_pragma(self, body: str, location: SourceLocation) -> None:
        parts = body.replace("(", " ").replace(")", " ").replace(",", " ").split()
        if not parts:
            return
        head = parts[0]
        if head == "loopbound":
            if len(parts) != 2 or not _is_int(parts[1]):
                raise ParseError(f"malformed loopbound pragma: {body!r}", location)
            self._pending_loop_bound = int(parts[1])
        elif head == "input":
            if len(parts) < 2:
                raise ParseError(f"malformed input pragma: {body!r}", location)
            for name in parts[1:]:
                if name not in self._input_variables:
                    self._input_variables.append(name)
        elif head == "range":
            if len(parts) != 4 or not (_is_int(parts[2]) and _is_int(parts[3])):
                raise ParseError(f"malformed range pragma: {body!r}", location)
            self._range_annotations[parts[1]] = IntRange(int(parts[2]), int(parts[3]))
        # unknown pragmas are silently ignored (like a C compiler would)

    def _take_loop_bound(self) -> int | None:
        bound = self._pending_loop_bound
        self._pending_loop_bound = None
        return bound

    # ------------------------------------------------------------------ #
    # types
    # ------------------------------------------------------------------ #
    def _at_type(self) -> bool:
        token = self._peek()
        if token.kind is TokenKind.KEYWORD and (
            token.value in _TYPE_KEYWORDS or token.value in _QUALIFIER_KEYWORDS
        ):
            return True
        if token.kind is TokenKind.IDENT and lookup_type(token.value) is not None:
            # A typedef-style name (Int16, UInt8, ...) is only a type if it is
            # followed by an identifier -- otherwise it is a plain variable use.
            nxt = self._lookahead(1)
            return nxt.kind is TokenKind.IDENT
        return False

    def _parse_type(self) -> CType:
        words: list[str] = []
        while True:
            token = self._peek()
            if token.kind is TokenKind.KEYWORD and token.value in _QUALIFIER_KEYWORDS:
                self._advance()
                continue
            if token.kind is TokenKind.KEYWORD and token.value in _TYPE_KEYWORDS:
                words.append(self._advance().value)
                continue
            break
        if not words:
            token = self._peek()
            if token.kind is TokenKind.IDENT and lookup_type(token.value) is not None:
                words.append(self._advance().value)
        spelling = " ".join(words)
        ctype = lookup_type(spelling)
        if ctype is None:
            raise ParseError(f"unknown type {spelling!r}", token.location)
        return ctype

    # ------------------------------------------------------------------ #
    # top level
    # ------------------------------------------------------------------ #
    def parse_program(self) -> Program:
        program = Program()
        self._consume_pragmas()
        while self._peek().kind is not TokenKind.EOF:
            location = self._peek().location
            ctype = self._parse_type()
            name_token = self._expect_identifier()
            name = name_token.value
            if self._check_punct("("):
                item = self._parse_function_or_prototype(ctype, name, location)
                if item is not None:
                    program.functions.append(item)
                else:
                    if name not in program.external_functions:
                        program.external_functions.append(name)
            else:
                program.globals.extend(self._parse_global_tail(ctype, name, location))
            self._consume_pragmas()
        program.input_variables = list(self._input_variables)
        program.range_annotations = dict(self._range_annotations)
        self._apply_annotations(program)
        return program

    def _apply_annotations(self, program: Program) -> None:
        global_names = {decl.name for decl in program.globals}
        for decl in program.globals:
            if decl.name in self._input_variables:
                decl.is_input = True
            if decl.name in self._range_annotations:
                decl.declared_range = self._range_annotations[decl.name]
        for name in self._input_variables:
            if name not in global_names:
                raise ParseError(f"#pragma input names unknown global {name!r}")

    def _parse_global_tail(
        self, ctype: CType, first_name: str, location: SourceLocation
    ) -> list[GlobalDecl]:
        """Parse the remainder of ``type name [= init] (, name [= init])* ;``."""
        decls: list[GlobalDecl] = []
        name = first_name
        while True:
            init: Expr | None = None
            if self._accept_punct("="):
                init = self._parse_assignment_expr()
            decls.append(GlobalDecl(name=name, var_type=ctype, init=init, location=location))
            if self._accept_punct(","):
                name = self._expect_identifier().value
                continue
            self._expect_punct(";")
            return decls

    def _parse_function_or_prototype(
        self, return_type: CType, name: str, location: SourceLocation
    ) -> FunctionDef | None:
        """Parse a parameter list followed by either a body or ``;``."""
        self._expect_punct("(")
        params: list[Parameter] = []
        if not self._check_punct(")"):
            if self._check_keyword("void") and self._lookahead(1).is_punct(")"):
                self._advance()
            else:
                while True:
                    param_loc = self._peek().location
                    param_type = self._parse_type()
                    param_name = self._expect_identifier().value
                    params.append(
                        Parameter(name=param_name, param_type=param_type, location=param_loc)
                    )
                    if not self._accept_punct(","):
                        break
        self._expect_punct(")")
        if self._accept_punct(";"):
            return None  # prototype of an external function
        body = self._parse_compound()
        return FunctionDef(
            name=name,
            return_type=return_type,
            params=params,
            body=body,
            location=location,
        )

    # ------------------------------------------------------------------ #
    # statements
    # ------------------------------------------------------------------ #
    def _parse_compound(self) -> CompoundStmt:
        start = self._expect_punct("{")
        statements: list[Stmt] = []
        self._consume_pragmas()
        while not self._check_punct("}"):
            if self._peek().kind is TokenKind.EOF:
                raise ParseError("unterminated block", start.location)
            statements.append(self._parse_statement())
            self._consume_pragmas()
        self._expect_punct("}")
        return CompoundStmt(statements=statements, location=start.location)

    def _parse_statement(self) -> Stmt:
        self._consume_pragmas()
        token = self._peek()
        if token.is_punct("{"):
            return self._parse_compound()
        if token.is_keyword("if"):
            return self._parse_if()
        if token.is_keyword("switch"):
            return self._parse_switch()
        if token.is_keyword("while"):
            return self._parse_while()
        if token.is_keyword("do"):
            return self._parse_do_while()
        if token.is_keyword("for"):
            return self._parse_for()
        if token.is_keyword("break"):
            self._advance()
            self._expect_punct(";")
            return BreakStmt(location=token.location)
        if token.is_keyword("continue"):
            self._advance()
            self._expect_punct(";")
            return ContinueStmt(location=token.location)
        if token.is_keyword("return"):
            self._advance()
            value = None if self._check_punct(";") else self._parse_expression()
            self._expect_punct(";")
            return ReturnStmt(value=value, location=token.location)
        if token.is_punct(";"):
            self._advance()
            return EmptyStmt(location=token.location)
        if self._at_type():
            return self._parse_declaration()
        expr = self._parse_expression()
        self._expect_punct(";")
        return ExprStmt(expr=expr, location=token.location)

    def _parse_declaration(self) -> Stmt:
        location = self._peek().location
        ctype = self._parse_type()
        name = self._expect_identifier().value
        init: Expr | None = None
        if self._accept_punct("="):
            init = self._parse_assignment_expr()
        decls: list[DeclStmt] = [
            DeclStmt(name=name, var_type=ctype, init=init, location=location)
        ]
        while self._accept_punct(","):
            extra_loc = self._peek().location
            extra_name = self._expect_identifier().value
            extra_init: Expr | None = None
            if self._accept_punct("="):
                extra_init = self._parse_assignment_expr()
            decls.append(
                DeclStmt(name=extra_name, var_type=ctype, init=extra_init, location=extra_loc)
            )
        self._expect_punct(";")
        if len(decls) == 1:
            return decls[0]
        return CompoundStmt(statements=list(decls), location=location)

    def _parse_if(self) -> IfStmt:
        token = self._expect_keyword("if")
        self._expect_punct("(")
        cond = self._parse_expression()
        self._expect_punct(")")
        then_branch = self._parse_statement()
        else_branch: Stmt | None = None
        if self._accept_keyword("else"):
            else_branch = self._parse_statement()
        return IfStmt(
            cond=cond, then_branch=then_branch, else_branch=else_branch, location=token.location
        )

    def _parse_switch(self) -> SwitchStmt:
        token = self._expect_keyword("switch")
        self._expect_punct("(")
        expr = self._parse_expression()
        self._expect_punct(")")
        self._expect_punct("{")
        cases: list[SwitchCase] = []
        while not self._check_punct("}"):
            cases.append(self._parse_switch_case())
        self._expect_punct("}")
        return SwitchStmt(expr=expr, cases=cases, location=token.location)

    def _parse_switch_case(self) -> SwitchCase:
        token = self._peek()
        values: list[int] = []
        is_default = False
        while True:
            if self._accept_keyword("case"):
                values.append(self._parse_constant())
                self._expect_punct(":")
            elif self._accept_keyword("default"):
                is_default = True
                self._expect_punct(":")
            else:
                break
        if not values and not is_default:
            raise ParseError("expected 'case' or 'default' label", token.location)
        statements: list[Stmt] = []
        while True:
            self._consume_pragmas()
            if self._check_keyword("break"):
                self._advance()
                self._expect_punct(";")
                break
            if self._check_punct("}") or self._check_keyword("case") or self._check_keyword(
                "default"
            ):
                break
            statements.append(self._parse_statement())
        body = CompoundStmt(statements=statements, location=token.location)
        return SwitchCase(
            values=values, body=body, is_default=is_default, location=token.location
        )

    def _parse_constant(self) -> int:
        expr = self._parse_ternary_expr()
        value = _evaluate_constant(expr)
        if value is None:
            raise ParseError("case label must be a constant expression", expr.location)
        return value

    def _parse_while(self) -> WhileStmt:
        bound = self._take_loop_bound()
        token = self._expect_keyword("while")
        self._expect_punct("(")
        cond = self._parse_expression()
        self._expect_punct(")")
        body = self._parse_statement()
        return WhileStmt(cond=cond, body=body, loop_bound=bound, location=token.location)

    def _parse_do_while(self) -> DoWhileStmt:
        bound = self._take_loop_bound()
        token = self._expect_keyword("do")
        body = self._parse_statement()
        self._expect_keyword("while")
        self._expect_punct("(")
        cond = self._parse_expression()
        self._expect_punct(")")
        self._expect_punct(";")
        return DoWhileStmt(body=body, cond=cond, loop_bound=bound, location=token.location)

    def _parse_for(self) -> ForStmt:
        bound = self._take_loop_bound()
        token = self._expect_keyword("for")
        self._expect_punct("(")
        init: Stmt | None = None
        if not self._check_punct(";"):
            if self._at_type():
                init = self._parse_declaration()
            else:
                init = ExprStmt(expr=self._parse_expression(), location=self._peek().location)
                self._expect_punct(";")
        else:
            self._advance()
        cond: Expr | None = None
        if not self._check_punct(";"):
            cond = self._parse_expression()
        self._expect_punct(";")
        step: Expr | None = None
        if not self._check_punct(")"):
            step = self._parse_expression()
        self._expect_punct(")")
        body = self._parse_statement()
        return ForStmt(
            init=init, cond=cond, step=step, body=body, loop_bound=bound, location=token.location
        )

    # ------------------------------------------------------------------ #
    # expressions
    # ------------------------------------------------------------------ #
    def _parse_expression(self) -> Expr:
        return self._parse_assignment_expr()

    def _parse_assignment_expr(self) -> Expr:
        left = self._parse_ternary_expr()
        token = self._tokens[self._index]
        if token.value in _ASSIGNMENT_OPERATORS and token.kind is _PUNCT:
            self._index += 1
            right = self._parse_assignment_expr()
            if not isinstance(left, Identifier):
                raise ParseError("assignment target must be a variable", token.location)
            op = token.value
            if op == "=":
                value = right
            else:
                value = BinaryOp(
                    op=op[:-1], left=Identifier(name=left.name, location=left.location),
                    right=right, location=token.location,
                )
            return AssignExpr(target=left, value=value, location=left.location)
        return left

    def _parse_ternary_expr(self) -> Expr:
        cond = self._parse_binary_expr(1)
        if self._accept_punct("?"):
            then = self._parse_assignment_expr()
            self._expect_punct(":")
            otherwise = self._parse_ternary_expr()
            return Conditional(cond=cond, then=then, otherwise=otherwise, location=cond.location)
        return cond

    def _parse_binary_expr(self, min_precedence: int) -> Expr:
        """Precedence climbing: fold operators binding at least *min_precedence*.

        Every binary operator is left-associative, so the right operand only
        takes operators that bind strictly tighter.
        """
        left = self._parse_unary_expr()
        tokens = self._tokens
        while True:
            token = tokens[self._index]
            precedence = BINARY_PRECEDENCE.get(token.value, 0)
            if precedence < min_precedence or token.kind is not _PUNCT:
                return left
            self._index += 1
            right = self._parse_binary_expr(precedence + 1)
            left = BinaryOp(op=token.value, left=left, right=right, location=token.location)

    def _parse_unary_expr(self) -> Expr:
        token = self._tokens[self._index]
        if token.kind is _PUNCT:
            if token.value in UNARY_OPERATORS:
                self._index += 1
                operand = self._parse_unary_expr()
                return UnaryOp(op=token.value, operand=operand, location=token.location)
            if token.value == "++" or token.value == "--":
                self._index += 1
                return self._increment(self._parse_unary_expr(), token)
        expr = self._parse_primary_expr()
        while True:
            token = self._tokens[self._index]
            if token.kind is not _PUNCT or (token.value != "++" and token.value != "--"):
                return expr
            self._index += 1
            expr = self._increment(expr, token)

    @staticmethod
    def _increment(target: Expr, token: Token) -> AssignExpr:
        """Desugar ``++``/``--`` (*token*) applied to *target*."""
        if not isinstance(target, Identifier):
            raise ParseError("++/-- target must be a variable", token.location)
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

    def _parse_primary_expr(self) -> Expr:
        token = self._tokens[self._index]
        kind = token.kind
        if kind is _IDENT:
            self._index += 1
            if self._check_punct("("):
                return self._parse_call(token.value, token.location)
            return Identifier(name=token.value, location=token.location)
        if kind is TokenKind.NUMBER:
            self._index += 1
            return IntLiteral(value=token.value, location=token.location)  # type: ignore[arg-type]
        if kind is _KEYWORD and (token.value == "true" or token.value == "false"):
            self._index += 1
            return BoolLiteral(value=token.value == "true", location=token.location)
        if kind is _PUNCT and token.value == "(":
            # Either a cast "(Int16) expr" or a parenthesised expression.
            nxt = self._lookahead(1)
            is_cast = False
            if nxt.kind is TokenKind.KEYWORD and nxt.value in _TYPE_KEYWORDS and nxt.value != "void":
                is_cast = True
            if (
                nxt.kind is TokenKind.IDENT
                and lookup_type(nxt.value) is not None
                and self._lookahead(2).is_punct(")")
            ):
                is_cast = True
            self._index += 1
            if is_cast:
                target_type = self._parse_type()
                self._expect_punct(")")
                operand = self._parse_unary_expr()
                return CastExpr(target_type=target_type, operand=operand, location=token.location)
            expr = self._parse_expression()
            self._expect_punct(")")
            return expr
        raise ParseError(f"unexpected token {token.value!r} in expression", token.location)

    def _parse_call(self, name: str, location: SourceLocation) -> CallExpr:
        self._expect_punct("(")
        args: list[Expr] = []
        if not self._check_punct(")"):
            while True:
                args.append(self._parse_assignment_expr())
                if not self._accept_punct(","):
                    break
        self._expect_punct(")")
        return CallExpr(name=name, args=args, location=location)


# --------------------------------------------------------------------------- #
# helpers and public API
# --------------------------------------------------------------------------- #
def _is_int(text: str) -> bool:
    try:
        int(text)
    except ValueError:
        return False
    return True


def _evaluate_constant(expr: Expr) -> int | None:
    """Compile-time evaluation of case labels, in the board's arithmetic.

    Uses the operators the compiler and interpreter execute
    (:func:`~repro.minic.folding.apply_binary`): masked shift counts, exact
    truncating division.  ``None`` when *expr* is not a constant or cannot
    be evaluated (division by zero).
    """
    if isinstance(expr, IntLiteral):
        return expr.value
    if isinstance(expr, BoolLiteral):
        return int(expr.value)
    if isinstance(expr, UnaryOp):
        value = _evaluate_constant(expr.operand)
        return None if value is None else apply_unary(expr.op, value)
    if isinstance(expr, BinaryOp):
        left = _evaluate_constant(expr.left)
        right = _evaluate_constant(expr.right)
        if left is None or right is None:
            return None
        try:
            return apply_binary(expr.op, left, right)
        except (ValueError, ZeroDivisionError):
            return None
    return None


def parse_program(source: str, filename: str = "<source>") -> Program:
    """Parse mini-C *source* text into an (unchecked) AST."""
    return Parser(tokenize(source, filename)).parse_program()


def parse_expression(source: str) -> Expr:
    """Parse a single expression -- convenient for tests and the REPL."""
    parser = Parser(tokenize(source))
    expr = parser._parse_expression()
    token = parser._peek()
    if token.kind is not TokenKind.EOF:
        raise ParseError(f"trailing input after expression: {token.value!r}", token.location)
    return expr
