"""Unit tests of the mini-C parser."""

from __future__ import annotations

import pytest

from repro.minic import ast
from repro.minic.errors import ParseError
from repro.minic.folding import apply_binary
from repro.minic.parser import parse_expression, parse_program
from repro.minic.types import BOOL, INT8, INT16, UINT8, UINT16, VOID


def parse_single_function(body: str, header: str = "void f(void)"):
    program = parse_program(f"{header} {{ {body} }}")
    return program.functions[0]


class TestTopLevel:
    def test_empty_function(self):
        function = parse_single_function("")
        assert function.name == "f"
        assert function.return_type is VOID
        assert function.body.statements == []

    def test_function_with_parameters(self):
        program = parse_program("int add(int a, UInt8 b) { return a + b; }")
        function = program.functions[0]
        assert [p.name for p in function.params] == ["a", "b"]
        assert function.params[0].param_type is INT16
        assert function.params[1].param_type is UINT8

    def test_global_declarations(self):
        program = parse_program("int x; UInt16 y = 7; Bool flag = 1;")
        assert [g.name for g in program.globals] == ["x", "y", "flag"]
        assert program.globals[1].var_type is UINT16
        assert isinstance(program.globals[2].init, (ast.IntLiteral, ast.BoolLiteral))

    def test_multiple_globals_in_one_declaration(self):
        program = parse_program("int a, b = 2, c;")
        assert [g.name for g in program.globals] == ["a", "b", "c"]

    def test_prototype_recorded_as_external(self):
        program = parse_program("void helper(void); void f(void) { helper(); }")
        assert "helper" in program.external_functions

    def test_input_pragma(self):
        program = parse_program("#pragma input x\nint x; void f(void) { x = 1; }")
        assert program.input_variables == ["x"]
        assert program.globals[0].is_input

    def test_range_pragma(self):
        program = parse_program("#pragma range x 0 10\nint x;")
        assert program.range_annotations["x"].lo == 0
        assert program.range_annotations["x"].hi == 10
        assert program.globals[0].declared_range is not None

    def test_input_pragma_for_unknown_global_raises(self):
        with pytest.raises(ParseError):
            parse_program("#pragma input nosuch\nint x;")

    def test_type_spellings(self):
        program = parse_program(
            "char c; unsigned char uc; short s; unsigned int u; long l; Bool b;"
        )
        types = [g.var_type for g in program.globals]
        assert types == [INT8, UINT8, INT16, UINT16] + [types[4], BOOL]

    def test_unknown_type_raises(self):
        with pytest.raises(ParseError):
            parse_program("float x;")


class TestStatements:
    def test_if_without_else(self):
        function = parse_single_function("if (1) { }")
        stmt = function.body.statements[0]
        assert isinstance(stmt, ast.IfStmt)
        assert stmt.else_branch is None

    def test_if_else_chain(self):
        function = parse_single_function("if (1) { } else if (2) { } else { }")
        stmt = function.body.statements[0]
        assert isinstance(stmt.else_branch, ast.IfStmt)
        assert stmt.else_branch.else_branch is not None

    def test_while_with_loopbound(self):
        function = parse_single_function("#pragma loopbound(5)\nwhile (1) { }")
        stmt = function.body.statements[0]
        assert isinstance(stmt, ast.WhileStmt)
        assert stmt.loop_bound == 5

    def test_do_while(self):
        function = parse_single_function("int i; do { i = i + 1; } while (i < 3);")
        assert isinstance(function.body.statements[1], ast.DoWhileStmt)

    def test_for_loop(self):
        function = parse_single_function("int i; for (i = 0; i < 4; i = i + 1) { }")
        stmt = function.body.statements[1]
        assert isinstance(stmt, ast.ForStmt)
        assert stmt.cond is not None and stmt.step is not None

    def test_for_loop_with_declaration_init(self):
        function = parse_single_function("for (int i = 0; i < 4; i = i + 1) { }")
        stmt = function.body.statements[0]
        assert isinstance(stmt.init, ast.DeclStmt)

    def test_break_continue_return(self):
        function = parse_single_function(
            "while (1) { if (1) { break; } continue; } return;"
        )
        assert isinstance(function.body.statements[-1], ast.ReturnStmt)

    def test_local_declaration_with_init(self):
        function = parse_single_function("int x = 3 + 4;")
        decl = function.body.statements[0]
        assert isinstance(decl, ast.DeclStmt)
        assert decl.init is not None

    def test_multi_declaration_statement(self):
        function = parse_single_function("int a, b = 1;")
        stmt = function.body.statements[0]
        assert isinstance(stmt, ast.CompoundStmt)
        assert len(stmt.statements) == 2

    def test_empty_statement(self):
        function = parse_single_function(";")
        assert isinstance(function.body.statements[0], ast.EmptyStmt)

    def test_missing_semicolon_raises(self):
        with pytest.raises(ParseError):
            parse_single_function("x = 1")

    def test_unterminated_block_raises(self):
        with pytest.raises(ParseError):
            parse_program("void f(void) { if (1) {")


class TestSwitch:
    def test_switch_case_structure(self):
        function = parse_single_function(
            "int x; switch (x) { case 1: x = 2; break; case 2: case 3: x = 3; break; "
            "default: x = 0; break; }"
        )
        switch = function.body.statements[1]
        assert isinstance(switch, ast.SwitchStmt)
        assert len(switch.cases) == 3
        assert switch.cases[1].values == [2, 3]
        assert switch.default_case is not None

    def test_case_with_constant_expression_label(self):
        function = parse_single_function("int x; switch (x) { case 1 + 2: x = 1; break; }")
        switch = function.body.statements[1]
        assert switch.cases[0].values == [3]

    def test_case_without_label_raises(self):
        with pytest.raises(ParseError):
            parse_single_function("int x; switch (x) { x = 1; break; }")

    def test_non_constant_case_label_raises(self):
        with pytest.raises(ParseError):
            parse_single_function("int x; switch (x) { case x: break; }")

    @staticmethod
    def case_values(label: str) -> list[int]:
        function = parse_single_function(
            f"int x; switch (x) {{ case {label}: x = 1; break; }}"
        )
        return function.body.statements[1].cases[0].values

    def test_case_labels_fold_with_the_boards_arithmetic(self):
        # masked shift counts and exact truncating division, as executed
        assert self.case_values("1 << -1") == [apply_binary("<<", 1, -1)]
        big = 9007199254740993  # 2**53 + 1: not representable as a float
        assert self.case_values(f"{big} / 1") == [apply_binary("/", big, 1)]
        assert self.case_values("-7 / 2") == [apply_binary("/", -7, 2)]
        with pytest.raises(ParseError):
            self.case_values("7 / 0")

    @pytest.mark.parametrize(
        "label",
        ["7 / 0", "7 % 0", "1 << -1", "1 >> -40", "1 << 100", "~5 % 0",
         "1 == 1", "(3 > 2) && 1", "1 ? 2 : 3", "x", "x / 0", "-(4 / 0)"],
    )
    def test_case_label_errors_are_parse_errors(self, label):
        try:
            self.case_values(label)
        except ParseError:
            pass

    def test_case_without_trailing_break_is_accepted_when_last(self):
        function = parse_single_function("int x; switch (x) { default: x = 1; }")
        switch = function.body.statements[1]
        assert switch.cases[0].is_default


class TestExpressions:
    def test_precedence_multiplication_over_addition(self):
        expr = parse_expression("1 + 2 * 3")
        assert isinstance(expr, ast.BinaryOp) and expr.op == "+"
        assert isinstance(expr.right, ast.BinaryOp) and expr.right.op == "*"

    def test_precedence_relational_over_logical(self):
        expr = parse_expression("a < b && c > d")
        assert expr.op == "&&"

    def test_parentheses_override_precedence(self):
        expr = parse_expression("(1 + 2) * 3")
        assert expr.op == "*"

    def test_unary_operators(self):
        expr = parse_expression("!-~x")
        assert isinstance(expr, ast.UnaryOp) and expr.op == "!"

    def test_assignment_is_right_associative(self):
        expr = parse_expression("a = b = 1")
        assert isinstance(expr, ast.AssignExpr)
        assert isinstance(expr.value, ast.AssignExpr)

    def test_compound_assignment_desugared(self):
        expr = parse_expression("x += 2")
        assert isinstance(expr, ast.AssignExpr)
        assert isinstance(expr.value, ast.BinaryOp) and expr.value.op == "+"

    def test_increment_desugared(self):
        expr = parse_expression("x++")
        assert isinstance(expr, ast.AssignExpr)
        assert expr.value.op == "+"

    def test_ternary_expression(self):
        expr = parse_expression("a ? b : c")
        assert isinstance(expr, ast.Conditional)

    def test_call_with_arguments(self):
        expr = parse_expression("min(a, b + 1)")
        assert isinstance(expr, ast.CallExpr)
        assert len(expr.args) == 2

    def test_cast_expression(self):
        expr = parse_expression("(Int16) x")
        assert isinstance(expr, ast.CastExpr)
        assert expr.target_type is INT16

    def test_cast_with_keyword_type(self):
        expr = parse_expression("(unsigned char) x")
        assert isinstance(expr, ast.CastExpr)
        assert expr.target_type is UINT8

    def test_assignment_to_non_variable_raises(self):
        with pytest.raises(ParseError):
            parse_expression("1 = 2")

    def test_trailing_tokens_raise(self):
        with pytest.raises(ParseError):
            parse_expression("a + b c")

    def test_true_false_literals(self):
        expr = parse_expression("true")
        assert isinstance(expr, ast.BoolLiteral) and expr.value is True


class TestNodeInfrastructure:
    def test_node_ids_are_unique(self):
        program = parse_program("void f(void) { int a; a = 1; if (a) { a = 2; } }")
        ids = [node.node_id for node in program.walk()]
        assert len(ids) == len(set(ids))

    def test_walk_visits_nested_nodes(self):
        program = parse_program("void f(void) { if (1) { if (2) { } } }")
        ifs = [n for n in program.walk() if isinstance(n, ast.IfStmt)]
        assert len(ifs) == 2

    def test_program_function_lookup(self):
        program = parse_program("void f(void) { } void g(void) { }")
        assert program.function("g").name == "g"
        with pytest.raises(KeyError):
            program.function("missing")
