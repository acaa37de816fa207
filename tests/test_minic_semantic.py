"""Unit tests of semantic analysis (symbol resolution and type checking)."""

from __future__ import annotations

import pytest

from repro.minic import parse_and_analyze
from repro.minic.errors import SemanticError
from repro.minic.folding import initial_value
from repro.minic.types import BOOL, INT16, UINT8, VOID


class TestSymbolResolution:
    def test_tables_created_per_function(self):
        analyzed = parse_and_analyze("void f(void) { } void g(void) { }")
        assert set(analyzed.function_tables) == {"f", "g"}

    def test_globals_visible_in_function(self):
        analyzed = parse_and_analyze("int shared; void f(void) { shared = 1; }")
        assert "shared" in analyzed.table("f").variables

    def test_parameters_are_inputs(self):
        analyzed = parse_and_analyze("void f(int a) { a = a + 1; }")
        assert "a" in analyzed.table("f").inputs

    def test_pragma_inputs_collected(self):
        analyzed = parse_and_analyze("#pragma input x\nint x; void f(void) { x = 1; }")
        assert analyzed.table("f").inputs == ["x"]

    def test_undeclared_variable_raises(self):
        with pytest.raises(SemanticError):
            parse_and_analyze("void f(void) { ghost = 1; }")

    def test_undeclared_read_raises(self):
        with pytest.raises(SemanticError):
            parse_and_analyze("int y; void f(void) { y = ghost; }")

    def test_duplicate_global_raises(self):
        with pytest.raises(SemanticError):
            parse_and_analyze("int x; int x;")

    def test_duplicate_local_raises(self):
        with pytest.raises(SemanticError):
            parse_and_analyze("void f(void) { int a; int a; }")

    def test_shadowing_global_raises(self):
        with pytest.raises(SemanticError):
            parse_and_analyze("int a; void f(void) { int a; }")

    def test_called_functions_recorded(self):
        analyzed = parse_and_analyze("void f(void) { helper(); other(1); }")
        assert analyzed.table("f").called_functions == ["helper", "other"]
        assert set(analyzed.program.external_functions) == {"helper", "other"}

    def test_void_variable_raises(self):
        with pytest.raises(SemanticError):
            parse_and_analyze("void x;")


class TestTypeChecking:
    def test_literal_types(self):
        analyzed = parse_and_analyze("int x; void f(void) { x = 5; }")
        function = analyzed.program.function("f")
        assign = function.body.statements[0].expr
        assert assign.value.ctype is INT16

    def test_relational_result_is_bool(self):
        analyzed = parse_and_analyze("int x; int y; void f(void) { y = x < 3; }")
        assign = analyzed.program.function("f").body.statements[0].expr
        assert assign.value.ctype is BOOL

    def test_common_type_promotion(self):
        analyzed = parse_and_analyze(
            "UInt8 a; UInt8 b; int r; void f(void) { r = a + b; }"
        )
        assign = analyzed.program.function("f").body.statements[0].expr
        assert assign.value.ctype.bits >= 16

    def test_identifier_type_from_declaration(self):
        analyzed = parse_and_analyze("UInt8 small; void f(void) { small = 1; }")
        assign = analyzed.program.function("f").body.statements[0].expr
        assert assign.target.ctype is UINT8

    def test_call_to_known_function_type(self):
        analyzed = parse_and_analyze(
            "int helper(int a) { return a; } int r; void f(void) { r = helper(1); }"
        )
        assign = analyzed.program.function("f").body.statements[0].expr
        assert assign.value.ctype is INT16

    def test_call_to_unknown_function_is_void(self):
        analyzed = parse_and_analyze("void f(void) { log_event(); }")
        call = analyzed.program.function("f").body.statements[0].expr
        assert call.ctype is VOID

    def test_wrong_argument_count_raises(self):
        with pytest.raises(SemanticError):
            parse_and_analyze(
                "int helper(int a) { return a; } void f(void) { helper(1, 2); }"
            )

    def test_return_value_from_void_function_raises(self):
        with pytest.raises(SemanticError):
            parse_and_analyze("void f(void) { return 1; }")

    def test_missing_return_value_raises(self):
        with pytest.raises(SemanticError):
            parse_and_analyze("int f(void) { return; }")

    def test_break_outside_loop_raises(self):
        with pytest.raises(SemanticError):
            parse_and_analyze("void f(void) { break; }")

    def test_continue_outside_loop_raises(self):
        with pytest.raises(SemanticError):
            parse_and_analyze("void f(void) { continue; }")

    def test_duplicate_case_label_raises(self):
        with pytest.raises(SemanticError):
            parse_and_analyze(
                "int x; void f(void) { switch (x) { case 1: break; case 1: break; } }"
            )

    def test_multiple_default_labels_raise(self):
        with pytest.raises(SemanticError):
            parse_and_analyze(
                "int x; void f(void) { switch (x) { default: break; default: break; } }"
            )

    def test_break_inside_switch_allowed(self):
        analyzed = parse_and_analyze(
            "int x; void f(void) { switch (x) { case 1: x = 2; break; } }"
        )
        assert "f" in analyzed.function_tables

    def test_declared_range_attached_to_symbol(self):
        analyzed = parse_and_analyze(
            "#pragma input x\n#pragma range x 2 9\nint x; void f(void) { x = x; }"
        )
        symbol = analyzed.table("f").variables["x"]
        assert symbol.declared_range.lo == 2 and symbol.declared_range.hi == 9


#: a range a UInt8 cannot hold: the board stores -8 as 248, so ``u > 200``
#: is taken, while a model whose domain is the declared range proves it
#: unreachable (the analysis used to report 33 cycles, the board reaches 98
#: at u = -8, a = 3221)
NARROW_TYPE_SOURCE = """
#pragma input u
#pragma input a
#pragma range u -8 10
#pragma range a 0 30000
UInt8 u;
UInt16 a;
Int16 s0; Int16 s1; Int16 s2; Int16 s3; Int16 s4;
Int16 s5; Int16 s6; Int16 s7; Int16 s8; Int16 s9;
void f(void) {
    if (u > 200) {
        if ((a % 97) == 20 && (a % 89) == 17) {
            s0 = 1; s1 = 1; s2 = 1; s3 = 1; s4 = 1;
            s5 = 1; s6 = 1; s7 = 1; s8 = 1; s9 = 1;
        }
    }
}
"""


class TestDeclaredRanges:
    def test_range_outside_the_global_type_raises(self):
        with pytest.raises(SemanticError, match="range \\[-8, 10\\] of 'u'") as caught:
            parse_and_analyze(NARROW_TYPE_SOURCE)
        assert caught.value.location.line == 6

    @pytest.mark.parametrize(
        "source",
        [
            "#pragma range v 0 300\nvoid f(void) { UInt8 v; v = 1; }",
            "#pragma range p -1 3\nvoid f(UInt16 p) { p = p; }",
            "#pragma range b 0 2\nBool b; void f(void) { }",
            "#pragma range w -32769 0\nInt16 w; void f(void) { }",
        ],
        ids=["local", "parameter", "bool", "below-int16"],
    )
    def test_range_outside_any_declared_type_raises(self, source):
        with pytest.raises(SemanticError, match="does not fit its type"):
            parse_and_analyze(source)

    def test_range_at_the_type_limits_is_accepted(self):
        analyzed = parse_and_analyze(
            "#pragma range u 0 255\n#pragma range w -32768 32767\n"
            "UInt8 u; Int16 w; void f(Bool w2) { }"
        )
        assert analyzed.program.global_decl("u").declared_range.hi == 255


class TestGlobalInitialisers:
    @pytest.mark.parametrize("initialiser", ["b", "h()", "1 / 0"])
    def test_initialiser_that_does_not_fold_raises(self, initialiser):
        source = f"Int16 b;\nInt16 w = {initialiser};\nInt16 h(void) {{ return 1; }}"
        with pytest.raises(SemanticError, match="'w' is not a constant") as caught:
            parse_and_analyze(source)
        assert caught.value.location.line == 2

    @pytest.mark.parametrize(
        "declaration, value",
        [
            ("Int16 w = (Int8)300", 44),
            ("Int16 w = 1 ? 5 : 6", 5),
            ("Int32 w = 200 * 200", -25536),  # wraps at Int16, as in a body
            ("UInt8 w = 300", 44),
            ("UInt8 w = true", 1),
            ("Bool w = 7", 1),
            ("Int16 w", 0),
        ],
    )
    def test_constant_initialisers_are_accepted(self, declaration, value):
        analyzed = parse_and_analyze(f"{declaration}; void f(void) {{ }}")
        assert initial_value(analyzed.program.global_decl("w")) == value


class TestWorkloadPrograms:
    def test_figure1_analyses_cleanly(self, figure1):
        table = figure1.table("main")
        assert table.inputs == ["i"]
        assert set(table.called_functions) == {f"printf{i}" for i in range(1, 9)}

    def test_wiper_code_analyses_cleanly(self, wiper_code, wiper_function_name):
        table = wiper_code.analyzed.table(wiper_function_name)
        assert "wiper_state" in table.variables
        assert "speed_selector" in table.inputs

    def test_eval_program_variable_inventory(self, eval_program, eval_function_name):
        from repro.workloads.optimisation_eval import BOOLEAN_VARIABLES, BYTE_VARIABLES

        table = eval_program.table(eval_function_name)
        for name in BOOLEAN_VARIABLES + BYTE_VARIABLES:
            assert name in table.variables
