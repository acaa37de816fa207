"""Soundness bugs, each pinned by a program and a witness input vector.

Each program below makes (or, once its bug is fixed, made) the analyzer
report a WCET bound that the board exceeds at a known input vector.  Every
input space is wider than the 20,000-vector exhaustive limit, so no
end-to-end run happens and each wrong report still says ``is_safe()``.  The
tests assert the property that should hold, ``bound >= board cycles at the
witness``.  An open bug's test is marked
``xfail(strict=True, raises=AssertionError)``: the fix turns it into an
unexpected pass, which fails the suite until the marker goes, and a crash is
not mistaken for the known failure.  The ``reason`` names the ROADMAP
direction that fixes the bug; a fixed bug's test stays as a plain test.  Do
not loosen these tests or change their programs or witnesses to make a
failure disappear.
"""

from __future__ import annotations

import pytest

from repro.hw import EvaluationBoard
from repro.mc import EngineKind, ModelChecker, Verdict
from repro.mc.query import QueryBudget, QueryEngineOptions
from repro.minic import parse_and_analyze
from repro.optim import OptimizationConfig, build_optimized_model
from repro.pipeline import AnalyzerConfig
from repro.pipeline.analyzer import WcetAnalyzer
from repro.testgen import HybridOptions


def _additions(variable: str, count: int) -> str:
    """``v = v + 1; ... v = v + count;``: a long, cycle-heavy block."""
    return " ".join(f"{variable} = {variable} + {k};" for k in range(1, count + 1))


def _bound_and_cycles(source: str, witness: dict[str, int], config=None):
    analyzed = parse_and_analyze(source)
    report = WcetAnalyzer(analyzed, "f", config or AnalyzerConfig()).analyze()
    cycles = EvaluationBoard(analyzed).run("f", witness).total_cycles
    return report.wcet_bound_cycles, cycles


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP direction 1(b): a budget-exhausted path in a partly "
    "measured segment is dropped instead of charged statically",
)
def test_budget_exhausted_path_is_charged():
    source = f"""
    #pragma input a
    #pragma range a 0 30000
    UInt16 a; Int16 r;
    void f(void) {{ r = 0;
      if ((a % 97) == 20 && (a % 89) == 17) {{ {_additions("r", 15)} }} }}
    """
    config = AnalyzerConfig(
        hybrid=HybridOptions(
            model_checking=QueryEngineOptions(budget=QueryBudget(max_steps=10))
        )
    )
    # a = 3221 takes the inner branch: 204 cycles, the board's maximum
    bound, cycles = _bound_and_cycles(source, {"a": 3221}, config)
    assert bound >= cycles


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP direction 3(a): the model checker reads a call to a "
    "defined callee as 0 and ignores the globals it writes",
)
def test_callee_global_writes_are_modelled():
    source = f"""
    #pragma input a
    #pragma range a 0 30000
    UInt16 a; Int16 g = 0; Int16 out = 0;
    void set_flag(void) {{ g = 5; }}
    void f(void) {{ Int16 t = 0; set_flag();
      if (g == 5) {{ if ((a * 37) % 1000 == 123) {{ {_additions("t", 12)} out = t; }}
                    else {{ out = 1; }} }} else {{ out = 2; }} }}
    """
    bound, cycles = _bound_and_cycles(source, {"a": 29127})
    assert bound >= cycles


STORE_WRAP = f"""
    #pragma input a
    #pragma range a 0 30000
    Int16 a; Int16 t; Int16 r;
    void f(void) {{ t = a * 3; r = 0;
      if (t < 0) {{ if ((a % 97) == 20 && (a % 89) == 17) {{ {_additions("r", 15)} }} }} }}
    """

NARROWING_CAST = f"""
    #pragma input a
    #pragma range a 0 30000
    #pragma input b
    #pragma range b 0 3
    UInt16 a; UInt8 b; Int16 r;
    void f(void) {{ r = 0;
      if ((Int8)a < 0) {{ if ((a % 97) == 20 && (a % 89) == 17 && b == 1) {{ {_additions("r", 15)} }} }} }}
    """


def test_stores_wrap_in_the_model():
    bound, cycles = _bound_and_cycles(STORE_WRAP, {"a": 20487})
    assert bound >= cycles


def test_narrowing_casts_wrap_in_the_solver():
    bound, cycles = _bound_and_cycles(NARROWING_CAST, {"a": 3221, "b": 1})
    assert bound >= cycles


@pytest.mark.parametrize(
    "source, witness",
    [(STORE_WRAP, {"a": 20487}), (NARROWING_CAST, {"a": 3221, "b": 1})],
    ids=["3b-store", "3c-cast"],
)
def test_engines_agree_with_the_board(source, witness):
    """Both engines find the block of the 15 additions on the cfg-preserving
    model, and each witness enters it on the board, as the repro's does."""
    analyzed = parse_and_analyze(source)
    model = build_optimized_model(analyzed, "f", OptimizationConfig.cfg_preserving())
    target = max(model.translation.cfg.real_blocks(), key=lambda block: len(block.statements))
    assert len(target.statements) == 15
    board = EvaluationBoard(analyzed)
    assert target.block_id in board.run("f", witness).trace
    results = {
        engine: ModelChecker(
            model.translation, QueryEngineOptions(engine=engine, slicing=False)
        ).find_test_data_for_block(target.block_id)
        for engine in (EngineKind.EXPLICIT, EngineKind.SYMBOLIC)
    }
    verdicts = {engine: result.verdict for engine, result in results.items()}
    assert set(verdicts.values()) == {Verdict.REACHABLE}, verdicts
    for engine, result in results.items():
        assert target.block_id in board.run("f", result.counterexample.inputs).trace, engine


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP direction 3(b): the model checker clamps a narrowing store "
    "into the variable's domain instead of wrapping it at the variable's type",
)
@pytest.mark.parametrize("store, value", [("a", 149), ("a + 1", 150)], ids=["copy", "sum"])
def test_narrowing_stores_wrap_in_the_model(store, value):
    # a = 3221 stores 149 (150) into u, as 3221 is 12 * 256 + 149: the board
    # reaches 218 (221) cycles there, and the report says 43 (46)
    source = f"""
    #pragma input a
    #pragma range a 0 30000
    UInt16 a; UInt8 u; Int16 r;
    void f(void) {{ u = {store}; r = 0;
      if (u == {value}) {{ if ((a % 97) == 20 && (a % 89) == 17) {{ {_additions("r", 15)} }} }} }}
    """
    bound, cycles = _bound_and_cycles(source, {"a": 3221})
    assert bound >= cycles


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP direction 3(d): the model checker reads an assignment "
    "inside an expression as its value and drops the store",
)
def test_assignments_inside_conditions_store():
    source = f"""
    #pragma input a
    #pragma range a 0 30000
    UInt16 a; Int16 x = 0; Int16 r = 0;
    void f(void) {{ r = 0; if ((x = a) > 10) {{ r = 1; }}
      if (x > 20) {{ if ((a % 97) == 20 && (a % 89) == 17) {{ {_additions("r", 15)} }} }} }}
    """
    bound, cycles = _bound_and_cycles(source, {"a": 3221})
    assert bound >= cycles


def test_initialisers_wrap_in_the_model():
    source = f"""
    #pragma input a
    #pragma range a 0 30000
    UInt16 a; UInt8 w = 300; Int16 r;
    void f(void) {{ r = 0;
      if (w == 44) {{ if ((a % 97) == 20 && (a % 89) == 17) {{ {_additions("r", 15)} }} }} }}
    """
    bound, cycles = _bound_and_cycles(source, {"a": 3221})
    assert bound >= cycles


def test_global_initialisers_wrap_on_the_board():
    # 200 * 200 wraps at Int16 in a function body, so w starts at -25536 on
    # the board as in sa and the model, and the guard is dead
    source = f"""
    #pragma input a
    #pragma range a 0 30000
    UInt16 a; Int32 w = 200 * 200; Int16 r;
    void f(void) {{ r = 0;
      if (w == 40000) {{ if ((a % 97) == 20 && (a % 89) == 17) {{ {_additions("r", 15)} }} }} }}
    """
    bound, cycles = _bound_and_cycles(source, {"a": 3221})
    assert bound >= cycles
