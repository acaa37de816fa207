"""Property-based tests (hypothesis) on core invariants.

Random structured programs are generated from a small statement grammar; the
properties cover the frontend round-trip, CFG well-formedness, partition
invariants, interpreter/cost-model determinism, the solver's soundness and the
type system's wrapping rules.
"""

from __future__ import annotations

import random as stdlib_random

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cfg import build_cfg, count_ast_paths, count_cfg_paths
from repro.hw import EvaluationBoard
from repro.minic import parse_and_analyze, parse_program, print_program
from repro.minic.parser import parse_expression
from repro.minic.types import BOOL, INT8, INT16, UINT8, UINT16, IntRange
from repro.partition import partition_function
from repro.minic.intervals import RangeEnvironment, SoundEvaluator
from repro.solver import Constraint, ConstraintSolver, concrete_eval

# --------------------------------------------------------------------------- #
# program generator (deterministic from a seed drawn by hypothesis)
# --------------------------------------------------------------------------- #
_VARIABLES = ["a", "b", "c", "d"]
_INPUTS = ["u", "v"]


def _gen_expr(rng: stdlib_random.Random, depth: int) -> str:
    if depth <= 0 or rng.random() < 0.4:
        choice = rng.random()
        if choice < 0.4:
            return str(rng.randint(0, 20))
        return rng.choice(_VARIABLES + _INPUTS)
    op = rng.choice(["+", "-", "*"])
    return f"({_gen_expr(rng, depth - 1)} {op} {_gen_expr(rng, depth - 1)})"


def _gen_condition(rng: stdlib_random.Random) -> str:
    op = rng.choice(["<", "<=", ">", ">=", "==", "!="])
    return f"{rng.choice(_VARIABLES + _INPUTS)} {op} {rng.randint(0, 20)}"


def _gen_statement(rng: stdlib_random.Random, depth: int) -> str:
    choice = rng.random()
    if depth <= 0 or choice < 0.45:
        return f"{rng.choice(_VARIABLES)} = {_gen_expr(rng, 2)};"
    if choice < 0.60:
        return f"probe_{rng.randint(0, 3)}();"
    if choice < 0.85:
        body = " ".join(_gen_statement(rng, depth - 1) for _ in range(rng.randint(1, 3)))
        if rng.random() < 0.5:
            other = " ".join(_gen_statement(rng, depth - 1) for _ in range(rng.randint(1, 2)))
            return f"if ({_gen_condition(rng)}) {{ {body} }} else {{ {other} }}"
        return f"if ({_gen_condition(rng)}) {{ {body} }}"
    cases = []
    for value in range(rng.randint(2, 4)):
        case_body = " ".join(_gen_statement(rng, depth - 1) for _ in range(rng.randint(1, 2)))
        cases.append(f"case {value}: {case_body} break;")
    return f"switch ({rng.choice(_INPUTS)}) {{ {' '.join(cases)} default: break; }}"


def generate_program(seed: int) -> str:
    rng = stdlib_random.Random(seed)
    body = " ".join(_gen_statement(rng, 2) for _ in range(rng.randint(2, 6)))
    decls = "\n".join(f"int {name};" for name in _VARIABLES)
    pragmas = "\n".join(f"#pragma input {name}\n#pragma range {name} 0 15" for name in _INPUTS)
    inputs = "\n".join(f"int {name};" for name in _INPUTS)
    return f"{pragmas}\n{inputs}\n{decls}\nvoid f(void) {{ {body} }}\n"


# --------------------------------------------------------------------------- #
# frontend properties
# --------------------------------------------------------------------------- #
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_pretty_print_round_trip_is_stable(seed: int):
    source = generate_program(seed)
    once = print_program(parse_program(source))
    twice = print_program(parse_program(once))
    assert once == twice


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_generated_programs_analyze_and_build_cfgs(seed: int):
    analyzed = parse_and_analyze(generate_program(seed))
    cfg = build_cfg(analyzed.program.function("f"))
    cfg.validate()
    # structural and CFG path counts agree on loop-free generated programs
    assert count_cfg_paths(cfg) == count_ast_paths(analyzed.program.function("f"))


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=10_000), bound=st.integers(min_value=1, max_value=50))
def test_partition_invariants_on_random_programs(seed: int, bound: int):
    analyzed = parse_and_analyze(generate_program(seed))
    function = analyzed.program.function("f")
    cfg = build_cfg(function)
    result = partition_function(function, bound, cfg)
    result.validate(cfg)
    assert result.instrumentation_points == 2 * len(result.segments)
    assert result.measurements >= len(result.segments)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    u=st.integers(min_value=0, max_value=15),
    v=st.integers(min_value=0, max_value=15),
)
def test_interpreter_is_deterministic_and_counts_cycles(seed: int, u: int, v: int):
    analyzed = parse_and_analyze(generate_program(seed))
    board = EvaluationBoard(analyzed)
    first = board.run("f", {"u": u, "v": v})
    second = board.run("f", {"u": u, "v": v})
    assert first.total_cycles == second.total_cycles > 0
    assert first.trace == second.trace
    assert list(first.stamps) == sorted(first.stamps)


# --------------------------------------------------------------------------- #
# type-system properties
# --------------------------------------------------------------------------- #
@settings(max_examples=200, deadline=None)
@given(value=st.integers(min_value=-(10**9), max_value=10**9))
def test_wrapping_is_idempotent_and_in_range(value: int):
    for ctype in (BOOL, INT8, UINT8, INT16, UINT16):
        wrapped = ctype.wrap(value)
        assert ctype.min_value <= wrapped <= ctype.max_value
        assert ctype.wrap(wrapped) == wrapped


@settings(max_examples=100, deadline=None)
@given(lo=st.integers(-1000, 1000), size=st.integers(0, 2000))
def test_int_range_bits_bound_size(lo: int, size: int):
    value_range = IntRange(lo, lo + size)
    assert 2 ** value_range.bits() >= value_range.size()


# --------------------------------------------------------------------------- #
# solver properties
# --------------------------------------------------------------------------- #
_EXPR_OPS = ["+", "-", "*"]
_CMP_OPS = ["<", "<=", ">", ">=", "==", "!="]


def _constraint_text(rng: stdlib_random.Random) -> str:
    left = rng.choice(["x", "y", "z"])
    if rng.random() < 0.5:
        right = str(rng.randint(-20, 40))
    else:
        right = f"{rng.choice(['x', 'y', 'z'])} {rng.choice(_EXPR_OPS)} {rng.randint(0, 10)}"
    return f"{left} {rng.choice(_CMP_OPS)} {right}"


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=100_000), count=st.integers(1, 4))
def test_solver_models_satisfy_their_constraints(seed: int, count: int):
    rng = stdlib_random.Random(seed)
    constraints = [Constraint(parse_expression(_constraint_text(rng))) for _ in range(count)]
    solver = ConstraintSolver(
        {"x": IntRange(0, 30), "y": IntRange(-10, 20), "z": IntRange(0, 50)},
        constraints,
        max_nodes=50_000,
    )
    solution = solver.solve()
    if solution is not None:
        for constraint in constraints:
            assert constraint.check(solution.assignment)
    else:
        # UNSAT answers are cross-checked by brute force on a coarse grid
        for x in range(0, 31, 3):
            for y in range(-10, 21, 3):
                for z in range(0, 51, 5):
                    assignment = {"x": x, "y": y, "z": z}
                    assert not all(c.check(assignment) for c in constraints)


def _gen_typed_expr(rng: stdlib_random.Random, depth: int) -> str:
    """An Int16 expression over ``x`` and ``y`` with narrowing casts and
    products that overflow Int16."""
    if depth <= 0 or rng.random() < 0.3:
        return rng.choice(["x", "y", str(rng.randint(0, 20)), str(rng.randint(100, 3000))])
    if rng.random() < 0.3:
        return f"(({rng.choice(['Int8', 'UInt8'])}) {_gen_typed_expr(rng, depth - 1)})"
    op = rng.choice(["+", "-", "*", "*"])
    return f"({_gen_typed_expr(rng, depth - 1)} {op} {_gen_typed_expr(rng, depth - 1)})"


_X_RANGE, _Y_RANGE = IntRange(-2000, 30000), IntRange(-300, 300)


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(min_value=0, max_value=100_000),
    x=st.integers(_X_RANGE.lo, _X_RANGE.hi),
    y=st.integers(_Y_RANGE.lo, _Y_RANGE.hi),
)
def test_interval_eval_encloses_concrete_eval(seed: int, x: int, y: int):
    """The solver's interval encloses ``concrete_eval``, which is the value the
    board stores, on typed (Int16, casts) and untyped expressions."""
    text = _gen_typed_expr(stdlib_random.Random(seed), 3)
    source = f"""
    #pragma input x
    #pragma input y
    Int16 x; Int16 y; Int16 out;
    void f(void) {{ out = {text}; }}
    """
    analyzed = parse_and_analyze(source)
    typed = analyzed.program.functions[0].body.statements[0].expr.value
    ranges = RangeEnvironment({"x": _X_RANGE, "y": _Y_RANGE})
    assignment = {"x": x, "y": y}
    for expr in (typed, parse_expression(text)):
        concrete = concrete_eval(expr, assignment)
        interval = SoundEvaluator({}).evaluate(expr, ranges)
        assert interval.lo <= concrete <= interval.hi, (text, expr.ctype)
    stored = EvaluationBoard(analyzed).run("f", assignment).final_environment["out"]
    assert concrete_eval(typed, assignment) == stored, text
