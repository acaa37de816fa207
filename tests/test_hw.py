"""Tests of the simulated target: cost model, interpreter, evaluation board."""

from __future__ import annotations

import pytest

from repro.cfg import build_cfg
from repro.hw import (
    CostModel,
    EvaluationBoard,
    ExecutionError,
    HCS12_COST_MODEL,
    Interpreter,
    RunArtifacts,
    uniform_cost_model,
)
from repro.measurement import MeasurementRunner
from repro.minic import parse_and_analyze
from repro.partition import build_instrumentation_plan, partition_function

from board_walker import BoardWalker


def board_for(source: str, **kwargs) -> EvaluationBoard:
    return EvaluationBoard(parse_and_analyze(source), **kwargs)


class TestCostModel:
    def test_division_costs_more_than_addition(self):
        assert HCS12_COST_MODEL.binary_cost("/", 16) > HCS12_COST_MODEL.binary_cost("+", 16)

    def test_wide_operations_cost_more(self):
        assert HCS12_COST_MODEL.binary_cost("+", 16) >= HCS12_COST_MODEL.binary_cost("+", 8)

    def test_external_call_override(self):
        model = CostModel(external_call_cycles={"printf1": 55})
        assert model.external_call_cost("printf1") == 55
        assert model.external_call_cost("other") == model.default_external_call

    def test_uniform_model_flat_costs(self):
        model = uniform_cost_model(2)
        assert model.binary_cost("*", 16) == 2
        assert model.load_cost(None) == 2


class TestInterpreterSemantics:
    SOURCE = """
    #pragma input a
    #pragma input b
    #pragma range a 0 100
    #pragma range b 0 100
    int a; int b; int result;
    void f(void) {
        if (a > b) {
            result = a - b;
        } else {
            result = b - a;
        }
    }
    """

    def test_branch_semantics(self):
        board = board_for(self.SOURCE)
        assert board.run("f", {"a": 10, "b": 3}).final_environment["result"] == 7
        assert board.run("f", {"a": 3, "b": 10}).final_environment["result"] == 7

    def test_arithmetic_wraps_by_type(self):
        source = "UInt8 x; void f(void) { x = 200; x = x + 100; }"
        board = board_for(source)
        assert board.run("f").final_environment["x"] == 44

    def test_signed_wrapping(self):
        source = "int x; void f(void) { x = 32767; x = x + 1; }"
        board = board_for(source)
        assert board.run("f").final_environment["x"] == -32768

    def test_switch_dispatch(self):
        source = """
        #pragma input s
        #pragma range s 0 5
        int s; int out;
        void f(void) {
            switch (s) {
            case 0: out = 10; break;
            case 1: case 2: out = 20; break;
            default: out = 30; break;
            }
        }
        """
        board = board_for(source)
        assert board.run("f", {"s": 0}).final_environment["out"] == 10
        assert board.run("f", {"s": 2}).final_environment["out"] == 20
        assert board.run("f", {"s": 5}).final_environment["out"] == 30

    def test_loop_execution(self, small_loop_program):
        board = EvaluationBoard(small_loop_program)
        result = board.run("accumulate", {"n": 4})
        assert result.final_environment["total"] == 0 + 1 + 2 + 3

    def test_defined_function_calls(self):
        source = """
        int doubled(int v) { return v + v; }
        #pragma input x
        int x; int y;
        void f(void) { y = doubled(x) + 1; }
        """
        board = board_for(source)
        assert board.run("f", {"x": 5}).final_environment["y"] == 11

    def test_a_callee_local_does_not_overwrite_the_callers(self):
        # C: g's t lives in g's frame, so f still reads its own t == 1
        source = """
        void g(void) { Int16 t = 0; t = 100; }
        Int16 out;
        void f(void) { Int16 t = 0; t = 1; g(); out = t; }
        """
        result = board_for(source).run("f")
        assert result.final_environment["out"] == 1
        assert result.final_environment["t"] == 1

    def test_recursive_calls_keep_their_own_locals(self):
        # C: every activation returns the k it set, so r(3) == 3
        source = """
        Int16 r(Int16 n) { Int16 k = 0; k = n; if (n > 0) { r(n - 1); } return k; }
        Int16 out;
        void f(void) { out = r(3); }
        """
        result = board_for(source).run("f")
        assert result.final_environment["out"] == 3
        assert "k" not in result.final_environment
        assert "n" not in result.final_environment

    def test_a_raising_callee_restores_the_callers_frame(self):
        from repro.hw.interpreter import _RunState

        source = """
        Int16 d; Int16 out;
        Int16 g(Int16 t) { Int16 u = 0; u = 10 / d; return u; }
        void f(void) { Int16 t = 7; out = g(3); }
        """
        code = RunArtifacts().compiled(
            parse_and_analyze(source), HCS12_COST_MODEL, frozenset()
        )
        environment = code.environment_for({})
        with pytest.raises(ExecutionError, match="division by zero"):
            code.run_function("f", environment, _RunState(1_000), True)
        # g's parameter t and local u are gone, f's t is back
        assert environment["t"] == 7
        assert "u" not in environment

    def test_division_by_zero_raises(self):
        source = "#pragma input d\nint d; int r; void f(void) { r = 10 / d; }"
        board = board_for(source)
        with pytest.raises(ExecutionError):
            board.run("f", {"d": 0})

    def test_step_limit_detects_runaway_loops(self):
        source = "int x; void f(void) { x = 0; while (x < 10) { x = x - 1; } }"
        board = board_for(source, max_steps=5_000)
        with pytest.raises(ExecutionError):
            board.run("f")

    def test_conditional_expression(self):
        source = "#pragma input c\nint c; int r; void f(void) { r = c > 0 ? 5 : 9; }"
        board = board_for(source)
        assert board.run("f", {"c": 1}).final_environment["r"] == 5
        assert board.run("f", {"c": 0}).final_environment["r"] == 9

    def test_global_initialisers_respected(self):
        source = "int base = 40; int r; void f(void) { r = base + 2; }"
        board = board_for(source)
        assert board.run("f").final_environment["r"] == 42

    def test_global_initialisers_wrap_as_in_a_body(self):
        source = "Int32 w = 200 * 200; Int32 v; void f(void) { v = 200 * 200; }"
        final = board_for(source).run("f").final_environment
        assert final["w"] == final["v"] == -25536


class TestCycleAccounting:
    def test_cycles_deterministic(self, figure1):
        board = EvaluationBoard(figure1)
        first = board.run("main", {"i": 0}).total_cycles
        second = board.run("main", {"i": 0}).total_cycles
        assert first == second > 0

    def test_longer_path_costs_more(self, figure1):
        board = EvaluationBoard(figure1)
        long_path = board.run("main", {"i": 0}).total_cycles  # executes all printfs
        short_path = board.run("main", {"i": 1}).total_cycles
        assert long_path > short_path

    def test_cost_model_scales_cycles(self, figure1):
        cheap = EvaluationBoard(figure1, cost_model=uniform_cost_model(1))
        expensive = EvaluationBoard(figure1, cost_model=uniform_cost_model(3))
        assert (
            expensive.run("main", {"i": 0}).total_cycles
            > cheap.run("main", {"i": 0}).total_cycles
        )

    def test_block_trace_cycles_monotone(self, figure1):
        board = EvaluationBoard(figure1)
        stamps = board.run("main", {"i": 0}).stamps
        assert list(stamps) == sorted(stamps)

    def test_external_call_cost_included(self):
        with_call = board_for("void f(void) { helper(); }").run("f").total_cycles
        without_call = board_for("int x; void f(void) { x = 1; }").run("f").total_cycles
        assert with_call > without_call


class TestTracesAndEvents:
    def test_block_trace_matches_cfg_path(self, figure1):
        board = EvaluationBoard(figure1)
        run = board.run("main", {"i": 1})
        cfg = board.cfg("main")
        executed = run.trace
        assert executed[0] == cfg.entry.block_id
        assert executed[-1] == cfg.exit.block_id
        # i=1 skips the then-branches
        assert 5 not in executed and 10 not in executed

    def test_edge_trace_connects_blocks(self, figure1):
        # every pair of consecutive trace entries is a CFG edge
        board = EvaluationBoard(figure1)
        cfg = board.cfg("main")
        for inputs in ({"i": 0}, {"i": 1}):
            run = board.run("main", inputs)
            assert len(run.trace) == len(run.stamps) > 2
            for source, target in zip(run.trace, run.trace[1:]):
                assert target in {edge.target for edge in cfg.out_edges(source)}

    def test_branch_events_have_zero_distance_for_taken_outcome(self, figure1):
        board = EvaluationBoard(figure1)
        run = board.run("main", {"i": 0})
        for event in run.branch_events:
            if event.outcome:
                assert event.distance_true == 0.0
            else:
                assert event.distance_false == 0.0

    def test_branch_distance_decreases_toward_boundary(self):
        source = "#pragma input v\n#pragma range v 0 100\nint v; int o; " \
                 "void f(void) { if (v > 90) { o = 1; } }"
        board = board_for(source)
        far = board.run("f", {"v": 10}).branch_events[0].distance_true
        near = board.run("f", {"v": 89}).branch_events[0].distance_true
        assert near < far

    def test_switch_events_recorded(self):
        source = """
        #pragma input s
        #pragma range s 0 3
        int s; int o;
        void f(void) { switch (s) { case 1: o = 1; break; default: o = 0; break; } }
        """
        board = board_for(source)
        run = board.run("f", {"s": 1})
        assert run.switch_events and run.switch_events[0].value == 1


class TestInstrumentedRuns:
    """A run's trace and stamps are the readings of every instrumentation point."""

    def test_stamps_read_the_counter_at_every_trace_position(self, figure1, figure1_cfg):
        board = EvaluationBoard(figure1)
        partition = partition_function(figure1.program.function("main"), 2, figure1_cfg)
        plan = build_instrumentation_plan(partition, figure1_cfg)
        run = board.run("main", {"i": 0})
        # some instrumentation point fires ...
        assert any(block_id in plan.triggers for block_id in run.trace)
        # ... and the counter readings follow the trace position
        assert len(run.stamps) == len(run.trace)
        assert run.stamps[0] == 0
        assert list(run.stamps) == sorted(run.stamps)
        assert run.stamps[-1] <= run.total_cycles

    def test_every_executed_segment_gets_a_time(self, figure1, figure1_cfg):
        board = EvaluationBoard(figure1)
        partition = partition_function(figure1.program.function("main"), 2, figure1_cfg)
        plan = build_instrumentation_plan(partition, figure1_cfg)
        runner = MeasurementRunner(board, "main", partition, plan, figure1_cfg)
        run = board.run("main", {"i": 0})
        timed = {segment_id for segment_id, _, _ in runner.segment_times(run)}
        executed = set(run.trace)
        for segment in partition.segments:
            if segment.entry_block in executed:
                assert segment.segment_id in timed

    def test_interpreter_exposed_by_board(self, figure1):
        board = EvaluationBoard(figure1)
        assert isinstance(board.interpreter, Interpreter)


class TestBoardMemo:
    """The memoising board: identical, immutable results, one run per vector."""

    #: 64 input vectors; every run exercises a switch, a branch and a call
    SOURCE = """
    #pragma input a
    #pragma input m
    #pragma range a 0 7
    #pragma range m 0 7
    int a; int m; int out;
    int twice(int v) { return v + v; }
    void f(void) {
        out = 0;
        switch (m) {
        case 0: out = 1; break;
        case 3: case 5: out = twice(a); break;
        default: out = 2; break;
        }
        if (a > 4 && out != 2) {
            out = out - a;
        }
    }
    """

    VECTORS = [{"a": a, "m": m} for a in range(8) for m in range(8)]

    def test_memoised_runs_match_a_fresh_interpreter(self):
        analyzed = parse_and_analyze(self.SOURCE)
        board = EvaluationBoard(analyzed, memoise=True)
        fresh = Interpreter(analyzed)
        for _ in range(2):
            for vector in self.VECTORS:
                memoised, expected = board.run("f", vector), fresh.run("f", vector)
                assert memoised.total_cycles == expected.total_cycles
                assert memoised.trace == expected.trace
                assert memoised.stamps == expected.stamps
                assert memoised.branch_events == expected.branch_events
                assert memoised.switch_events == expected.switch_events
                assert dict(memoised.final_environment) == dict(
                    expected.final_environment
                )
        assert (board.runs, board.memo_hits, board.memo_size) == (128, 64, 64)

    def test_hit_returns_the_same_object(self):
        board = board_for(self.SOURCE, memoise=True)
        first = board.run("f", {"a": 6, "m": 3})
        assert board.run("f", {"m": 3, "a": 6}) is first
        assert board.run("f", {"a": 6, "m": 5}) is not first

    def test_results_are_immutable(self):
        result = board_for(self.SOURCE).run("f", {"a": 6, "m": 3})
        assert result.branch_events and result.switch_events
        with pytest.raises(AttributeError):
            result.trace.append(result.trace[0])
        with pytest.raises(TypeError):
            result.final_environment["out"] = 0
        with pytest.raises(TypeError):
            result.inputs["a"] = 0
        with pytest.raises(AttributeError):
            result.total_cycles = 0

    def test_execution_errors_are_not_memoised(self):
        source = "#pragma input d\n#pragma range d 0 3\nint d; int r; void f(void) { r = 10 / d; }"
        board = board_for(source, memoise=True)
        for _ in range(2):
            with pytest.raises(ExecutionError):
                board.run("f", {"d": 0})
        assert board.memo_size == 0

    def test_armed_injector_bypasses_the_memo(self, monkeypatch):
        from repro.resilience import (
            FaultInjector,
            FaultPlan,
            ResilienceContext,
            activate,
        )

        calls = []
        original = Interpreter.run

        def counting_run(self, *args, **kwargs):
            calls.append(args)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(Interpreter, "run", counting_run)
        board = board_for(self.SOURCE, memoise=True)
        plan = FaultPlan.from_args(["interp.step:raise@1000000"])
        with activate(ResilienceContext(injector=FaultInjector(plan))):
            for _ in range(3):
                board.run("f", {"a": 1, "m": 0})
        assert len(calls) == 3
        assert (board.memo_hits, board.memo_size) == (0, 0)

    def test_expired_deadline_raises_on_a_memo_hit(self):
        from repro.resilience import Deadline, JobTimeout, ResilienceContext, activate

        board = board_for(self.SOURCE, memoise=True)
        board.run("f", {"a": 1, "m": 0})
        with activate(ResilienceContext(deadline=Deadline(3600.0))):
            board.run("f", {"a": 1, "m": 0})
        assert board.memo_hits == 1
        with activate(ResilienceContext(deadline=Deadline(0.0))):
            with pytest.raises(JobTimeout):
                board.run("f", {"a": 1, "m": 0})

    @pytest.mark.parametrize("key_range, memoised", [("0 7", True), ("0 2000", False)])
    def test_analyzer_memoises_only_spaces_within_the_search_budget(
        self, monkeypatch, key_range, memoised
    ):
        """64 vectors fit one genetic search's budget (1230); 16,008 do not."""
        import repro.pipeline.analyzer as analyzer_module
        from repro import perf
        from repro.pipeline import WcetAnalyzer

        boards = []

        class RecordingBoard(EvaluationBoard):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                boards.append(self)

        monkeypatch.setattr(analyzer_module, "EvaluationBoard", RecordingBoard)
        source = self.SOURCE.replace("#pragma range a 0 7", f"#pragma range a {key_range}")
        registry = perf.PerfRegistry()
        with perf.using_registry(registry):
            WcetAnalyzer.from_source(source, "f").analyze()
        (board,) = boards
        if memoised:
            assert 0 < board.memo_size <= 64
            assert board.memo_hits > 0
        else:
            assert board.memo_size == 0
            assert board.memo_hits == 0
        assert registry.counter("hw.board.runs") == board.runs
        assert registry.counter("hw.board.memo_hits") == board.memo_hits


# ---------------------------------------------------------------------- #
# compiled board vs the step-by-step walker
# ---------------------------------------------------------------------- #
#: a counted loop that crosses several deadline polls, a call returning a
#: value, a switch whose dispatch cost depends on the case, ``?:`` and
#: short-circuit operators (data-dependent step counts), and a division by
#: an input that can be 0
LOOP_SOURCE = """
#pragma input n
#pragma input d
#pragma input k
#pragma range n 0 100
#pragma range d 0 6
#pragma range k -40 40
int n; int d; Int8 k; Int16 acc; int q;
int scale(int v) {
    if (v > 3) {
        return v * 2;
    }
    return v - 1;
}
void spin(void) {
    int i;
    acc = 0;
    i = 0;
    #pragma loopbound(100)
    while (i < n) {
        acc = acc + i * 3 + k;
        if (i > 10 && (acc & 1) == 0 || k < -30) {
            acc = acc - (k > 0 ? 1 : 2);
        }
        if (i == 7) {
            acc = acc + scale(d);
        }
        i = i + 1;
    }
    q = acc / d;
    switch (d) {
    case 1: q = q + 1; break;
    case 2: case 3: q = q * 2; break;
    case 5: q = (Int8)(q << 3); break;
    default: q = -q; break;
    }
}
"""

#: globals started by wrapping, bool, cast and ``?:`` initialisers
INITIALISERS_SOURCE = """
#pragma input a
#pragma range a -40 40
Int16 a; Int32 big = 200 * 200; UInt8 wrapped = 300; UInt8 flag = true; Bool on = 7;
Int8 narrow = (Int8)300; Int16 pick = 1 ? 5 : -6; Int16 out;
void start(void) {
    out = 0;
    if (big + a < -25500) {
        out = out + 1;
    }
    if (wrapped == a + 4) {
        out = out + 2;
    }
    if (flag && on) {
        out = out + narrow;
    }
    big = big * pick + a;
    out = out + (Int16)big;
}
"""

#: defined callees run inside a loop: a counted loop, self-recursion bounded
#: by the parameter, calls inside && and ?:, a division by zero in a callee
CALLS_SOURCE = """
#pragma input n
#pragma input d
#pragma input k
#pragma range n 0 30
#pragma range d -2 3
#pragma range k -50 50
int n; int d; int k; Int16 out;
int tally(int m) {
    int i;
    int s;
    s = 0;
    #pragma loopbound(30)
    for (i = 0; i < m; i = i + 1) {
        s = s + i * k;
    }
    return s / d;
}
int depth(int m) {
    if (m <= 0) {
        return 0;
    }
    return depth(m - 1) + 1;
}
void nest(void) {
    int j;
    int acc;
    acc = 0;
    #pragma loopbound(30)
    for (j = 0; j < n; j = j + 1) {
        acc = acc + tally(j) * 2 + depth(j % 7);
        if (j > 3 && depth(k & 7) > 2) {
            acc = acc - 1;
        }
    }
    out = acc > 0 ? tally(n % 5) : depth(n);
}
"""


class TestLazyCfgs:
    SOURCE = """
int g(int x) { return x + 1; }
int h(int x) { return x * 2; }
int s(int x) { return x - 1; }
int unused(int x) { return x; }
int f(int x) { int r; r = g(x); r = h(r); r = s(r); return r; }
"""

    def test_board_builds_cfgs_of_the_functions_it_runs(self, monkeypatch):
        import repro.hw.artifacts as artifacts_module

        built = []

        def counting_build_cfg(function):
            built.append(function.name)
            return build_cfg(function)

        monkeypatch.setattr(artifacts_module, "build_cfg", counting_build_cfg)
        board = board_for(self.SOURCE, stub_functions=("s",))
        assert built == []
        board.run("f", {"x": 3})
        # f and its unstubbed callees, once each; not s, not unused
        assert sorted(built) == ["f", "g", "h"]
        board.run("f", {"x": 4})
        assert board.cfg("f") is board.cfg("f")
        assert sorted(built) == ["f", "g", "h"]

    def test_unknown_function_raises_execution_error(self):
        board = board_for(self.SOURCE)
        with pytest.raises(ExecutionError, match=r"^no CFG for function 'nope'$"):
            board.cfg("nope")
        with pytest.raises(ExecutionError, match=r"^no CFG for function 'nope'$"):
            Interpreter(parse_and_analyze(self.SOURCE)).cfg("nope")


def _differential_programs():
    """(name, analysed program, function) of every program the oracle covers."""
    from repro.workloads.figure1 import figure1_analyzed
    from repro.workloads.multi import generate_call_chain_workload
    from repro.workloads.targetlink import generate_small_application
    from repro.workloads.wiper import WIPER_FUNCTION_NAME, wiper_case_study

    programs = []
    for seed in (11, 2, 5):
        app = generate_small_application(seed=seed)
        programs.append((f"controller_{seed}", parse_and_analyze(app.source), app.function_name))
    for unit, source in sorted(generate_call_chain_workload(2005).sources.items()):
        analyzed = parse_and_analyze(source)
        for function in analyzed.program.functions:
            programs.append((f"{unit}:{function.name}", analyzed, function.name))
    programs.append(("wiper", parse_and_analyze(wiper_case_study().source), WIPER_FUNCTION_NAME))
    programs.append(("figure1", figure1_analyzed(), "main"))
    programs.append(("initialisers", parse_and_analyze(INITIALISERS_SOURCE), "start"))
    programs.append(("calls", parse_and_analyze(CALLS_SOURCE), "nest"))
    programs.append(("loop", parse_and_analyze(LOOP_SOURCE), "spin"))
    return programs


def _vectors(analyzed, function, count, seed=2005):
    """*count* seeded random vectors plus the corners of the input ranges."""
    import random

    from repro.testgen.inputs import InputSpace

    space = InputSpace.from_program(analyzed, function)
    rng = random.Random(seed)
    lows = {v.name: v.value_range.lo for v in space.variables}
    highs = {v.name: v.value_range.hi for v in space.variables}
    corners = [lows, highs]
    for variable in space.variables:
        corners.append({**lows, variable.name: variable.value_range.hi})
        corners.append({**highs, variable.name: variable.value_range.lo})
    return corners + [space.random_vector(rng) for _ in range(count)]


def _outcome(run, function, vector):
    """The run result, or ``"<exception type>: <message>"`` of what it raised."""
    try:
        return run(function, vector)
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return f"{type(exc).__name__}: {exc}"


class TestCompiledBoard:
    """``Interpreter.run`` (compiled) against the step-by-step walker (the oracle)."""

    @pytest.fixture(scope="class")
    def programs(self):
        return _differential_programs()

    def test_the_oracle_covers_every_named_program(self, programs):
        names = [name for name, _, _ in programs]
        assert len(names) == 3 + 9 + 5
        assert len([name for name in names if name.startswith("unit_")]) == 9

    def test_run_results_are_identical(self, programs, monkeypatch):
        import repro.hw.interpreter as interpreter_module

        states = []

        class RecordingState(interpreter_module._RunState):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                states.append(self)

        # the final step count is not part of RunResult; compare it too
        monkeypatch.setattr(interpreter_module, "_RunState", RecordingState)
        errors = 0
        for name, analyzed, function in programs:
            interpreter = Interpreter(analyzed)
            walker = BoardWalker(interpreter)
            for vector in _vectors(analyzed, function, 1000):
                compiled = _outcome(interpreter.run, function, vector)
                reference = _outcome(walker.run, function, vector)
                assert compiled == reference, (name, vector)
                if isinstance(compiled, str):
                    errors += compiled.startswith("ExecutionError: division by zero")
                else:
                    assert states[-2].steps == states[-1].steps, (name, vector)
        assert errors > 0  # the loop program divides by zero

    def test_events_carry_the_walker_values(self, programs):
        """Spot-check the fields RunResult equality could hide (exact types)."""
        name, analyzed, function = programs[-1]
        interpreter = Interpreter(analyzed)
        vector = {"n": 40, "d": 2, "k": -35}
        compiled = interpreter.run(function, vector)
        reference = BoardWalker(interpreter).run(function, vector)
        assert compiled.branch_events and compiled.switch_events
        for mine, theirs in zip(compiled.branch_events, reference.branch_events):
            assert type(mine.outcome) is type(theirs.outcome) is bool
            assert repr(mine.distance_true) == repr(theirs.distance_true)
            assert repr(mine.distance_false) == repr(theirs.distance_false)
        assert [type(e.value) for e in compiled.switch_events] == [int]
        assert dict(compiled.final_environment) == dict(reference.final_environment)
        assert all(
            type(value) is int for value in compiled.final_environment.values()
        )

    def test_unsupported_constructs_raise_when_their_block_runs(self):
        from repro.minic.ast_nodes import EmptyStmt, Expr, ExprStmt

        analyzed = parse_and_analyze(
            "int a; int b; void f(void) { if (a > 0) { b = 1; } else { b = 2; } }"
        )
        interpreter = Interpreter(analyzed)
        arms = {
            block.statements[0].expr.value.value: block
            for block in interpreter.cfg("f").blocks()
            if block.statements
        }
        # neither can come out of the frontend and the CFG builder; the
        # interpreter keeps this CFG and compiles it on the first run
        arms[1].statements.append(EmptyStmt())
        arms[2].statements[0] = ExprStmt(expr=Expr())
        walker = BoardWalker(interpreter)
        for a, error in (
            (1, "ExecutionError: cannot execute statement EmptyStmt"),
            (0, "ExecutionError: cannot evaluate expression Expr"),
        ):
            assert _outcome(interpreter.run, "f", {"a": a}) == error
            assert _outcome(walker.run, "f", {"a": a}) == error

    @pytest.mark.parametrize("max_steps", [5, 100, 1023, 1024, 1025, 3000])
    def test_step_limit_fires_on_the_same_runs(self, programs, max_steps):
        limited = 0
        for name, analyzed, function in programs:
            interpreter = Interpreter(analyzed, max_steps=max_steps)
            walker = BoardWalker(interpreter)
            for vector in _vectors(analyzed, function, 40):
                compiled = _outcome(interpreter.run, function, vector)
                reference = _outcome(walker.run, function, vector)
                assert compiled == reference, (name, vector)
                limited += isinstance(compiled, str) and "exceeded" in compiled
        assert limited > 0

    @pytest.mark.parametrize("armed", [False, True], ids=["clean", "every-poll-faults"])
    def test_block_end_checks_fire_at_the_walker_step(self, armed):
        """Every step limit around a call into a callee that divides by zero,
        and around the first poll of a long run: the first error must be the
        walker's, so a callee's block ends must see the walker's step count
        and a poll above the limit must not fire."""
        from repro.resilience import FaultInjector, FaultPlan, ResilienceContext, activate

        analyzed = parse_and_analyze(CALLS_SOURCE)
        kinds = set()
        for vector, limits in (
            ({"n": 5, "d": 0, "k": 1}, range(1, 60)),
            ({"n": 30, "d": 1, "k": 3}, range(1000, 1060)),
        ):
            for max_steps in limits:
                interpreter = Interpreter(analyzed, max_steps=max_steps)
                outcomes = []
                for run in (interpreter.run, BoardWalker(interpreter).run):
                    plan = FaultPlan.from_args(["interp.step:raise@1+"] if armed else [])
                    with activate(ResilienceContext(injector=FaultInjector(plan))):
                        outcomes.append(_outcome(run, "nest", vector))
                assert outcomes[0] == outcomes[1], (vector, max_steps)
                if isinstance(outcomes[0], str):
                    kinds.add(" ".join(outcomes[0].split()[:2]))
        expected = {"ExecutionError: execution", "ExecutionError: division"}
        if armed:
            expected.add("InjectedFault: injected")
        assert kinds == expected

    @pytest.mark.parametrize("hit", [1, 2, 5, 13])
    def test_step_faults_fire_on_the_same_run(self, programs, hit):
        from repro.resilience import FaultInjector, FaultPlan, ResilienceContext, activate

        def outcomes(reference):
            plan = FaultPlan.from_args([f"interp.step:raise@{hit}"])
            injector = FaultInjector(plan)
            results = []
            with activate(ResilienceContext(injector=injector)):
                for name, analyzed, function in programs:
                    interpreter = Interpreter(analyzed)
                    run = BoardWalker(interpreter).run if reference else interpreter.run
                    for vector in _vectors(analyzed, function, 15, seed=hit):
                        results.append((name, _outcome(run, function, vector)))
            return results, injector.hits("interp.step")

        compiled, compiled_hits = outcomes(reference=False)
        reference, reference_hits = outcomes(reference=True)
        assert compiled == reference
        assert compiled_hits == reference_hits >= hit
        faults = [o for _, o in compiled if isinstance(o, str) and o.startswith("InjectedFault")]
        assert len(faults) == 1

    def test_expired_deadline_times_out_on_the_same_runs(self, programs):
        from repro.resilience import Deadline, ResilienceContext, activate

        for name, analyzed, function in programs:
            interpreter = Interpreter(analyzed)
            vectors = _vectors(analyzed, function, 25)
            with activate(ResilienceContext(deadline=Deadline(0.0))):
                compiled = [_outcome(interpreter.run, function, v) for v in vectors]
                walker = BoardWalker(interpreter)
                reference = [_outcome(walker.run, function, v) for v in vectors]
            assert compiled == reference, name
            if name == "loop":
                timed_out = [o for o in compiled if isinstance(o, str) and o.startswith("JobTimeout")]
                assert 0 < len(timed_out) < len(compiled)
