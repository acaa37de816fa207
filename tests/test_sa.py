"""Static-analysis tests: feasibility, loop bounds, diagnostics, soundness.

The heart of this file is the *differential* suite: every edge/block the
static analysis calls infeasible is checked against the model checker on
the optimised model, and the prefiltered query engine must return verdicts
bit-identical to the unfiltered one.  The board oracle checks the same
claims against real executions: no block sa calls unreachable and no edge
it calls infeasible ever runs on the board.  Soundness is the whole
contract -- a single disagreement here is a bug in :mod:`repro.sa`, never in
the MC or the board.
"""

from __future__ import annotations

import random

import pytest

from repro.cfg import EdgeKind, TerminatorKind, build_cfg
from repro.cfg.paths import enumerate_paths
from repro.hw import Interpreter
from repro.mc import ModelChecker, Verdict
from repro.mc.property import GoalBuilder
from repro.mc.query import QueryBudget, QueryEngine, QueryEngineOptions
from repro.minic import parse_and_analyze
from repro.optim.pipeline import OptimizationConfig, build_optimized_model
from repro.pipeline.analyzer import AnalyzerConfig, WcetAnalyzer
from repro.sa import (
    StaticPrefilter,
    analyze_feasibility,
    defined_functions,
    diagnose,
    infer_loop_bounds,
    max_severity,
    render_diagnostics,
    run_static_analysis,
)
from repro.partition import partition_function
from repro.testgen import InputSpace, build_targets
from repro.testgen.hybrid import HybridOptions
from repro.transsys import edge_label
from repro.wcet.end_to_end import enumerate_input_space
from repro.workloads.multi import (
    generate_call_chain_workload,
    generate_multi_function_workload,
)
from repro.workloads.targetlink import generate_small_application
from repro.workloads.wiper import wiper_case_study

pytestmark = pytest.mark.sa


def parsed_function(body: str, header: str = "void f(void)", prelude: str = ""):
    analyzed = parse_and_analyze(f"{prelude}\n{header} {{ {body} }}")
    return analyzed, build_cfg(analyzed.program.function("f"))


def feasibility(analyzed, function_name: str, cfg=None):
    """sa's result for one function under the prefilter's entry rule."""
    if cfg is None:
        cfg = build_cfg(analyzed.program.function(function_name))
    return analyze_feasibility(
        cfg,
        analyzed.table(function_name),
        defined_functions(analyzed.program),
        initialised=True,
    )


def feasibility_of(body: str, **kwargs):
    analyzed, cfg = parsed_function(body, **kwargs)
    return cfg, analyzed.table("f"), feasibility(analyzed, "f", cfg)


# ---------------------------------------------------------------------- #
# feasibility unit tests
# ---------------------------------------------------------------------- #
class TestFeasibility:
    def test_constant_false_branch_prunes_true_edge(self):
        cfg, _, result = feasibility_of("int a; a = 1; if (a > 5) { a = 2; }")
        kinds = {kind for _, _, kind in result.infeasible_edges}
        assert EdgeKind.TRUE.value in kinds
        assert result.unreachable_blocks

    def test_constant_true_branch_prunes_false_edge(self):
        cfg, _, result = feasibility_of("int a; a = 1; if (a < 5) { a = 2; }")
        kinds = {kind for _, _, kind in result.infeasible_edges}
        assert EdgeKind.FALSE.value in kinds

    def test_input_dependent_branch_is_not_pruned(self):
        cfg, _, result = feasibility_of(
            "if (x > 0) { y = 1; } else { y = 2; }",
            header="void f(int x)",
            prelude="int y;",
        )
        assert not result.infeasible_edges
        assert not result.unreachable_blocks

    def test_refinement_chains_through_nested_branches(self):
        # inside the x < 3 arm, x > 7 can never hold
        cfg, _, result = feasibility_of(
            "int a; a = 0; if (x < 3) { if (x > 7) { a = 1; } }",
            header="void f(int x)",
        )
        assert result.unreachable_blocks

    def test_pragma_input_range_enables_pruning(self):
        # the declared range [0,3] makes the > 100 arm dead
        cfg, _, result = feasibility_of(
            "int a; a = 0; if (x > 100) { a = 1; }",
            prelude="#pragma input x\n#pragma range x 0 3\nint x;",
        )
        assert result.unreachable_blocks

    def test_defined_callee_keeps_the_arm_feasible(self):
        # set_g() runs on the board and writes g, so the g > 5 arm is taken
        analyzed = parse_and_analyze(DEFINED_CALLEE)
        result = feasibility(analyzed, "f")
        assert not result.infeasible_edges
        assert not result.unreachable_blocks
        assert Interpreter(analyzed).run("f").final_environment["g"] == 2

    def test_undefined_external_writes_no_global(self):
        # ext() only costs cycles on the board: g keeps a's [0, 3] across it
        analyzed = parse_and_analyze(EXTERNAL_CALL)
        result = feasibility(analyzed, "f")
        assert {kind for _, _, kind in result.infeasible_edges} == {
            EdgeKind.TRUE.value
        }
        vectors = every_input(analyzed, "f")
        assert len(vectors) == 4
        # one infeasible edge and the block it leads to, on every input
        assert board_claims_hold(analyzed, "f", vectors) == 2

    def test_non_input_globals_start_at_their_initialisers(self):
        analyzed = parse_and_analyze(INITIALISED_GLOBALS)
        cfg = build_cfg(analyzed.program.function("f"))
        initialised = feasibility(analyzed, "f", cfg)
        # aux >= 130, flag != 0 and wrapped != 44 (300 wraps at UInt8) are
        # dead; the input u keeps its declared range
        assert len(initialised.infeasible_edges) == 3
        assert len(initialised.unreachable_blocks) == 3
        vectors = every_input(analyzed, "f")
        assert len(vectors) == 16
        assert board_claims_hold(analyzed, "f", vectors) == 6
        # the any-value entry of uninitialised models proves none of them
        any_value = analyze_feasibility(
            cfg,
            analyzed.table("f"),
            defined_functions(analyzed.program),
            initialised=False,
        )
        assert not any_value.infeasible_edges

    def test_switch_case_outside_selector_range_is_dead(self):
        cfg, _, result = feasibility_of(
            "int a; a = 0;"
            "switch (x) { case 0: a = 1; break; case 9: a = 2; break; }",
            prelude="#pragma input x\n#pragma range x 0 3\nint x;",
        )
        assert any(kind == EdgeKind.CASE.value for _, _, kind in result.infeasible_edges)

    def test_loop_does_not_diverge(self):
        cfg, _, result = feasibility_of(
            "int i; int s; s = 0; for (i = 0; i < 10; i = i + 1) { s = s + i; }"
        )
        # widening must terminate and the loop body must stay reachable
        assert not result.unreachable_blocks

    def test_graph_walk_agrees_with_fixpoint(self):
        # plain reachability over the CFG minus the proven-infeasible edges
        # must agree with the fixpoint: nothing the fixpoint reached may be
        # cut off, and every fixpoint-unreachable block must be cut off
        cfg, _, result = feasibility_of(
            "int a; a = 1; if (a > 5) { a = 2; } else { a = 3; }"
        )
        walked = cfg.reachable_blocks(infeasible_edges=result.infeasible_edges)
        assert result.reachable <= walked
        assert not (result.unreachable_blocks & walked)

    def test_segments_within_unreachable_region(self):
        from repro.partition.partitioner import PaperPartitioner

        source = (
            "void f(void) { int a; a = 1;"
            " if (a > 5) { a = 2; ext(); a = 3; } a = 4; }"
        )
        analyzed = parse_and_analyze("void ext(void);\n" + source)
        function = analyzed.program.function("f")
        cfg = build_cfg(function)
        result = feasibility(analyzed, "f", cfg)
        partition = PaperPartitioner(2).partition(function, cfg)
        dead = partition.segments_within(result.unreachable_blocks)
        for segment in dead:
            assert segment.block_ids <= result.unreachable_blocks

    def test_overflowing_arithmetic_widens_instead_of_pruning(self):
        # a + a wraps at 16-bit int width; a sound analysis may not prove
        # the branch from the raw (unwrapped) sum
        cfg, _, result = feasibility_of(
            "int a; a = 30000; a = a + 30000; if (a > 0) { a = 1; }"
        )
        assert not result.infeasible_edges


DEFINED_CALLEE = """
int g;
void set_g(void) { g = 9; }
void f(void) { g = 1; set_g(); if (g > 5) { g = 2; } }
"""

EXTERNAL_CALL = """
#pragma input a
#pragma range a 0 3
int a; int g;
void ext(void);
void f(void) { g = a; ext(); if (g > 5) { g = 2; } }
"""

INITIALISED_GLOBALS = """
#pragma input u
#pragma range u 0 15
int u; int aux = 3; UInt8 flag; UInt8 wrapped = 300;
void f(void) {
    if (u > 7) { aux = aux + 1; }
    if (aux >= 130) { flag = 1; }
    if (flag != 0) { u = 0; }
    if (wrapped != 44) { u = 1; }
}
"""


# ---------------------------------------------------------------------- #
# board oracle: sa's claims against the board's executions
# ---------------------------------------------------------------------- #
def every_input(analyzed, function_name: str) -> list[dict[str, int]]:
    """Every vector of the function's input space (at most 20,000)."""
    ranges = InputSpace.from_program(analyzed, function_name).ranges()
    return enumerate_input_space(ranges, limit=20_000)


def taken_edges(cfg, run):
    """The ``(source, target, kind)`` edge of every step of *run*'s trace."""
    branches = iter(run.branch_events)
    switches = iter(run.switch_events)
    for source, target in zip(run.trace, run.trace[1:]):
        kind = cfg.block(source).terminator.kind
        if kind is TerminatorKind.SWITCH:
            edge = next(switches).taken_edge
        else:
            candidates = [e for e in cfg.out_edges(source) if e.target == target]
            if kind is TerminatorKind.BRANCH:
                event = next(branches)
                assert event.block_id == source
                taken = (
                    (EdgeKind.TRUE, EdgeKind.BACK)
                    if event.outcome
                    else (EdgeKind.FALSE,)
                )
                candidates = [e for e in candidates if e.kind in taken]
            edge = candidates[0]
        assert (edge.source, edge.target) == (source, target)
        yield (edge.source, edge.target, edge.kind.value)


def board_claims_hold(analyzed, function_name: str, vectors) -> int:
    """Run every vector; no run may enter a block or take an edge that sa
    proved dead.  Returns the number of claims checked (0 = vacuous)."""
    board = Interpreter(analyzed)
    cfg = board.cfg(function_name)
    result = feasibility(analyzed, function_name, cfg)
    dead_blocks, dead_edges = result.unreachable_blocks, result.infeasible_edges
    for vector in vectors:
        run = board.run(function_name, vector)
        assert not dead_blocks & set(run.trace), (function_name, vector)
        for edge in taken_edges(cfg, run):
            assert edge not in dead_edges, (function_name, edge, vector)
    return len(dead_blocks) + len(dead_edges)


class TestBoardOracle:
    """sa's verdicts hold on the board, on every input where that is
    enumerable (at most 20,000 vectors) and on seeded vectors elsewhere."""

    def test_wiper_every_input(self):
        case = wiper_case_study()
        vectors = every_input(case.analyzed, case.function_name)
        assert len(vectors) == 108
        board_claims_hold(case.analyzed, case.function_name, vectors)

    def test_call_chain_every_input(self):
        functions = 0
        for source in generate_call_chain_workload(2005).sources.values():
            analyzed = parse_and_analyze(source)
            for function in analyzed.program.functions:
                vectors = every_input(analyzed, function.name)
                board_claims_hold(analyzed, function.name, vectors)
                functions += 1
        assert functions == 9

    def test_small_programs_every_input(
        self, figure1, small_loop_program, branching_program
    ):
        programs = [
            (figure1, "main"),
            (small_loop_program, "accumulate"),
            (branching_program, "classify"),
        ]
        for source in (DEFINED_CALLEE, EXTERNAL_CALL, INITIALISED_GLOBALS):
            programs.append((parse_and_analyze(source), "f"))
        workload = generate_multi_function_workload(seed=2005, functions=3, units=2)
        for source in workload.sources.values():
            analyzed = parse_and_analyze(source)
            programs.extend(
                (analyzed, function.name) for function in analyzed.program.functions
            )
        claims = sum(
            board_claims_hold(analyzed, name, every_input(analyzed, name))
            for analyzed, name in programs
        )
        assert claims > 0

    @pytest.mark.parametrize("seed", [11, 2, 5])
    def test_controller_on_seeded_vectors(self, seed):
        app = generate_small_application(seed=seed)
        space = InputSpace.from_program(app.analyzed, app.function_name)
        rng = random.Random(seed)
        vectors = [space.random_vector(rng) for _ in range(5_000)]
        assert board_claims_hold(app.analyzed, app.function_name, vectors) > 0


# ---------------------------------------------------------------------- #
# loop-bound inference unit tests
# ---------------------------------------------------------------------- #
class TestLoopBounds:
    def bounds_of(self, body: str, **kwargs):
        analyzed, cfg = parsed_function(body, **kwargs)
        return infer_loop_bounds(cfg, analyzed.table("f"))

    def test_classic_counted_loop(self):
        bounds = self.bounds_of(
            "int i; int s; s = 0; for (i = 0; i < 10; i = i + 1) { s = s + i; }"
        )
        assert list(bounds.values()) == [10]

    def test_stride_and_inclusive_limit(self):
        bounds = self.bounds_of(
            "int i; int s; s = 0; for (i = 2; i <= 10; i = i + 3) { s = s + 1; }"
        )
        # 2, 5, 8 -- then 11 > 10
        assert list(bounds.values()) == [3]

    def test_counting_down(self):
        bounds = self.bounds_of(
            "int i; int s; s = 0; for (i = 9; i > 0; i = i - 1) { s = s + 1; }"
        )
        assert list(bounds.values()) == [9]

    def test_counter_written_in_body_refuses(self):
        bounds = self.bounds_of(
            "int i; for (i = 0; i < 10; i = i + 1) { if (i > 3) { i = 9; } }"
        )
        assert bounds == {}

    def test_input_counter_refuses(self):
        bounds = self.bounds_of(
            "int s; s = 0; for (x = 0; x < 10; x = x + 1) { s = s + 1; }",
            header="void f(int x)",
        )
        assert bounds == {}

    def test_non_constant_limit_refuses(self):
        bounds = self.bounds_of(
            "int i; int s; s = 0; for (i = 0; i < x; i = i + 1) { s = s + 1; }",
            header="void f(int x)",
        )
        assert bounds == {}


# ---------------------------------------------------------------------- #
# diagnostics unit tests
# ---------------------------------------------------------------------- #
class TestDiagnostics:
    def diags_of(self, body: str, **kwargs):
        cfg, table, result = feasibility_of(body, **kwargs)
        return diagnose(cfg, table, result)

    def test_uninitialized_read_is_reported(self):
        diagnostics = self.diags_of("int a; int b; b = a + 1;")
        assert any(d.code == "SA001" for d in diagnostics)

    def test_initialized_read_is_clean(self):
        diagnostics = self.diags_of("int a; int b; a = 1; b = a + 1;")
        assert not any(d.code == "SA001" for d in diagnostics)

    def test_unreachable_code_is_reported(self):
        diagnostics = self.diags_of("int a; a = 1; if (a > 5) { a = 2; }")
        assert any(d.code == "SA002" for d in diagnostics)

    def test_definite_division_by_zero_is_an_error(self):
        diagnostics = self.diags_of("int a; int b; b = 0; a = 4 / b;")
        hits = [d for d in diagnostics if d.code == "SA003"]
        assert hits and hits[0].severity == "error"

    def test_possible_division_by_zero_is_a_warning(self):
        diagnostics = self.diags_of(
            "int a; a = 4 / x;", header="void f(int x)"
        )
        hits = [d for d in diagnostics if d.code == "SA003"]
        assert hits and hits[0].severity == "warning"

    def test_signed_overflow_is_reported(self):
        diagnostics = self.diags_of("int a; int b; a = 30000; b = a + 30000;")
        assert any(d.code == "SA004" for d in diagnostics)

    def test_constant_branch_is_info(self):
        diagnostics = self.diags_of("int a; a = 1; if (a > 5) { a = 2; }")
        hits = [d for d in diagnostics if d.code == "SA005"]
        assert hits and hits[0].severity == "info"

    def test_render_and_severity_helpers(self):
        diagnostics = self.diags_of("int a; int b; b = 0; a = 4 / b;")
        text = render_diagnostics(diagnostics)
        assert "SA003" in text and "error:" in text
        assert max_severity(diagnostics) == "error"
        assert max_severity([]) is None

    def test_seeded_workloads_have_no_errors(self):
        # generated code must never trip an error-severity diagnostic
        for workload in (
            generate_multi_function_workload(seed=2005, functions=3, units=2),
            generate_call_chain_workload(seed=2005, units=2),
        ):
            for unit, source in workload.sources.items():
                analyzed = parse_and_analyze(source)
                for function in analyzed.program.functions:
                    if function.body is None:
                        continue
                    cfg = build_cfg(function)
                    table = analyzed.table(function.name)
                    result = feasibility(analyzed, function.name, cfg)
                    diagnostics = diagnose(cfg, table, result)
                    assert max_severity(diagnostics) != "error", (
                        unit,
                        function.name,
                        render_diagnostics(diagnostics),
                    )


# ---------------------------------------------------------------------- #
# differential soundness: static INFEASIBLE vs the model checker
# ---------------------------------------------------------------------- #
def _assert_static_claims_hold(analyzed, function_name: str) -> int:
    """MC-verify every static unreachability claim for one function.

    Returns the number of claims checked so callers can assert the suite
    exercised something.
    """
    result = feasibility(analyzed, function_name)
    model = build_optimized_model(
        analyzed, function_name, OptimizationConfig.cfg_preserving()
    )
    checker = ModelChecker(model.translation, QueryEngineOptions(slicing=False))
    checked = 0
    for block_id in sorted(result.unreachable_blocks):
        if block_id not in model.translation.block_location:
            continue
        verdict = checker.find_test_data_for_block(block_id).verdict
        assert verdict is Verdict.UNREACHABLE, (function_name, block_id)
        checked += 1
    return checked


class TestDifferentialSoundness:
    def test_multi_function_workload(self):
        workload = generate_multi_function_workload(seed=2005, functions=3, units=2)
        checked = 0
        for source in workload.sources.values():
            analyzed = parse_and_analyze(source)
            for function in analyzed.program.functions:
                if function.body is None:
                    continue
                checked += _assert_static_claims_hold(analyzed, function.name)
        assert checked > 0, "suite proved nothing -- no differential coverage"

    def test_call_chain_workload(self):
        workload = generate_call_chain_workload(seed=2005, units=2)
        for source in workload.sources.values():
            analyzed = parse_and_analyze(source)
            for function in analyzed.program.functions:
                if function.body is None:
                    continue
                _assert_static_claims_hold(analyzed, function.name)

    def test_small_industrial_application(self):
        app = generate_small_application(seed=7)
        checked = _assert_static_claims_hold(app.analyzed, app.function_name)
        assert checked > 0

    @pytest.mark.parametrize(
        "declaration, guard",
        [("UInt8 w = 300;", "w != 44"), ("UInt8 w = true;", "w == 0")],
    )
    def test_wrapped_and_bool_initialisers(self, declaration, guard):
        # the model starts w where the board and sa do (44 and 1), so the
        # model checker proves the guarded block unreachable too
        analyzed = parse_and_analyze(
            f"{declaration} Int16 r; void f(void) {{ r = 0; if ({guard}) {{ r = 1; }} }}"
        )
        assert _assert_static_claims_hold(analyzed, "f") == 1

    def test_prefilter_verdicts_match_unfiltered_engine(self):
        # every block goal of the small app, answered with and without the
        # prefilter: identical verdicts, strictly fewer solver runs
        app = generate_small_application(seed=7)
        model = build_optimized_model(
            app.analyzed, app.function_name, OptimizationConfig.cfg_preserving()
        )
        prefilter = StaticPrefilter(
            feasibility(app.analyzed, app.function_name, app.cfg)
        )
        builder = GoalBuilder(block_location=model.translation.block_location)
        targets = sorted(model.translation.block_location)

        def run(active):
            engine = QueryEngine(
                model.translation,
                QueryEngineOptions(
                    budget=QueryBudget(), slicing=True, prefilter=active
                ),
            )
            results = [engine.check(builder.reach_block(b)) for b in targets]
            return results, engine.stats

        baseline, base_stats = run(None)
        filtered, filt_stats = run(prefilter)
        assert [r.verdict for r in baseline] == [r.verdict for r in filtered]
        assert filt_stats.static_prunes > 0
        assert filt_stats.solver_runs < base_stats.solver_runs
        # a pruned goal yields no witness; an unpruned one must keep its
        # witness inputs bit-identical
        for before, after in zip(baseline, filtered):
            if before.counterexample is not None and after.counterexample is not None:
                assert before.counterexample.inputs == after.counterexample.inputs


class TestPathPrefilter:
    """The path-level check the genetic phase uses to skip searches."""

    def test_only_proved_blocks_and_edges_make_a_path_infeasible(self):
        cfg, _, result = feasibility_of(
            "int a; a = 1; if (a > 5) { a = 2; } else { a = 3; } a = a + 1;"
        )
        prefilter = StaticPrefilter(result)
        (dead,) = result.unreachable_blocks
        verdicts = {}
        for path in enumerate_paths(cfg):
            edges = [(e.source, e.target, e.kind.value) for e in path.edges]
            verdicts[dead in path.blocks] = prefilter.path_is_infeasible(
                path.blocks, edges
            )
            # the edge alone, and its unreachable endpoint alone, are proofs
            assert prefilter.path_is_infeasible([], edges) == (dead in path.blocks)
        assert verdicts == {True: True, False: False}
        assert prefilter.path_is_infeasible([dead], [])

    def test_goal_check_agrees_with_path_check(self):
        app = generate_small_application(seed=5)
        prefilter = StaticPrefilter(
            feasibility(app.analyzed, app.function_name, app.cfg)
        )
        partition = partition_function(
            app.analyzed.program.function(app.function_name), 4, app.cfg
        )
        builder = GoalBuilder()
        verdicts = []
        for target in build_targets(partition, app.cfg):
            labels = [
                edge_label(source, goal, EdgeKind(kind))
                for source, goal, kind in target.edges
            ]
            verdict = prefilter.path_is_infeasible(target.blocks, target.edges)
            assert prefilter.goal_is_unreachable(
                builder.follow_edges(labels), {}
            ) == verdict, target.describe()
            verdicts.append(verdict)
        assert True in verdicts and False in verdicts


# ---------------------------------------------------------------------- #
# pipeline integration: --no-sa parity and schema precedence
# ---------------------------------------------------------------------- #
class TestPipelineIntegration:
    def test_wcet_bounds_identical_with_and_without_sa(self):
        workload = generate_multi_function_workload(seed=2005, functions=3, units=2)
        hybrid = HybridOptions(plateau_patterns=20, max_random_vectors=60, seed=1)
        bounds: dict[bool, dict[str, int]] = {}
        for sa_on in (True, False):
            config = AnalyzerConfig(
                path_bound=2,
                hybrid=hybrid,
                extra_random_vectors=5,
                exhaustive_limit=None,
                static_analysis=sa_on,
            )
            per_function: dict[str, int] = {}
            for source in workload.sources.values():
                analyzed = parse_and_analyze(source)
                for function in analyzed.program.functions:
                    if function.body is None:
                        continue
                    report = WcetAnalyzer(
                        analyzed, function.name, config
                    ).analyze()
                    per_function[function.name] = report.wcet_bound_cycles
            bounds[sa_on] = per_function
        assert bounds[True] == bounds[False]

    def test_report_carries_sa_fields(self):
        source = (
            "#pragma input x\n#pragma range x 0 3\nint x;\n"
            "int f(void) { int a; a = 0;"
            " if (x > 100) { a = 9; } return a; }"
        )
        analyzed = parse_and_analyze(source)
        config = AnalyzerConfig(
            path_bound=2,
            hybrid=HybridOptions(plateau_patterns=10, max_random_vectors=30, seed=1),
        )
        report = WcetAnalyzer(analyzed, "f", config).analyze()
        assert report.sa_edges_pruned > 0
        disabled = WcetAnalyzer(
            analyzed,
            "f",
            AnalyzerConfig(
                path_bound=2,
                hybrid=HybridOptions(
                    plateau_patterns=10, max_random_vectors=30, seed=1
                ),
                static_analysis=False,
            ),
        ).analyze()
        assert disabled.sa_edges_pruned == 0
        assert disabled.sa_diagnostics == []
        assert report.wcet_bound_cycles == disabled.wcet_bound_cycles

    def test_static_analysis_participates_in_cache_key(self):
        from repro.project.model import config_fingerprint

        on = AnalyzerConfig(path_bound=2)
        off = AnalyzerConfig(path_bound=2, static_analysis=False)
        assert config_fingerprint(on) != config_fingerprint(off)

    def test_run_static_analysis_wraps_everything(self):
        source = "int f(int x) { int a; a = 0; if (x > 0) { a = 1; } return a; }"
        analyzed = parse_and_analyze(source)
        cfg = build_cfg(analyzed.program.function("f"))
        result = run_static_analysis(
            cfg, analyzed.table("f"), defined_functions(analyzed.program)
        )
        assert result.prefilter is not None
        payload = result.payload()
        assert {"edges_pruned", "loop_bounds_inferred", "diagnostics"} <= set(payload)


# ---------------------------------------------------------------------- #
# lint CLI
# ---------------------------------------------------------------------- #
class TestLintCli:
    def write(self, tmp_path, source: str):
        target = tmp_path / "unit.c"
        target.write_text(source)
        return str(target)

    def test_clean_unit_exits_zero(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        path = self.write(tmp_path, "int f(void) { int a; a = 1; return a; }")
        assert cli_main(["lint", path]) == 0
        assert "no diagnostics" in capsys.readouterr().out

    def test_error_diagnostic_exits_nonzero(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        path = self.write(
            tmp_path, "int f(void) { int b; b = 0; return 4 / b; }"
        )
        assert cli_main(["lint", path]) == 1
        assert "SA003" in capsys.readouterr().out

    def test_warning_only_exits_zero(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        path = self.write(
            tmp_path,
            "int f(void) { int a; a = 1; if (a > 5) { a = 2; } return a; }",
        )
        assert cli_main(["lint", path]) == 0
        output = capsys.readouterr().out
        assert "SA002" in output

    def test_json_output(self, tmp_path, capsys):
        import json

        from repro.cli import main as cli_main

        path = self.write(
            tmp_path, "int f(void) { int b; b = 0; return 4 / b; }"
        )
        assert cli_main(["lint", path, "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        codes = {d["code"] for d in payload["diagnostics"]}
        assert "SA003" in codes

    def test_function_filter(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        path = self.write(
            tmp_path,
            "int f(void) { int b; b = 0; return 4 / b; }\n"
            "int g(void) { return 1; }",
        )
        assert cli_main(["lint", path, "--function", "g"]) == 0
