"""Tests of the dataflow analyses (liveness, reaching defs, ranges, relevance)."""

from __future__ import annotations

from repro.analysis import (
    analyze_relevance,
    block_liveness,
    block_use_def,
    control_relevant_variables,
    live_range_conflicts,
    reaching_definitions,
    statement_use_def,
    unused_variables,
)
from repro.cfg import build_cfg
from repro.minic import parse_and_analyze
from repro.sa import analyze_feasibility, defined_functions

from dataflow_reference import DataflowProblem, Direction, set_union, solve_reference


def build(source: str, name: str = "f"):
    analyzed = parse_and_analyze(source)
    return analyzed, build_cfg(analyzed.program.function(name))


class TestDataflowFramework:
    def test_forward_reachability_toy_problem(self):
        nodes = [1, 2, 3, 4]
        edges = {1: [2, 3], 2: [4], 3: [4], 4: []}
        problem = DataflowProblem(
            nodes=nodes,
            successors=lambda n: edges[n],
            direction=Direction.FORWARD,
            boundary_nodes=[1],
            boundary=frozenset({"start"}),
            initial=frozenset(),
            join=set_union,
            transfer=lambda node, fact: fact | {f"n{node}"},
        )
        result = solve_reference(problem)
        assert "start" in result.out_facts[4]
        assert "n2" in result.out_facts[4] or "n3" in result.out_facts[4]

    def test_backward_direction_inverts_flow(self):
        nodes = [1, 2, 3]
        edges = {1: [2], 2: [3], 3: []}
        problem = DataflowProblem(
            nodes=nodes,
            successors=lambda n: edges[n],
            direction=Direction.BACKWARD,
            boundary_nodes=[3],
            boundary=frozenset({"end"}),
            initial=frozenset(),
            join=set_union,
            transfer=lambda node, fact: fact,
        )
        result = solve_reference(problem)
        assert "end" in result.out_facts[1]


class TestUseDef:
    def test_statement_use_def_assignment(self):
        analyzed = parse_and_analyze("int a; int b; void f(void) { a = b + 1; }")
        stmt = analyzed.program.function("f").body.statements[0]
        ud = statement_use_def(stmt)
        assert ud.uses == {"b"} and ud.defs == {"a"}

    def test_block_use_def_ordering(self):
        _, cfg = build("int a; int b; void f(void) { a = 1; b = a + 1; }")
        block = cfg.real_blocks()[0]
        ud = block_use_def(block)
        # `a` is defined before it is used, so it is not an upward-exposed use
        assert "a" not in ud.uses and ud.defs == {"a", "b"}

    def test_condition_counts_as_use(self):
        _, cfg = build("int a; void f(void) { if (a > 0) { a = 1; } }")
        cond_block = next(b for b in cfg.real_blocks() if b.terminator.condition is not None)
        assert "a" in block_use_def(cond_block).uses


class TestLiveness:
    SOURCE = """
    int x; int y; int z;
    void f(void) {
        x = 1;
        if (y > 0) {
            z = x + 1;
        } else {
            z = 2;
        }
        y = z;
    }
    """

    def test_live_out_of_definition_block(self):
        _, cfg = build(self.SOURCE)
        liveness = block_liveness(cfg)
        defining = next(
            b for b in cfg.real_blocks() if "x" in block_use_def(b).defs
        )
        assert "x" in liveness.live_out[defining.block_id]

    def test_dead_after_last_use(self):
        _, cfg = build(self.SOURCE)
        liveness = block_liveness(cfg)
        assert "x" not in liveness.live_in[cfg.exit.block_id]

    def test_unused_variable_detection(self):
        _, cfg = build("int used; int never; void f(void) { used = 1; if (used) { used = 2; } }")
        assert unused_variables(cfg, {"used", "never"}) == {"never"}

    def test_interference_between_simultaneously_live_variables(self):
        _, cfg = build(self.SOURCE)
        conflicts = live_range_conflicts(cfg)
        assert "y" in conflicts.get("x", set()) or "x" in conflicts.get("y", set())

    def test_non_overlapping_locals_do_not_interfere(self):
        source = """
        void f(void) {
            int first; int second; int out;
            first = 1;
            out = first + 1;
            second = 2;
            out = second + out;
        }
        """
        _, cfg = build(source)
        conflicts = live_range_conflicts(cfg)
        assert "second" not in conflicts.get("first", set())


class TestReachingDefinitions:
    def test_single_definition_reaches_use(self):
        _, cfg = build("int t; int r; void f(void) { t = 1; r = t + 1; }")
        result = reaching_definitions(cfg)
        defs_of_t = result.definitions_of("t")
        assert len(defs_of_t) == 1
        assert result.uses[defs_of_t[0]], "the definition of t must have a recorded use"

    def test_redefinition_kills_previous(self):
        _, cfg = build("int t; int r; void f(void) { t = 1; t = 2; r = t; }")
        result = reaching_definitions(cfg)
        first, second = sorted(result.definitions_of("t"), key=lambda d: d.statement_index)
        assert not result.uses[first]
        assert result.uses[second]

    def test_branch_merges_definitions(self):
        source = """
        int c; int t; int r;
        void f(void) {
            if (c) { t = 1; } else { t = 2; }
            r = t;
        }
        """
        _, cfg = build(source)
        result = reaching_definitions(cfg)
        used_defs = [d for d in result.definitions_of("t") if result.uses[d]]
        assert len(used_defs) == 2

    def test_condition_use_recorded_with_sentinel_index(self):
        _, cfg = build("int c; void f(void) { c = 1; if (c) { c = 2; } }")
        result = reaching_definitions(cfg)
        first_def = sorted(result.definitions_of("c"), key=lambda d: d.statement_index)[0]
        assert any(index == -1 for _, index in result.uses[first_def])


class TestRangeAnalysis:
    """State-variable ranges (Section 3.2.4) from the sound sa fixpoint."""

    @staticmethod
    def state_ranges(analyzed, cfg, name: str = "f"):
        # the any-value entry of models that leave variables uninitialised
        return analyze_feasibility(
            cfg,
            analyzed.table(name),
            defined_functions(analyzed.program),
            initialised=False,
        ).state_ranges

    def test_input_range_from_pragma(self):
        analyzed, cfg = build(
            "#pragma input u\n#pragma range u 0 9\nint u; int r; "
            "void f(void) { r = u + 1; }"
        )
        ranges = self.state_ranges(analyzed, cfg)
        assert ranges["u"].hi == 9
        assert ranges["r"].hi <= 10

    def test_constant_assignment_narrows_range(self):
        analyzed, cfg = build("int flag; void f(void) { flag = 0; if (flag) { flag = 1; } }")
        ranges = self.state_ranges(analyzed, cfg)
        assert ranges["flag"].hi <= 1
        assert ranges["flag"].bits() == 1

    def test_boolean_comparison_is_one_bit(self):
        analyzed, cfg = build(
            "#pragma input u\n#pragma range u 0 100\nint u; int b; "
            "void f(void) { b = u > 50; }"
        )
        assert self.state_ranges(analyzed, cfg)["b"].bits() == 1

    def test_range_never_exceeds_type(self):
        analyzed, cfg = build("UInt8 x; void f(void) { x = x + 200; }")
        ranges = self.state_ranges(analyzed, cfg)
        assert ranges["x"].hi <= 255
        assert ranges["x"].lo >= 0

    def test_loop_widening_terminates(self, small_loop_program):
        function = small_loop_program.program.function("accumulate")
        cfg = build_cfg(function)
        assert "total" in self.state_ranges(small_loop_program, cfg, "accumulate")

    def test_total_state_bits_helper(self):
        analyzed, cfg = build("int a; int b; void f(void) { a = 1; b = 0; if (b) { a = 2; } }")
        ranges = self.state_ranges(analyzed, cfg)
        # `if (b)` is dead, so a only ever holds 1 and b only 0
        assert sum(ranges[name].bits() for name in ("a", "b")) == 2


class TestRelevance:
    SOURCE = """
    #pragma input sensor
    int sensor;
    int threshold;
    int decision;
    int log_counter;
    int scratch;
    void f(void) {
        threshold = sensor + 1;
        log_counter = log_counter + 1;
        scratch = log_counter * 2;
        if (threshold > 10) {
            decision = 1;
        } else {
            decision = 0;
        }
    }
    """

    def test_condition_variables_are_relevant(self):
        _, cfg = build(self.SOURCE)
        relevant = control_relevant_variables(cfg)
        assert "threshold" in relevant
        assert "sensor" in relevant  # transitively through threshold

    def test_pure_data_variables_are_irrelevant(self):
        analyzed, cfg = build(self.SOURCE)
        all_vars = set(analyzed.table("f").variables)
        result = analyze_relevance(cfg, all_vars)
        assert "log_counter" in result.irrelevant
        assert "scratch" in result.irrelevant
        assert "decision" in result.irrelevant

    def test_keep_set_forces_relevance(self):
        analyzed, cfg = build(self.SOURCE)
        all_vars = set(analyzed.table("f").variables)
        result = analyze_relevance(cfg, all_vars, keep=frozenset({"log_counter"}))
        assert "log_counter" in result.relevant

    def test_removable_statements_only_touch_irrelevant_variables(self):
        analyzed, cfg = build(self.SOURCE)
        all_vars = set(analyzed.table("f").variables)
        result = analyze_relevance(cfg, all_vars)
        from repro.minic.folding import assigned_variables

        for stmt in result.removable_statements:
            targets = assigned_variables(stmt.expr) if hasattr(stmt, "expr") else {stmt.name}
            assert targets <= set(result.irrelevant)

    def test_eval_program_irrelevant_counters(self, eval_program, eval_function_name):
        from repro.workloads.optimisation_eval import CONTROL_FLOW_IRRELEVANT

        function = eval_program.program.function(eval_function_name)
        cfg = build_cfg(function)
        all_vars = set(eval_program.table(eval_function_name).variables)
        result = analyze_relevance(cfg, all_vars)
        for name in CONTROL_FLOW_IRRELEVANT:
            assert name in result.irrelevant
