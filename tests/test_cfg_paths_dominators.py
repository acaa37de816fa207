"""Unit tests for path counting, path enumeration and natural loops."""

from __future__ import annotations

import pytest

from repro.cfg import (
    PathCountError,
    build_cfg,
    count_ast_paths,
    count_cfg_paths,
    enumerate_paths,
    natural_loops,
)
from repro.cfg.paths import PATH_COUNT_CAP
from repro.minic import parse_and_analyze


def function_of(body: str, prelude: str = "int a; int b; int c;"):
    analyzed = parse_and_analyze(f"{prelude}\nvoid f(void) {{ {body} }}")
    return analyzed.program.function("f")


class TestAstPathCounting:
    def test_straight_line_is_one_path(self):
        assert count_ast_paths(function_of("a = 1; b = 2;")) == 1

    def test_if_without_else_doubles(self):
        assert count_ast_paths(function_of("if (a) { b = 1; }")) == 2

    def test_if_else_is_two(self):
        assert count_ast_paths(function_of("if (a) { b = 1; } else { b = 2; }")) == 2

    def test_sequence_of_ifs_multiplies(self):
        body = "if (a) { b = 1; } if (b) { c = 1; } if (c) { a = 1; }"
        assert count_ast_paths(function_of(body)) == 8

    def test_nested_if(self):
        body = "if (a) { if (b) { c = 1; } else { c = 2; } }"
        assert count_ast_paths(function_of(body)) == 3

    def test_switch_paths_sum(self):
        body = "switch (a) { case 1: b = 1; break; case 2: b = 2; break; default: b = 0; break; }"
        assert count_ast_paths(function_of(body)) == 3

    def test_switch_without_default_adds_implicit_path(self):
        body = "switch (a) { case 1: b = 1; break; case 2: b = 2; break; }"
        assert count_ast_paths(function_of(body)) == 3

    def test_annotated_loop_paths(self):
        body = "#pragma loopbound(2)\nwhile (a) { if (b) { c = 1; } }"
        # 0, 1 or 2 iterations with 2 paths per iteration: 1 + 2 + 4 = 7
        assert count_ast_paths(function_of(body)) == 7

    def test_unannotated_loop_uses_default_bound(self):
        body = "while (a) { b = 1; }"
        assert count_ast_paths(function_of(body), default_loop_bound=3) == 4

    def test_unannotated_loop_without_default_raises(self):
        body = "while (a) { b = 1; }"
        with pytest.raises(PathCountError):
            count_ast_paths(function_of(body), default_loop_bound=None)

    def test_do_while_requires_at_least_one_iteration(self):
        body = "#pragma loopbound(2)\ndo { if (a) { b = 1; } } while (c);"
        # 1 or 2 iterations, 2 paths each: 2 + 4 = 6
        assert count_ast_paths(function_of(body)) == 6

    def test_counts_saturate(self):
        body = " ".join(f"if (a > {i}) {{ b = {i}; }}" for i in range(70))
        assert count_ast_paths(function_of(body)) == PATH_COUNT_CAP

    def test_figure1_total_paths(self, figure1):
        assert count_ast_paths(figure1.program.function("main")) == 6

    def test_early_return_counted_conservatively(self):
        body = "if (a) { return; } if (b) { c = 1; }"
        function = function_of(body)
        # the structural count over-approximates early returns (4 >= the true
        # 3 CFG paths); over-approximation is safe for the partitioner because
        # it can only make segments *smaller*, never miss a path
        structural = count_ast_paths(function)
        exact = count_cfg_paths(build_cfg(function))
        assert exact == 3
        assert structural >= exact


class TestCfgPathCounting:
    def test_cfg_count_matches_ast_for_loop_free_code(self, figure1, figure1_cfg):
        assert count_cfg_paths(figure1_cfg) == count_ast_paths(
            figure1.program.function("main")
        )

    def test_cfg_count_matches_ast_on_branching_program(self, branching_program):
        function = branching_program.program.function("classify")
        cfg = build_cfg(function)
        assert count_cfg_paths(cfg) == count_ast_paths(function)

    def test_enumerate_paths_yields_distinct_block_sequences(self, figure1_cfg):
        paths = list(enumerate_paths(figure1_cfg))
        assert len(paths) == 6
        assert len({p.blocks for p in paths}) == 6

    def test_enumerate_paths_region_restriction(self, figure1_cfg):
        # restrict to the then-branch region of the first if (blocks 5,6,7,8)
        region = {5, 6, 7, 8}
        paths = list(enumerate_paths(figure1_cfg, source=5, region=region))
        assert len(paths) == 2

    def test_enumerate_limit_raises(self, figure1_cfg):
        with pytest.raises(PathCountError):
            list(enumerate_paths(figure1_cfg, limit=2))

    def test_paths_start_at_source(self, figure1_cfg):
        for path in enumerate_paths(figure1_cfg):
            assert path.blocks[0] == figure1_cfg.entry.block_id

    def test_path_edges_connect_blocks(self, figure1_cfg):
        for path in enumerate_paths(figure1_cfg):
            for edge, (source, target) in zip(path.edges, zip(path.blocks, path.blocks[1:])):
                assert edge.source == source and edge.target == target


class TestDominators:
    def test_natural_loops_empty_for_loop_free_code(self, figure1_cfg):
        assert natural_loops(figure1_cfg) == []

    def test_natural_loops_found_for_while(self):
        analyzed = parse_and_analyze(
            "int n; void f(void) { int i; i = 0; while (i < n) { i = i + 1; } }"
        )
        cfg = build_cfg(analyzed.program.function("f"))
        loops = natural_loops(cfg)
        assert len(loops) == 1
        header, body = loops[0]
        assert header in body and len(body) >= 2
