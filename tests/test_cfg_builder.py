"""Unit tests of CFG construction."""

from __future__ import annotations

import pytest

from repro.cfg import (
    BlockKind,
    CfgError,
    EdgeKind,
    TerminatorKind,
    build_cfg,
    to_dot,
)
from repro.minic import parse_and_analyze


def cfg_of(body: str, header: str = "void f(void)", prelude: str = ""):
    analyzed = parse_and_analyze(f"{prelude}\n{header} {{ {body} }}")
    return build_cfg(analyzed.program.function("f"))


class TestStraightLineCode:
    def test_assignments_share_a_block(self):
        cfg = cfg_of("int a; int b; a = 1; b = 2; a = b;")
        assert len(cfg.real_blocks()) == 1

    def test_calls_terminate_blocks(self):
        cfg = cfg_of("first(); second(); third();")
        assert len(cfg.real_blocks()) == 3

    def test_entry_and_exit_are_virtual(self):
        cfg = cfg_of("int a; a = 1;")
        assert cfg.entry.kind is BlockKind.ENTRY
        assert cfg.exit.kind is BlockKind.EXIT
        assert cfg.entry.is_virtual and cfg.exit.is_virtual

    def test_empty_function_connects_entry_to_exit(self):
        cfg = cfg_of("")
        assert cfg.exit in cfg.successors(cfg.entry) or len(cfg.real_blocks()) == 0

    def test_validate_passes_for_builder_output(self, figure1_cfg):
        figure1_cfg.validate()


class TestBranches:
    def test_if_produces_branch_terminator(self):
        cfg = cfg_of("int a; if (a) { a = 1; }")
        branch_blocks = [
            b for b in cfg.real_blocks() if b.terminator.kind is TerminatorKind.BRANCH
        ]
        assert len(branch_blocks) == 1
        kinds = {e.kind for e in cfg.out_edges(branch_blocks[0])}
        assert kinds == {EdgeKind.TRUE, EdgeKind.FALSE}

    def test_if_else_has_two_way_join(self):
        cfg = cfg_of("int a; int b; if (a) { b = 1; } else { b = 2; } b = 3;")
        joins = [b for b in cfg.real_blocks() if len(cfg.predecessors(b)) == 2]
        assert len(joins) == 1

    def test_no_empty_join_blocks_created(self):
        cfg = cfg_of("int a; if (a) { helper(); } other();")
        for block in cfg.real_blocks():
            assert block.statements or block.terminator.condition is not None

    def test_nested_if_structure(self):
        cfg = cfg_of("int a; if (a) { if (a > 1) { helper(); } }")
        branches = [
            b for b in cfg.real_blocks() if b.terminator.kind is TerminatorKind.BRANCH
        ]
        assert len(branches) == 2

    def test_return_connects_to_exit(self):
        cfg = cfg_of("int a; if (a) { return; } a = 1;", header="void f(void)")
        return_blocks = [
            b for b in cfg.real_blocks() if b.terminator.kind is TerminatorKind.RETURN
        ]
        assert len(return_blocks) == 1
        assert cfg.out_edges(return_blocks[0])[0].target == cfg.exit.block_id


class TestSwitch:
    def test_switch_edges_carry_case_values(self):
        cfg = cfg_of(
            "int x; switch (x) { case 1: x = 1; break; case 2: case 3: x = 2; break; "
            "default: x = 0; break; }"
        )
        switch_block = next(
            b for b in cfg.real_blocks() if b.terminator.kind is TerminatorKind.SWITCH
        )
        case_edges = [e for e in cfg.out_edges(switch_block) if e.kind is EdgeKind.CASE]
        default_edges = [e for e in cfg.out_edges(switch_block) if e.kind is EdgeKind.DEFAULT]
        assert len(case_edges) == 2
        assert len(default_edges) == 1
        assert tuple(sorted(case_edges[1].case_values)) in ((2, 3), (1,))

    def test_switch_without_default_gets_implicit_default_edge(self):
        cfg = cfg_of("int x; switch (x) { case 1: x = 2; break; } x = 9;")
        switch_block = next(
            b for b in cfg.real_blocks() if b.terminator.kind is TerminatorKind.SWITCH
        )
        kinds = [e.kind for e in cfg.out_edges(switch_block)]
        assert EdgeKind.DEFAULT in kinds

    def test_wiper_switch_has_ten_outgoing_edges(self, wiper_code, wiper_function_name):
        cfg = build_cfg(wiper_code.program.function(wiper_function_name))
        switch_block = next(
            b for b in cfg.real_blocks() if b.terminator.kind is TerminatorKind.SWITCH
        )
        # 9 states plus the default arm
        assert len(cfg.out_edges(switch_block)) == 10


class TestLoops:
    def test_while_loop_has_back_edge(self):
        cfg = cfg_of("int i; i = 0; while (i < 3) { i = i + 1; }")
        assert any(e.kind is EdgeKind.BACK for e in cfg.edges())

    def test_do_while_loop_has_back_edge(self):
        cfg = cfg_of("int i; i = 0; do { i = i + 1; } while (i < 3);")
        assert any(e.kind is EdgeKind.BACK for e in cfg.edges())

    def test_for_loop_with_step_block(self):
        cfg = cfg_of("int i; int s; s = 0; for (i = 0; i < 3; i = i + 1) { s = s + i; }")
        assert any(e.kind is EdgeKind.BACK for e in cfg.edges())
        cfg.validate()

    def test_break_leaves_the_loop(self):
        cfg = cfg_of("int i; i = 0; while (1) { if (i > 2) { break; } i = i + 1; } i = 9;")
        cfg.validate()
        # the block after the loop must be reachable
        assert len(cfg.reachable_blocks()) == len(cfg.blocks())

    def test_continue_targets_loop_header(self):
        cfg = cfg_of(
            "int i; int s; s = 0; i = 0; "
            "while (i < 5) { i = i + 1; if (i == 2) { continue; } s = s + i; }"
        )
        cfg.validate()
        back_edges = [e for e in cfg.edges() if e.kind is EdgeKind.BACK]
        assert len(back_edges) >= 2

    def test_topological_order_rejects_untagged_cycles(self):
        cfg = cfg_of("int i; i = 0; while (i < 3) { i = i + 1; }")
        order = cfg.topological_order()
        assert len(order) == len(cfg.blocks())


class TestGraphApi:
    def test_unknown_block_raises(self, figure1_cfg):
        with pytest.raises(CfgError):
            figure1_cfg.block(9999)

    def test_cannot_remove_entry(self, figure1_cfg):
        with pytest.raises(CfgError):
            figure1_cfg.remove_block(figure1_cfg.entry)

    def test_to_dot_output(self, figure1_cfg):
        dot = to_dot(figure1_cfg, show_statements=True)
        assert dot.startswith("digraph")
        assert "start" in dot and "end" in dot

    def test_summary_counts(self, figure1_cfg):
        summary = figure1_cfg.summary()
        assert summary["blocks"] == 11
        assert summary["conditional_branches"] == 3


class TestFigure1Structure:
    """The CFG of the paper's Figure 1 example (11 measurable blocks)."""

    def test_block_count_matches_paper(self, figure1_cfg):
        assert len(figure1_cfg.real_blocks()) == 11

    def test_branch_count(self, figure1_cfg):
        branches = [
            b
            for b in figure1_cfg.real_blocks()
            if b.terminator.kind is TerminatorKind.BRANCH
        ]
        assert len(branches) == 3

    def test_each_printf_call_is_its_own_block(self, figure1_cfg):
        call_blocks = [b for b in figure1_cfg.real_blocks() if b.has_call]
        assert len(call_blocks) == 8  # printf1 .. printf8

    def test_source_line_labels_present(self, figure1_cfg):
        labels = [b.label() for b in figure1_cfg.real_blocks()]
        assert all(label.isdigit() for label in labels)
