"""Tests of the perf subsystem and the indexed-bitset dataflow engine.

The heart of this module is the property-style cross-check: randomized CFGs
are generated from a small statement grammar and the bitset implementations
of liveness and reaching definitions are compared bit-for-bit against the
frozenset reference implementations preserved in
``tests/dataflow_reference.py``.
"""

from __future__ import annotations

import random as stdlib_random

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis import (
    bitset_block_liveness,
    bitset_reaching_definitions,
    block_liveness,
    cfg_bitset_index,
    cfg_use_defs,
    iter_bits,
    reaching_definitions,
)
from repro.analysis.bitset import VariableInterner
from repro.cfg import build_cfg
from repro.minic import parse_and_analyze
from repro.perf import PerfRegistry

from dataflow_reference import block_liveness_reference, reaching_definitions_reference


# --------------------------------------------------------------------------- #
# random structured program generator (mirrors tests/test_properties.py)
# --------------------------------------------------------------------------- #
_VARIABLES = ["a", "b", "c", "d", "e"]
_INPUTS = ["u", "v"]


def _gen_expr(rng: stdlib_random.Random, depth: int) -> str:
    if depth <= 0 or rng.random() < 0.4:
        if rng.random() < 0.4:
            return str(rng.randint(0, 20))
        return rng.choice(_VARIABLES + _INPUTS)
    op = rng.choice(["+", "-", "*"])
    return f"({_gen_expr(rng, depth - 1)} {op} {_gen_expr(rng, depth - 1)})"


def _gen_condition(rng: stdlib_random.Random) -> str:
    op = rng.choice(["<", "<=", ">", ">=", "==", "!="])
    return f"{rng.choice(_VARIABLES + _INPUTS)} {op} {rng.randint(0, 20)}"


def _gen_statement(rng: stdlib_random.Random, depth: int) -> str:
    choice = rng.random()
    if depth <= 0 or choice < 0.5:
        return f"{rng.choice(_VARIABLES)} = {_gen_expr(rng, 2)};"
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


def random_cfg(seed: int):
    rng = stdlib_random.Random(seed)
    body = " ".join(_gen_statement(rng, 2) for _ in range(rng.randint(2, 6)))
    decls = "\n".join(f"int {name};" for name in _VARIABLES)
    inputs = "\n".join(f"int {name};" for name in _INPUTS)
    source = f"{inputs}\n{decls}\nvoid f(void) {{ {body} }}\n"
    analyzed = parse_and_analyze(source)
    return build_cfg(analyzed.program.function("f"))


# --------------------------------------------------------------------------- #
# cross-check: bitset engine equals the frozenset reference bit-for-bit
# --------------------------------------------------------------------------- #
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_bitset_liveness_equals_reference(seed: int):
    cfg = random_cfg(seed)
    optimised = block_liveness(cfg)
    reference = block_liveness_reference(cfg)
    assert optimised.live_in == reference.live_in
    assert optimised.live_out == reference.live_out


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_bitset_reaching_equals_reference(seed: int):
    cfg = random_cfg(seed)
    optimised = reaching_definitions(cfg)
    reference = reaching_definitions_reference(cfg)
    assert optimised.reach_in == reference.reach_in
    assert optimised.reach_out == reference.reach_out
    assert set(optimised.definitions) == set(reference.definitions)
    assert optimised.uses == reference.uses


def test_bitset_fixpoint_visits_each_block_once_on_acyclic_cfg():
    # loop-free CFG in reverse postorder: one visit per block suffices
    cfg = random_cfg(4711)
    assert bitset_block_liveness(cfg).iterations == len(cfg)
    assert bitset_reaching_definitions(cfg).iterations == len(cfg)


def test_stale_statement_append_is_caught_by_fingerprint():
    from repro.minic.ast_nodes import DeclStmt, IntLiteral

    cfg = random_cfg(21)
    before = block_liveness(cfg)  # populate use/def + bitset caches
    target = next(b for b in cfg.real_blocks() if b.statements)
    fresh = "zz_fresh"
    target.statements.append(DeclStmt(name=fresh, init=IntLiteral(value=1)))
    after = block_liveness(cfg)  # must rebuild, not serve stale masks
    reference = block_liveness_reference(cfg)
    assert after.live_in == reference.live_in
    assert after.live_out == reference.live_out
    del before


def test_statement_liveness_honours_detached_block():
    from repro.analysis import statement_liveness
    from repro.cfg.graph import BasicBlock

    cfg = random_cfg(33)
    original = next(b for b in cfg.real_blocks() if b.statements)
    block_liveness(cfg)  # warm the per-CFG caches
    detached = BasicBlock(
        block_id=original.block_id,
        statements=list(original.statements[:1]),
        terminator=original.terminator,
        kind=original.kind,
    )
    live_after = statement_liveness(cfg, detached, frozenset())
    assert len(live_after) == len(detached.statements) == 1


# --------------------------------------------------------------------------- #
# interner and cached accessors
# --------------------------------------------------------------------------- #
def test_iter_bits_round_trip():
    mask = (1 << 0) | (1 << 5) | (1 << 63) | (1 << 200)
    assert list(iter_bits(mask)) == [0, 5, 63, 200]
    assert list(iter_bits(0)) == []


def test_variable_interner_round_trip():
    interner = VariableInterner(["beta", "alpha", "gamma", "alpha"])
    assert interner.names == ("alpha", "beta", "gamma")
    mask = interner.mask_of({"gamma", "alpha"})
    assert interner.names_of(mask) == frozenset({"alpha", "gamma"})
    # memoised conversion returns the identical object
    assert interner.names_of(mask) is interner.names_of(mask)


def test_block_use_def_masks_match_frozenset_use_defs():
    cfg = random_cfg(99)
    index = cfg_bitset_index(cfg)
    use_defs = cfg_use_defs(cfg)
    names_of = index.interner.names_of
    for block in cfg.blocks():
        use_def = use_defs.block(block.block_id)
        assert names_of(index.block_use[block.block_id]) == use_def.uses
        assert names_of(index.block_def[block.block_id]) == use_def.defs


def test_cfg_adjacency_and_rpo_are_cached_and_invalidated():
    cfg = random_cfg(7)
    succ = cfg.successor_map()
    rpo = cfg.reverse_postorder()
    assert cfg.successor_map() is succ  # cached
    assert cfg.reverse_postorder() is rpo
    # RPO covers every block exactly once and starts at the entry
    assert sorted(rpo) == sorted(block.block_id for block in cfg.blocks())
    assert rpo[0] == cfg.entry.block_id
    # forward RPO: ignoring back edges, predecessors come first
    position = {block_id: i for i, block_id in enumerate(rpo)}
    for edge in cfg.edges():
        if edge.kind.value != "back":
            assert position[edge.source] < position[edge.target]
    # structural mutation drops the caches
    extra = cfg.new_block()
    cfg.add_edge(cfg.entry, extra)
    cfg.add_edge(extra, cfg.exit)
    assert cfg.successor_map() is not succ
    assert extra.block_id in cfg.reverse_postorder()


def test_backward_rpo_orders_successors_first():
    cfg = random_cfg(12)
    order = cfg.backward_reverse_postorder()
    assert sorted(order) == sorted(block.block_id for block in cfg.blocks())
    assert order[0] == cfg.exit.block_id
    position = {block_id: i for i, block_id in enumerate(order)}
    for edge in cfg.edges():
        if edge.kind.value != "back":
            assert position[edge.target] < position[edge.source]


# --------------------------------------------------------------------------- #
# perf instrumentation subsystem
# --------------------------------------------------------------------------- #
class TestPerfRegistry:
    def test_counters_accumulate(self):
        registry = PerfRegistry()
        registry.add("work")
        registry.add("work", 41)
        assert registry.counter("work") == 42
        assert registry.counter("missing") == 0

    def test_timed_context_manager_records(self):
        from repro import obs, perf

        registry = PerfRegistry()
        with perf.using_registry(registry), obs.region("phase"):
            pass
        stat = registry.timer("phase")
        assert stat is not None and stat.calls == 1
        assert stat.total_seconds >= 0.0

    def test_reset_clears_everything(self):
        registry = PerfRegistry()
        registry.add("work")
        registry.record_time("phase", 0.5)
        registry.reset()
        assert registry.report()["counters"] == {}
        assert registry.report()["timers"] == {}

    def test_solver_records_into_global_registry(self):
        from repro import perf

        perf.reset()
        cfg = random_cfg(3)
        block_liveness(cfg)
        reaching_definitions(cfg)
        report = perf.report()
        assert report["counters"]["liveness.bitset_runs"] >= 1
        assert report["counters"]["reaching.bitset_runs"] >= 1
        assert "liveness.bitset" in report["timers"]
