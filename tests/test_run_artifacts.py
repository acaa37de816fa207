"""Each step of a cold analysis runs once per run.

A run's :class:`~repro.hw.artifacts.RunArtifacts` store holds one CFG per
function and one compiled board per (function, cost model, stub set), and
the cfg-preserving model takes its state ranges from the prefilter's sa
fixpoint.  The ``cfg.builds``, ``hw.compiles`` and ``sa.fixpoints``
counters make that observable: a call-chain project run builds each of its
nine functions' CFGs and fixpoints once, a controller analysis does one of
each, and a second run of the same parsed program starts from nothing.
A run also frees its CFGs when it ends, without waiting for the cyclic
garbage collector.
"""

from __future__ import annotations

import gc
import weakref
from collections import Counter

import pytest

import repro.hw.artifacts as artifacts_module
import repro.hw.interpreter as interpreter_module
from repro import perf
from repro.minic import parse_and_analyze
from repro.pipeline.analyzer import WcetAnalyzer
from repro.project import Project, ProjectScheduler, ResultCache
from repro.workloads.multi import generate_call_chain_workload
from repro.workloads.targetlink import generate_small_application

COUNTERS = ("cfg.builds", "hw.compiles", "sa.fixpoints")


@pytest.fixture
def compiles(monkeypatch):
    """(function, cost model, unstubbed functions) of every compilation."""
    keys: Counter = Counter()
    compile_function = interpreter_module.compile_function

    def spy(cfg, cost, callees, run_function):
        keys[(cfg.function_name, repr(cost), frozenset(callees))] += 1
        return compile_function(cfg, cost, callees, run_function)

    monkeypatch.setattr(interpreter_module, "compile_function", spy)
    return keys


def _counted(run) -> dict[str, int]:
    registry = perf.PerfRegistry()
    with perf.using_registry(registry):
        run()
    counters = registry.report()["counters"]
    return {name: counters.get(name, 0) for name in COUNTERS}


def test_a_call_chain_run_builds_each_artifact_once(compiles):
    project = Project.from_sources(generate_call_chain_workload(2005).sources)
    def run():
        report = ProjectScheduler(project, cache=ResultCache.disabled()).run()
        assert not report.failures

    first = _counted(run)
    assert first["cfg.builds"] == first["sa.fixpoints"] == 9
    assert first["hw.compiles"] == sum(compiles.values())
    assert max(compiles.values()) == 1
    # a second run of the same parsed units builds everything again
    compiles.clear()
    assert _counted(run) == first
    assert max(compiles.values()) == 1


def test_a_controller_analysis_builds_each_artifact_once(compiles):
    app = generate_small_application(seed=11)
    analyzed = parse_and_analyze(app.source)

    def run():
        WcetAnalyzer(analyzed, app.function_name).analyze()

    assert _counted(run) == dict.fromkeys(COUNTERS, 1)
    assert _counted(run) == dict.fromkeys(COUNTERS, 1)
    assert list(compiles.values()) == [2]


def test_a_run_frees_its_cfgs_when_it_ends(monkeypatch):
    built = []
    build_cfg = artifacts_module.build_cfg

    def tracked_build_cfg(function):
        cfg = build_cfg(function)
        built.append(weakref.ref(cfg))
        return cfg

    monkeypatch.setattr(artifacts_module, "build_cfg", tracked_build_cfg)
    project = Project.from_sources(generate_call_chain_workload(2005).sources)
    collecting = gc.isenabled()
    gc.disable()
    try:
        ProjectScheduler(project, cache=ResultCache.disabled()).run()
        assert len(built) == 9
        assert [ref() for ref in built] == [None] * 9
    finally:
        if collecting:
            gc.enable()
