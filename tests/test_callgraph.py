"""Tests of the interprocedural call-graph subsystem (:mod:`repro.callgraph`).

Graph-structure tests (extraction, resolution, cycles, fingerprints, waves)
run on tiny hand-written sources and never start the WCET pipeline.  The
end-to-end scheduling tests run the pipeline on the seeded call-chain
workload with a quick configuration; the ones that spawn a process pool
carry the ``interproc`` marker and stay bounded (<= 2 workers).
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.callgraph import (
    DEFAULT_UNKNOWN_CALL_CYCLES,
    CallGraph,
    CalleeSummary,
    CalleeSummaryStore,
)
from repro.minic import called_names, parse_and_analyze
from repro.pipeline.analyzer import AnalyzerConfig, WcetAnalyzer
from repro.project import (
    Project,
    ProjectError,
    ProjectScheduler,
    ResultCache,
)
from repro.testgen import HybridOptions
from repro.workloads.multi import generate_call_chain_workload

QUICK_HYBRID = HybridOptions(plateau_patterns=20, max_random_vectors=60, seed=1)


def quick_config(**overrides) -> AnalyzerConfig:
    options = dict(path_bound=2, hybrid=QUICK_HYBRID, extra_random_vectors=5)
    options.update(overrides)
    return AnalyzerConfig(**options)


PREAMBLE = """\
#pragma input x
#pragma range x 0 3
UInt8 x;
Int16 out = 0;
"""


def project_of(**sources: str) -> Project:
    return Project.from_sources(
        {name.replace("_c", ".c"): PREAMBLE + body for name, body in sources.items()}
    )


# ---------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def chain_workload():
    return generate_call_chain_workload(seed=2005)


@pytest.fixture(scope="module")
def chain_project(chain_workload):
    return Project.from_sources(chain_workload.sources)


@pytest.fixture(scope="module")
def chain_graph(chain_project):
    return CallGraph.from_project(chain_project)


@pytest.fixture(scope="module")
def chain_serial_report(chain_project):
    """One uncached interprocedural serial run shared by the assertions."""
    return ProjectScheduler(chain_project, config=quick_config()).run()


# ---------------------------------------------------------------------- #
class TestCallExtraction:
    def test_called_names_counts_sites_everywhere(self):
        analyzed = parse_and_analyze(
            PREAMBLE
            + """
Int16 probe(void) { return x; }
void helper(void) { out = out + 1; }
void f(void) {
    helper();
    if (x > 0) { helper(); }
    if (probe() > 0) { out = out + probe(); }
}
""",
            filename="calls.c",
        )
        counts = called_names(analyzed.program.function("f"))
        assert counts == {"helper": 2, "probe": 2}
        assert called_names(analyzed.program.function("helper")) == {}


class TestResolution:
    def test_same_unit_definition_wins_over_other_units(self):
        project = project_of(
            a_c="void helper(void) { out = out + 1; }\n"
            "void caller(void) { helper(); }\n",
            b_c="void helper(void) { out = out + 2; }\n",
        )
        graph = CallGraph.from_project(project)
        node = graph.node("a.c:caller")
        assert node.resolved == {"helper": "a.c:helper"}
        assert not node.ambiguous

    def test_unique_cross_unit_resolution(self):
        project = project_of(
            a_c="void caller(void) { helper(); }\n",
            b_c="void helper(void) { out = out + 2; }\n",
        )
        graph = CallGraph.from_project(project)
        assert graph.node("a.c:caller").resolved == {"helper": "b.c:helper"}
        assert graph.waves() == [["b.c:helper"], ["a.c:caller"]]

    def test_ambiguous_cross_unit_name_is_diagnosed_and_external(self):
        project = project_of(
            a_c="void caller(void) { helper(); }\n",
            b_c="void helper(void) { out = out + 2; }\n",
            c_c="void helper(void) { out = out + 3; }\n",
        )
        graph = CallGraph.from_project(project)
        node = graph.node("a.c:caller")
        assert node.resolved == {}
        assert node.ambiguous == ("helper",)
        kinds = {diag.kind for diag in graph.diagnostics}
        assert "ambiguous-callee" in kinds
        # the caller has no dependencies: one wave, no summaries to wait for
        assert graph.dependencies()["a.c:caller"] == ()

    def test_undefined_names_are_external(self):
        project = project_of(a_c="void caller(void) { runnable(); }\n")
        node = CallGraph.from_project(project).node("a.c:caller")
        assert node.external == ("runnable",)
        assert node.resolved == {}


class TestCyclesAndDiagnostics:
    def test_direct_recursion_detected(self):
        project = project_of(
            a_c="void rec(void) { if (x > 0) { rec(); } out = out + 1; }\n"
        )
        graph = CallGraph.from_project(project)
        assert graph.cycles() == [["a.c:rec"]]
        assert graph.cyclic_callee_names("a.c:rec") == ("rec",)
        assert any(d.kind == "direct-recursion" for d in graph.diagnostics)

    def test_mutual_recursion_cycle_named_in_diagnostics(self):
        project = project_of(
            a_c="void ping(void) { if (x > 0) { pong(); } }\n"
            "void pong(void) { if (x > 1) { ping(); } }\n"
        )
        graph = CallGraph.from_project(project)
        assert graph.cycles() == [["a.c:ping", "a.c:pong"]]
        messages = [d.message for d in graph.diagnostics if d.kind == "call-cycle"]
        assert messages and all(
            "a.c:ping" in message and "a.c:pong" in message for message in messages
        )
        # intra-cycle edges are dropped: both schedule on the same single wave
        assert graph.dependencies() == {"a.c:ping": (), "a.c:pong": ()}
        assert graph.waves() == [["a.c:ping", "a.c:pong"]]


class TestChainGraphShape:
    def test_waves_order_callees_before_callers(self, chain_graph):
        waves = chain_graph.waves()
        assert waves[0] == ["unit_0.c:chain_leaf", "unit_1.c:solo_task"]
        position = {
            name: index for index, wave in enumerate(waves) for name in wave
        }
        for edge in chain_graph.edges():
            assert position[edge.callee] < position[edge.caller]
        # the 3-deep chain forces at least 4 waves
        assert len(waves) >= 4

    def test_diamond_resolves_to_shared_leaf(self, chain_graph):
        left = chain_graph.node("unit_0.c:diamond_left")
        right = chain_graph.node("unit_0.c:diamond_right")
        assert left.resolved["chain_leaf"] == "unit_0.c:chain_leaf"
        assert right.resolved["chain_leaf"] == "unit_0.c:chain_leaf"

    def test_cross_unit_calls_resolve(self, chain_graph):
        helper = chain_graph.node("unit_1.c:local_helper")
        assert helper.resolved == {"chain_top": "unit_0.c:chain_top"}

    def test_closure_expands_to_transitive_callees(self, chain_graph):
        names = [f.qualified_name for f in chain_graph.closure(["task_0"])]
        assert names == [
            "unit_0.c:chain_leaf",
            "unit_0.c:chain_mid",
            "unit_0.c:chain_top",
            "unit_0.c:diamond_left",
            "unit_0.c:diamond_right",
            "unit_0.c:task_0",
        ]
        with pytest.raises(ProjectError):
            chain_graph.closure(["no_such_function"])

    def test_report_exports(self, chain_graph):
        payload = chain_graph.to_dict()
        assert len(payload["functions"]) == 9
        assert payload["cycles"] == []
        text = chain_graph.to_text()
        assert "wave 0" in text and "unit_0.c:chain_leaf" in text


class TestTransitiveFingerprints:
    def edited_leaf_sources(self, chain_workload) -> dict[str, str]:
        sources = dict(chain_workload.sources)
        head, rest = sources["unit_0.c"].split("void chain_mid", 1)
        edited_head = head.replace("acc = acc + ", "acc = acc + 1 + ", 1)
        assert edited_head != head
        sources["unit_0.c"] = edited_head + "void chain_mid" + rest
        return sources

    def test_leaf_edit_changes_exactly_transitive_callers(
        self, chain_workload, chain_graph
    ):
        edited = CallGraph.from_project(
            Project.from_sources(self.edited_leaf_sources(chain_workload))
        )
        before = chain_graph.transitive_fingerprints()
        after = edited.transitive_fingerprints()
        changed = {name for name in before if before[name] != after[name]}
        # every function except the call-free solo_task reaches chain_leaf
        assert changed == set(before) - {"unit_1.c:solo_task"}

    def test_sibling_edit_does_not_touch_leaf_or_solo(
        self, chain_workload, chain_graph
    ):
        sources = dict(chain_workload.sources)
        head, middle, rest = sources["unit_0.c"].partition("void diamond_left")
        edited_rest = rest.replace("acc = acc + ", "acc = acc + 2 + ", 1)
        assert edited_rest != rest
        sources["unit_0.c"] = head + middle + edited_rest
        edited = CallGraph.from_project(Project.from_sources(sources))
        before = chain_graph.transitive_fingerprints()
        after = edited.transitive_fingerprints()
        changed = {name for name in before if before[name] != after[name]}
        assert changed == {"unit_0.c:diamond_left", "unit_0.c:task_0"}

    def test_new_definition_for_external_name_rekeys_caller(self):
        caller = "void caller(void) { helper(); }\n"
        one = CallGraph.from_project(project_of(a_c=caller))
        two = CallGraph.from_project(
            project_of(a_c=caller, b_c="void helper(void) { out = out + 1; }\n")
        )
        assert (
            one.transitive_fingerprints()["a.c:caller"]
            != two.transitive_fingerprints()["a.c:caller"]
        )

    def test_unknown_call_cycles_rekeys_ambiguous_callers(self):
        """The pessimistic charge enters ambiguous callers' cache identity."""
        project = project_of(
            a_c="void caller(void) { helper(); }\n",
            b_c="void helper(void) { out = out + 2; }\n",
            c_c="void helper(void) { out = out + 3; }\n",
        )
        graph = CallGraph.from_project(project)
        low = graph.transitive_fingerprints(unknown_call_cycles=100)
        high = graph.transitive_fingerprints(unknown_call_cycles=200)
        assert low["a.c:caller"] != high["a.c:caller"]
        assert low["b.c:helper"] == high["b.c:helper"]

    def test_unknown_call_cycles_only_rekeys_cyclic_functions(self):
        project = project_of(
            a_c="void rec(void) { if (x > 0) { rec(); } }\n"
            "void plain(void) { out = out + 1; }\n"
        )
        graph = CallGraph.from_project(project)
        low = graph.transitive_fingerprints(unknown_call_cycles=100)
        high = graph.transitive_fingerprints(unknown_call_cycles=200)
        assert low["a.c:rec"] != high["a.c:rec"]
        assert low["a.c:plain"] == high["a.c:plain"]


class TestCalleeSummaryStore:
    def test_bounds_for_prefers_summaries_and_falls_back(self):
        store = CalleeSummaryStore()
        store.add(
            CalleeSummary(
                qualified_name="u.c:leaf", call_name="leaf", wcet_bound_cycles=57
            )
        )
        bounds = store.bounds_for(
            {"leaf": "u.c:leaf", "missing": "u.c:missing", "self": "u.c:self"},
            cyclic_names=("self",),
            unknown_call_cycles=999,
        )
        assert bounds == {"leaf": 57, "missing": 999, "self": 999}


# ---------------------------------------------------------------------- #
class TestSchedulerCycleError:
    def test_waves_error_names_functions_on_cycle(self, chain_project):
        scheduler = ProjectScheduler(chain_project, config=quick_config())
        jobs = scheduler.jobs()
        by_name = {job.function.name: job for job in jobs}
        # manufacture a dependency cycle task_0 -> chain_leaf -> task_0
        by_name["chain_leaf"].deps = (by_name["task_0"].job_id,)
        with pytest.raises(ProjectError) as error:
            ProjectScheduler._waves(jobs)
        message = str(error.value)
        assert "dependency cycle" in message
        assert "unit_0.c:chain_leaf" in message
        assert "unit_0.c:task_0" in message


# ---------------------------------------------------------------------- #
class TestInterproceduralScheduling:
    def test_callees_analysed_before_callers_with_summary_reuse(
        self, chain_serial_report
    ):
        report = chain_serial_report
        assert not report.failures
        assert report.waves == 5
        assert report.all_safe
        by_name = {summary.function: summary for summary in report.functions}
        # caller bounds charge the exact bounds computed for their callees
        assert by_name["chain_mid"].callee_bounds_used == {
            "chain_leaf": by_name["chain_leaf"].wcet_bound_cycles
        }
        assert by_name["task_0"].callee_bounds_used == {
            "chain_top": by_name["chain_top"].wcet_bound_cycles,
            "diamond_left": by_name["diamond_left"].wcet_bound_cycles,
            "diamond_right": by_name["diamond_right"].wcet_bound_cycles,
        }
        assert by_name["task_0"].summarised_call_sites == 3
        # a caller is at least as expensive as its most expensive callee
        assert (
            by_name["task_0"].wcet_bound_cycles
            > by_name["chain_top"].wcet_bound_cycles
        )
        assert report.summary_reuse_calls == sum(
            s.summarised_call_sites for s in report.functions
        )
        assert report.callgraph is not None
        assert report.callgraph["cycles"] == []

    def test_summary_bound_strictly_tighter_than_unknown_fallback(
        self, chain_project, chain_serial_report
    ):
        by_name = {s.function: s for s in chain_serial_report.functions}
        pessimistic = {
            name: DEFAULT_UNKNOWN_CALL_CYCLES
            for name in ("chain_top", "diamond_left", "diamond_right")
        }
        fallback = WcetAnalyzer(
            chain_project.unit("unit_0.c").analyzed,
            "task_0",
            quick_config(),
            callee_bounds=pessimistic,
        ).analyze()
        assert (
            by_name["task_0"].wcet_bound_cycles < fallback.wcet_bound_cycles
        )

    def test_only_filter_closes_over_callees(self, chain_project):
        report = ProjectScheduler(
            chain_project, config=quick_config(), only=["chain_mid"]
        ).run()
        assert [s.function for s in report.functions] == [
            "chain_leaf",
            "chain_mid",
        ]
        assert report.waves == 2

    def test_recursive_function_completes_with_pessimistic_charge(self):
        project = project_of(
            a_c="void rec(void) { if (x > 0) { rec(); } out = out + 1; }\n"
        )
        # exhaustive end-to-end stays at its default: the scheduler must
        # disable it automatically for jobs on a recursion cycle (real
        # recursion would only die against the interpreter's step budget)
        report = ProjectScheduler(
            project, config=quick_config(), unknown_call_cycles=500
        ).run()
        assert not report.failures
        summary = report.functions[0]
        assert summary.callee_bounds_used == {"rec": 500}
        assert summary.measured_wcet_cycles is None
        # the nested self-call is charged the pessimistic 500-cycle bound
        assert summary.wcet_bound_cycles > 500
        # a pessimistic charge is not a reused summary: the metric stays 0
        assert summary.summarised_call_sites == 0
        assert report.summary_reuse_calls == 0

    def test_ambiguous_callee_charged_pessimistically(self):
        project = project_of(
            a_c="void caller(void) { helper(); }\n",
            b_c="void helper(void) { out = out + 2; }\n",
            c_c="void helper(void) { out = out + 3; }\n",
        )
        report = ProjectScheduler(
            project, config=quick_config(), unknown_call_cycles=777
        ).run()
        assert not report.failures
        caller = next(s for s in report.functions if s.function == "caller")
        assert caller.callee_bounds_used == {"helper": 777}
        assert caller.wcet_bound_cycles > 777


class TestSummarisationSafety:
    def test_value_used_callee_is_inlined_not_stubbed(self):
        project = project_of(
            a_c="Int16 helper(void) { return x; }\n"
            "void caller(void) { if (helper() > 0) { out = out + 2; } }\n"
        )
        graph = CallGraph.from_project(project)
        assert graph.node("a.c:caller").unsummarisable == ("helper",)
        assert any(d.kind == "inlined-callee" for d in graph.diagnostics)

        report = ProjectScheduler(project, config=quick_config()).run()
        assert not report.failures
        caller = next(s for s in report.functions if s.function == "caller")
        # the callee is inlined on the caller's board, never summary-charged
        assert caller.callee_bounds_used == {}
        assert caller.safe

    def test_transitive_global_coupling_is_inlined(self):
        project = project_of(
            a_c="Int16 shared = 0;\n"
            "void leaf(void) { shared = shared + 1; }\n"
            "void mid(void) { leaf(); }\n"
            "void caller(void) { mid(); if (shared > 0) { out = out + 1; } }\n"
        )
        graph = CallGraph.from_project(project)
        # caller reads 'shared', which mid writes transitively through leaf
        assert graph.node("a.c:caller").unsummarisable == ("mid",)
        # mid itself reads nothing leaf writes: its edge stays summarisable
        assert graph.node("a.c:mid").unsummarisable == ()

    def test_callee_reading_caller_written_global_is_inlined(self):
        """The other coupling direction: the callee's standalone summary was
        measured without the caller's writes, so it must be inlined too."""
        project = project_of(
            a_c="Int16 gate = 0;\n"
            "void leaf(void) { if (gate > 0) { out = out + 5; } }\n"
            "void caller(void) { gate = x; leaf(); }\n"
        )
        graph = CallGraph.from_project(project)
        assert graph.node("a.c:caller").unsummarisable == ("leaf",)
        messages = [
            d.message for d in graph.diagnostics if d.kind == "inlined-callee"
        ]
        assert any(
            "reads global(s) the caller or a sibling callee writes" in m
            for m in messages
        )

    def test_caller_of_recursive_callee_completes(self):
        """Exhaustive verification is auto-disabled for the whole recursion
        closure, not just the cycle members themselves."""
        project = project_of(
            a_c="void rec(void) { if (x > 0) { rec(); } }\n"
            "void caller(void) { rec(); out = out + 1; }\n"
        )
        report = ProjectScheduler(
            project, config=quick_config(), unknown_call_cycles=300
        ).run()
        assert not report.failures
        by_name = {s.function: s for s in report.functions}
        assert by_name["rec"].measured_wcet_cycles is None
        assert by_name["caller"].measured_wcet_cycles is None
        # the caller still charges rec's computed summary bound
        assert by_name["caller"].callee_bounds_used == {
            "rec": by_name["rec"].wcet_bound_cycles
        }

    def test_sibling_callee_coupling_is_inlined(self):
        """setter(); reader(); coupled through a global the caller never
        mentions: both edges must be inlined."""
        project = project_of(
            a_c="Int16 g = 0;\n"
            "void setter(void) { g = x; }\n"
            "void reader(void) { if (g > 0) { out = out + 5; } }\n"
            "void caller(void) { setter(); reader(); }\n"
        )
        graph = CallGraph.from_project(project)
        assert graph.node("a.c:caller").unsummarisable == ("reader", "setter")
        # standalone, neither helper couples with anything
        assert graph.node("a.c:setter").unsummarisable == ()
        assert graph.node("a.c:reader").unsummarisable == ()

    def test_value_used_recursive_call_is_diagnosed(self):
        project = project_of(
            a_c="Int16 rec(void) { if (x > 0) { out = out + rec(); } return x; }\n"
        )
        graph = CallGraph.from_project(project)
        assert any(d.kind == "unsound-recursion" for d in graph.diagnostics)

    def test_waves_use_scheduler_dependency_depth_for_cycles(self):
        """Mutual-recursion members place by dep depth, matching the
        executed schedule (intra-cycle edges dropped)."""
        project = project_of(
            a_c="void leaf(void) { out = out + 1; }\n"
            "void ping(void) { if (x > 0) { pong(); } }\n"
            "void pong(void) { if (x > 1) { ping(); } leaf(); }\n"
        )
        graph = CallGraph.from_project(project)
        assert graph.waves() == [["a.c:leaf", "a.c:ping"], ["a.c:pong"]]

    def test_coupled_recursive_callee_keeps_stub_and_is_diagnosed(self):
        """A coupled callee that reaches recursion cannot be inlined (the
        measurement board would run real, non-terminating recursion): the
        summary stub stays and an unsound-recursion diagnostic is raised."""
        project = project_of(
            a_c="Int16 g = 0;\n"
            "void rec(void) { g = g + 1; if (x > 0) { rec(); } }\n"
            "void caller(void) { rec(); out = out + g; }\n"
        )
        graph = CallGraph.from_project(project)
        assert graph.node("a.c:caller").unsummarisable == ()
        assert any(d.kind == "unsound-recursion" for d in graph.diagnostics)
        report = ProjectScheduler(
            project, config=quick_config(), unknown_call_cycles=400
        ).run()
        assert not report.failures

    def test_inlined_callee_keeps_inner_interprocedural_charges(self):
        """Calls made inside an inlined body charge exactly what they did in
        the callee's standalone analysis, not the default external cost."""
        project = project_of(
            a_c="Int16 g = 0;\n"
            "void mid(void) { g = x; helper(); }\n"
            "void caller(void) { mid(); out = out + g; }\n",
            b_c="void helper(void) { if (x > 1) { out = out + 3; } }\n",
        )
        graph = CallGraph.from_project(project)
        assert graph.node("a.c:caller").unsummarisable == ("mid",)
        report = ProjectScheduler(project, config=quick_config()).run()
        assert not report.failures
        by_name = {s.function: s for s in report.functions}
        # mid itself is inlined (absent), but helper's summary rides along
        assert "mid" not in by_name["caller"].callee_bounds_used
        assert by_name["caller"].callee_bounds_used == {
            "helper": by_name["helper"].wcet_bound_cycles
        }

    def test_value_use_inside_inlined_body_unstubs_the_shared_callee(self):
        """b is inlined into a and uses probe's return value; a also calls
        probe as a statement.  probe must not be stubbed on a's board, or
        b's inlined control flow would see the stub's 0."""
        project = project_of(
            a_c="Int16 g = 0;\n"
            "Int16 probe(void) { return x; }\n"
            "void b(void) { g = x; if (probe() > 0) { out = out + 3; } }\n"
            "void a(void) { probe(); b(); out = out + g; }\n"
        )
        graph = CallGraph.from_project(project)
        assert graph.node("a.c:b").unsummarisable == ("probe",)
        assert graph.node("a.c:a").unsummarisable == ("b",)
        report = ProjectScheduler(project, config=quick_config()).run()
        assert not report.failures
        a_summary = next(s for s in report.functions if s.function == "a")
        # neither b (inlined directly) nor probe (inline demanded by b's
        # body) may appear in a's stub charges
        assert a_summary.callee_bounds_used == {}

    def test_same_name_globals_in_other_units_do_not_alias(self):
        """Units have disjoint globals: a cross-unit callee writing its own
        'shared' must not force inlining of a caller reading another one."""
        project = project_of(
            a_c="Int16 shared = 0;\n"
            "void mid(void) { faraway(); }\n"
            "void caller(void) { mid(); out = out + shared; }\n",
            b_c="Int16 shared = 0;\n"
            "void faraway(void) { shared = shared + 1; }\n",
        )
        graph = CallGraph.from_project(project)
        assert graph.node("a.c:caller").unsummarisable == ()
        assert graph.node("a.c:mid").unsummarisable == ()

    def test_chain_workload_stays_fully_summarisable(self, chain_graph):
        assert all(not node.unsummarisable for node in chain_graph.nodes())

    def test_workload_rejects_unsupported_unit_counts(self):
        with pytest.raises(ValueError):
            generate_call_chain_workload(seed=1, units=3)
        with pytest.raises(ValueError):
            generate_call_chain_workload(seed=1, units=0)

    def test_cached_run_and_transitive_invalidation(
        self, chain_workload, chain_project, chain_serial_report, tmp_path: Path
    ):
        cache_dir = tmp_path / "cache"
        first = ProjectScheduler(
            chain_project, config=quick_config(), cache=ResultCache(cache_dir)
        ).run()
        assert (first.cache_hits, first.cache_misses) == (0, 9)
        assert first.function_payloads() == chain_serial_report.function_payloads()

        # a second identical run hits the cache for every function
        second = ProjectScheduler(
            chain_project, config=quick_config(), cache=ResultCache(cache_dir)
        ).run()
        assert (second.cache_hits, second.cache_misses) == (9, 0)
        assert all(summary.from_cache for summary in second.functions)
        assert second.function_payloads() == first.function_payloads()

        # editing the leaf re-analyses it plus every transitive caller --
        # which in this topology is everything except the call-free solo_task
        sources = TestTransitiveFingerprints().edited_leaf_sources(chain_workload)
        third = ProjectScheduler(
            Project.from_sources(sources),
            config=quick_config(),
            cache=ResultCache(cache_dir),
        ).run()
        warm = sorted(s.function for s in third.functions if s.from_cache)
        assert warm == ["solo_task"]
        assert (third.cache_hits, third.cache_misses) == (1, 8)

    def test_same_unit_inlined_callee_edit_reanalyses_caller(
        self, tmp_path: Path
    ):
        """f uses g's return value, so the board inlines g's body into f's
        measurements.  After g is edited in f's own unit, a run over the
        same cache must re-analyse f and match a fresh analysis -- serving
        f's old entry would report a bound below the new worst case."""
        def sources(g_body: str) -> Project:
            return project_of(
                a_c=f"Int16 g(void) {{ {g_body} }}\n"
                "void f(void) { out = out + g(); }\n"
            )

        cache_dir = tmp_path / "cache"
        before = sources("return x;")
        assert CallGraph.from_project(before).node("a.c:f").unsummarisable == (
            "g",
        )
        first = ProjectScheduler(
            before, config=quick_config(), cache=ResultCache(cache_dir)
        ).run()

        edited = sources(
            "Int16 r = x; if (x > 1) { r = r * 3 + 1; r = r * 5 - x; "
            "r = r / 2 + 7; } return r;"
        )
        warm = ProjectScheduler(
            edited, config=quick_config(), cache=ResultCache(cache_dir)
        ).run()
        fresh = ProjectScheduler(edited, config=quick_config()).run()
        assert not warm.failures
        assert (warm.cache_hits, warm.cache_misses) == (0, 2)
        assert warm.function_payloads() == fresh.function_payloads()
        def bound_of_f(report) -> int:
            return next(
                s.wcet_bound_cycles for s in report.functions if s.function == "f"
            )

        assert bound_of_f(fresh) > bound_of_f(first)

    def test_sibling_edit_invalidates_only_its_callers(
        self, chain_workload, chain_project, tmp_path: Path
    ):
        cache_dir = tmp_path / "cache"
        ProjectScheduler(
            chain_project, config=quick_config(), cache=ResultCache(cache_dir)
        ).run()
        sources = dict(chain_workload.sources)
        head, middle, rest = sources["unit_0.c"].partition("void diamond_left")
        edited_rest = rest.replace("acc = acc + ", "acc = acc + 2 + ", 1)
        assert edited_rest != rest
        sources["unit_0.c"] = head + middle + edited_rest
        report = ProjectScheduler(
            Project.from_sources(sources),
            config=quick_config(),
            cache=ResultCache(cache_dir),
        ).run()
        missed = sorted(s.function for s in report.functions if not s.from_cache)
        assert missed == ["diamond_left", "task_0"]


# ---------------------------------------------------------------------- #
@pytest.mark.interproc
class TestInterproceduralParallel:
    def test_jobs2_matches_serial_bit_for_bit(
        self, chain_project, chain_serial_report
    ):
        scheduler = ProjectScheduler(
            chain_project, config=quick_config(), workers=2
        )
        parallel = scheduler.run()
        assert not parallel.failures
        assert (
            parallel.function_payloads()
            == chain_serial_report.function_payloads()
        )

    def test_parallel_cache_feeds_serial_rerun(
        self, chain_project, chain_serial_report, tmp_path: Path
    ):
        cache_dir = tmp_path / "cache"
        parallel = ProjectScheduler(
            chain_project,
            config=quick_config(),
            cache=ResultCache(cache_dir),
            workers=2,
        ).run()
        assert (parallel.cache_hits, parallel.cache_misses) == (0, 9)
        rerun = ProjectScheduler(
            chain_project, config=quick_config(), cache=ResultCache(cache_dir)
        ).run()
        assert (rerun.cache_hits, rerun.cache_misses) == (9, 0)
        assert rerun.function_payloads() == chain_serial_report.function_payloads()


# ---------------------------------------------------------------------- #
class TestSchedulerFallbackReason:
    def test_pool_create_failure_is_recorded_not_fatal(
        self, chain_project, monkeypatch
    ):
        import concurrent.futures

        def refuse(*args, **kwargs):
            raise OSError("fork denied by sandbox")

        monkeypatch.setattr(
            concurrent.futures, "ProcessPoolExecutor", refuse
        )
        scheduler = ProjectScheduler(
            chain_project, config=quick_config(), workers=2
        )
        report = scheduler.run()
        assert not report.failures
        assert report.mode == "serial-fallback"
        assert report.fallback_reason is not None
        assert "pool-create-failed" in report.fallback_reason
        assert "fork denied by sandbox" in report.fallback_reason
        assert report.to_dict()["execution"]["fallback_reason"] == report.fallback_reason


# ---------------------------------------------------------------------- #
class TestCallGraphCli:
    def test_demo_calls_prints_graph_and_waves(self, capsys):
        from repro.cli import main as cli_main

        code = cli_main(
            [
                "project",
                "--demo-calls",
                "--no-cache",
                "--bound",
                "2",
                "--call-graph",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "Call graph: 9 function(s)" in output
        assert "wave 0" in output
        assert "callee summaries reused" in output
        assert "5 wave(s)" in output

    def test_demo_calls_excludes_files_and_demo(self, capsys):
        from repro.cli import main as cli_main

        assert cli_main(["project", "--demo", "--demo-calls"]) == 2
        assert "mutually exclusive" in capsys.readouterr().err
