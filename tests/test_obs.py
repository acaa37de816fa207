"""Tests of the observability layer (:mod:`repro.obs`).

All tests carry the ``obs`` marker (registered in ``pytest.ini``) and
stay bounded: tiny mini-C workloads under the quick hybrid options, at
most two pool workers, in-process servers on ephemeral loopback ports.
The invariants under test are the tentpole promises of the layer:

* spans form one connected tree under a single ``trace_id``, including
  across the process-pool boundary (the serialisable ``SpanContext``
  handshake);
* tracing never changes an analysis result: ``result_payload()`` stays
  bit-identical to an untraced run;
* one vocabulary: every region is a timer, traced or not, so every span
  name of a traced run is also one of its timers;
* ``GET /v1/metrics`` serves Prometheus text with histogram timers;
* quarantines, fired faults and server 5xx responses leave a flight
  dump in ``diagnostics/`` whose ``trace_id`` is echoed in the project
  report (resp. the 503 body).
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

from repro import obs, perf
from repro.pipeline import AnalyzerConfig
from repro.project import Project, ProjectScheduler, ResultCache
from repro.resilience import FaultPlan
from repro.service import AnalysisServer, ServiceClient
from repro.testgen import HybridOptions

pytestmark = pytest.mark.obs

QUICK_HYBRID = HybridOptions(plateau_patterns=20, max_random_vectors=60, seed=1)

#: two call-independent functions -> schedulable in one two-job wave
PAIR = {
    "unit": """
int left(int x) { if (x > 3) { x = x - 1; } return x; }
int right(int y) { if (y > 1) { y = y + 2; } return y; }
"""
}

TINY = {"unit": "int only(int x) { if (x > 1) { x = x - 1; } return x; }"}
#: one branch sa proves never taken, so the genetic phase skips its target
#: (the space is wider than QUICK_HYBRID's 60 random vectors, so it is
#: sampled and the genetic phase runs)
PRUNED = {
    "unit": "#pragma input x\n#pragma range x 0 300\nint x;\n"
    "int f(void) { int a; a = 0; if (x > 1000) { a = 9; } return a; }"
}

#: the same branch over a 4-value space: the first phase runs all of it, so
#: no genetic phase starts and nothing is skipped
PRUNED_WHOLE = {
    "unit": "#pragma input x\n#pragma range x 0 3\nint x;\n"
    "int f(void) { int a; a = 0; if (x > 100) { a = 9; } return a; }"
}


def quick_config(**overrides) -> AnalyzerConfig:
    options = dict(
        path_bound=2,
        hybrid=QUICK_HYBRID,
        extra_random_vectors=5,
        exhaustive_limit=None,
    )
    options.update(overrides)
    return AnalyzerConfig(**options)


def payloads(report) -> list[dict]:
    return [summary.result_payload() for summary in report.functions]


# ---------------------------------------------------------------------- #
# tracer primitives
# ---------------------------------------------------------------------- #
def test_span_is_noop_without_tracer():
    assert obs.active_tracer() is None
    registry = perf.PerfRegistry()
    with perf.using_registry(registry):
        with obs.region("unit.test", answer=42) as context:
            assert context is None
    assert obs.current_context() is None
    # untraced, a region is still a timer
    assert registry.timer("unit.test").calls == 1


def test_nested_spans_share_a_trace_and_link_parents():
    tracer = obs.Tracer()
    with obs.using_tracer(tracer):
        with obs.region("unit.outer") as outer:
            with obs.region("unit.inner", depth=1) as inner:
                assert inner.trace_id == outer.trace_id
    events = {event["name"]: event for event in tracer.events()}
    assert events["unit.outer"]["parent_id"] is None
    assert events["unit.inner"]["parent_id"] == outer.span_id
    assert events["unit.inner"]["attrs"] == {"depth": 1}
    assert all(event["dur_us"] >= 0 for event in events.values())
    assert tracer.last_trace_id == outer.trace_id


def test_exception_is_recorded_on_the_span():
    tracer = obs.Tracer()
    with obs.using_tracer(tracer):
        with pytest.raises(ValueError):
            with obs.region("unit.boom"):
                raise ValueError("expected")
    (event,) = tracer.events()
    assert event["error"]


def test_ring_tracer_keeps_only_the_newest_events():
    tracer = obs.Tracer(max_events=4)
    with obs.using_tracer(tracer):
        for index in range(10):
            with obs.region("unit.tick", index=index):
                pass
    assert len(tracer) == 4
    kept = [event["attrs"]["index"] for event in tracer.events()]
    assert kept == [6, 7, 8, 9]


def test_span_context_roundtrip_and_rejection():
    context = obs.SpanContext(trace_id="a" * 16, span_id="1-2f")
    assert obs.SpanContext.from_dict(context.to_dict()) == context
    assert obs.SpanContext.from_dict(None) is None
    assert obs.SpanContext.from_dict({"trace_id": "only-half"}) is None


def test_merge_reattaches_cross_process_events():
    parent = obs.Tracer()
    with obs.using_tracer(parent):
        with obs.region("unit.root") as root:
            handshake = root.to_dict()
    # simulate the pool worker: a private tracer seeded from the wire dict
    worker = obs.Tracer()
    seed = obs.SpanContext.from_dict(handshake)
    with obs.using_tracer(worker, seed):
        with obs.region("unit.remote") as remote:
            assert remote.trace_id == root.trace_id
    parent.merge(worker.events())
    summary = obs.summarize(parent.events())
    assert summary["spans"] == 2
    assert list(summary["traces"]) == [root.trace_id]
    assert summary["orphans"] == 0


def test_jsonl_and_chrome_exports_roundtrip(tmp_path):
    tracer = obs.Tracer()
    with obs.using_tracer(tracer):
        with obs.region("unit.outer"):
            with obs.region("unit.inner"):
                pass
    jsonl = tmp_path / "trace.jsonl"
    chrome = tmp_path / "trace.json"
    tracer.write_jsonl(jsonl)
    tracer.write_chrome(chrome)

    header = json.loads(jsonl.read_text().splitlines()[0])
    assert header["schema"] == obs.TRACE_SCHEMA
    chrome_events = json.loads(chrome.read_text())["traceEvents"]
    assert {event["ph"] for event in chrome_events} == {"X"}

    for path in (jsonl, chrome):
        events = obs.read_trace_file(path)
        summary = obs.summarize(events)
        assert summary["spans"] == 2
        assert summary["roots"] == 1
        assert summary["orphans"] == 0
        assert set(summary["by_name"]) == {"unit.outer", "unit.inner"}


# ---------------------------------------------------------------------- #
# metrics exposition
# ---------------------------------------------------------------------- #
def test_prometheus_text_renders_counters_and_histograms():
    registry = perf.PerfRegistry()
    with perf.using_registry(registry):
        perf.add("unit.widgets", 3)
        with obs.region("unit.step"):
            pass
    text = obs.prometheus_text(registry.report())
    assert "repro_unit_widgets_total 3" in text
    assert 'repro_unit_step_seconds_bucket{le="+Inf"} 1' in text
    assert "repro_unit_step_seconds_count 1" in text
    assert "repro_unit_step_seconds_sum" in text
    # bucket counts are cumulative: every finite bound's count <= +Inf's
    buckets = [
        line
        for line in text.splitlines()
        if line.startswith("repro_unit_step_seconds_bucket")
    ]
    assert len(buckets) == len(perf.HISTOGRAM_BOUNDS) + 1


def test_prometheus_text_extra_counters_with_labels():
    registry = perf.PerfRegistry()
    text = obs.prometheus_text(
        registry.report(),
        extra_counters=[
            ("service.requests.by_endpoint", {"endpoint": "GET healthz"}, 2),
            ("service.requests.injected", None, 0),
        ],
    )
    assert (
        'repro_service_requests_by_endpoint_total{endpoint="GET healthz"} 2'
        in text
    )
    assert "repro_service_requests_injected_total 0" in text


def test_perf_registry_merge_combines_like_one_registry():
    # dyadic samples keep every float sum exact in any association order
    first, second = (0.5, 0.0625), (2.0, 0.25, 8.0)
    whole, left, right = (perf.PerfRegistry() for _ in range(3))
    for registry, samples in ((left, first), (right, second)):
        for seconds in samples:
            registry.record_time("unit.step", seconds)
            whole.record_time("unit.step", seconds)
    for registry, amount in ((left, 1), (right, 2)):
        registry.add("unit.widgets", amount)
        whole.add("unit.widgets", amount)
    right.add("unit.right_only", 5)
    whole.add("unit.right_only", 5)
    right.record_time("unit.right_step", 0.125)
    whole.record_time("unit.right_step", 0.125)
    left.merge(right.report())
    assert left.report() == whole.report()
    # merging an empty report changes nothing
    left.merge(perf.PerfRegistry().report())
    assert left.report() == whole.report()


# ---------------------------------------------------------------------- #
# flight recorder
# ---------------------------------------------------------------------- #
def test_flight_recorder_dumps_the_span_ring(tmp_path):
    tracer = obs.Tracer(max_events=8)
    with obs.using_tracer(tracer):
        with obs.region("unit.work"):
            pass
    recorder = obs.FlightRecorder(tmp_path / obs.DIAGNOSTICS_DIR)
    record = recorder.dump("unit-test", tracer=tracer, detail="boom")
    assert record is not None
    assert record["trace_id"] == tracer.last_trace_id
    dumped = json.loads(open(record["path"], encoding="utf-8").read())
    assert dumped["schema"] == obs.FLIGHT_SCHEMA
    assert dumped["trigger"] == "unit-test"
    assert dumped["detail"] == "boom"
    assert dumped["events"], "the span ring must be captured in the dump"


def test_flight_recorder_caps_dump_count(tmp_path):
    recorder = obs.FlightRecorder(tmp_path / "diag", max_dumps=2)
    first = recorder.dump("one")
    second = recorder.dump("two")
    third = recorder.dump("three")
    assert first is not None and second is not None
    assert third is None, "past the cap the recorder must drop, not grow"
    assert recorder.dropped == 1


# ---------------------------------------------------------------------- #
# scheduler integration: propagation and bit-identity
# ---------------------------------------------------------------------- #
@pytest.mark.project
def test_spans_propagate_across_pool_workers():
    project = Project.from_sources(PAIR)
    tracer = obs.Tracer()
    with obs.using_tracer(tracer):
        report = ProjectScheduler(
            project, config=quick_config(), workers=2
        ).run()
    summary = obs.summarize(tracer.events())
    assert report.trace_id is not None
    assert list(summary["traces"]) == [report.trace_id]
    assert summary["orphans"] == 0, "pool-worker spans must re-attach"
    assert summary["by_name"]["project.run"]["spans"] == 1
    job_events = [
        event for event in tracer.events() if event["name"] == "project.job"
    ]
    assert len(job_events) == 2
    # both jobs hang off the run tree whether the pool was used or the
    # scheduler fell back to serial execution
    assert all(event["parent_id"] is not None for event in job_events)
    assert report.trace_spans == len(tracer)


@pytest.mark.project
def test_job_spans_name_the_same_functions_serial_and_pooled():
    from repro.workloads.multi import generate_call_chain_workload

    project = Project.from_sources(generate_call_chain_workload(2005).sources)
    functions = {}
    for workers in (1, 2):
        tracer = obs.Tracer()
        with obs.using_tracer(tracer):
            report = ProjectScheduler(project, config=quick_config(), workers=workers).run()
        functions[workers] = sorted(
            event["attrs"]["function"]
            for event in tracer.events()
            if event["name"] == "project.job"
        )
    assert report.mode == "process-pool"
    assert functions[2] == functions[1]
    assert len(functions[1]) == 9 and all(":" in name for name in functions[1])


def test_tracing_on_off_results_are_bit_identical():
    project = Project.from_sources(PAIR)
    untraced = ProjectScheduler(project, config=quick_config()).run()
    tracer = obs.Tracer()
    with obs.using_tracer(tracer):
        traced = ProjectScheduler(project, config=quick_config()).run()
    assert payloads(untraced) == payloads(traced)
    assert untraced.trace_id is None
    assert traced.trace_id is not None
    # the report's only delta is its observability section
    assert traced.to_dict()["observability"]["trace_spans"] == len(tracer)


def test_analyzer_and_mc_stages_emit_spans():
    tracer = obs.Tracer()
    with obs.using_tracer(tracer):
        ProjectScheduler(Project.from_sources(TINY), config=quick_config()).run()
    names = {event["name"] for event in tracer.events()}
    # mc.plan/mc.solve only appear when the bound needs model checking,
    # which the tiny workload does not -- the bench's connected-trace
    # check covers those on the call-chain workload
    assert {"analyze.partition", "analyze.testgen", "analyze.measure",
            "analyze.schema"} <= names


def test_untraced_analysis_times_every_stage():
    from repro.pipeline import WcetAnalyzer
    from repro.workloads import figure1_analyzed

    assert obs.active_tracer() is None
    with perf.using_registry(perf.PerfRegistry()):
        WcetAnalyzer(
            figure1_analyzed(), "main", quick_config(exhaustive_limit=20_000)
        ).analyze()
        timers = perf.report()["timers"]
    for stage in ("sa", "partition", "testgen", "measure", "schema",
                  "exhaustive"):
        assert timers[f"analyze.{stage}"]["calls"] == 1, stage


@pytest.mark.project
def test_every_span_name_is_a_timer_of_the_same_run():
    tracer = obs.Tracer()
    registry = perf.PerfRegistry()
    with perf.using_registry(registry), obs.using_tracer(tracer):
        ProjectScheduler(
            Project.from_sources(PAIR), config=quick_config(), workers=2
        ).run()
    span_names = {event["name"] for event in tracer.events()}
    timers = registry.report()["timers"]
    assert {"project.run", "project.wave", "project.job",
            "analyze.testgen"} <= span_names
    assert span_names <= set(timers)
    # one region, one timer call and one span: the counts agree too
    for name in span_names:
        spans = sum(1 for event in tracer.events() if event["name"] == name)
        assert timers[name]["calls"] == spans, name


# ---------------------------------------------------------------------- #
# flight dumps from the scheduler
# ---------------------------------------------------------------------- #
@pytest.mark.chaos
def test_injected_fault_leaves_a_flight_dump_in_the_report(tmp_path):
    plan = FaultPlan.from_args(["job.execute:raise@1+"], seed=7)
    cache_root = tmp_path / "cache"
    report = ProjectScheduler(
        Project.from_sources(TINY),
        config=quick_config(),
        cache=ResultCache(cache_root),
        fault_plan=plan,
    ).run()
    assert report.quarantined_functions, "every execution raises -> quarantine"
    assert report.flight_dumps, "a quarantine must leave a flight dump"
    record = report.flight_dumps[0]
    assert record["trigger"].startswith("quarantine-")
    assert record["trace_id"] == report.trace_id, (
        "the dump must carry the trace of the run that crashed"
    )
    dump = json.loads(open(record["path"], encoding="utf-8").read())
    assert dump["schema"] == obs.FLIGHT_SCHEMA
    assert dump["events"], "the chaos auto-armed ring must capture spans"
    # the dump is surfaced both in diagnostics/ and in the report dict
    assert str(cache_root / obs.DIAGNOSTICS_DIR) in record["path"]
    resilience = report.to_dict()["resilience"]
    assert resilience["flight_dumps"][0]["trace_id"] == report.trace_id
    assert report.to_dict()["observability"]["flight_dumps"] == 1


# ---------------------------------------------------------------------- #
# service integration: /v1/metrics and 5xx trace echo
# ---------------------------------------------------------------------- #
@pytest.mark.service
def test_metrics_endpoint_serves_prometheus_histograms(tmp_path):
    with AnalysisServer(
        config=quick_config(), cache=ResultCache(tmp_path / "cache")
    ) as srv:
        client = ServiceClient(srv.base_url, timeout=30.0)
        client.healthz()
        client.metrics()  # first scrape: the request timer now has samples
        job = client.analyze(PRUNED, wait=60)
        text = client.metrics()
        assert "repro_service_request_seconds_bucket{le=" in text
        assert "repro_service_requests_total" in text
        assert 'endpoint="GET metrics"' in text
        # finished jobs' counters are summed into the exposition
        runs = job["perf"]["counters"]["hw.board.runs"]
        assert f"repro_hw_board_runs_total {runs}" in text
        assert "repro_hw_board_memo_hits_total" in text
        assert job["perf"]["counters"]["testgen.static_skips"] == 1
        assert "repro_testgen_static_skips_total 1" in text
        # and so are their timers
        calls = job["perf"]["timers"]["project.job"]["calls"]
        assert f"repro_project_job_seconds_count {calls}" in text
        # raw exchange to check the content type of the exposition
        with urllib.request.urlopen(srv.base_url + "/v1/metrics") as response:
            assert response.headers["Content-Type"] == (
                obs.PROMETHEUS_CONTENT_TYPE
            )


def test_no_static_skip_when_the_whole_space_ran():
    registry = perf.PerfRegistry()
    with perf.using_registry(registry):
        report = ProjectScheduler(
            Project.from_sources(PRUNED_WHOLE),
            config=quick_config(),
            cache=ResultCache.disabled(),
        ).run()
    (summary,) = report.functions
    assert summary.result_payload()["generator_statistics"]["genetic_evaluations"] == 0
    assert registry.report()["counters"]["testgen.static_skips"] == 0


@pytest.mark.service
@pytest.mark.chaos
def test_server_5xx_echoes_trace_id_and_dumps_flight(tmp_path):
    plan = FaultPlan.from_args(["service.request:rate=1.0"], seed=11)
    cache_root = tmp_path / "cache"
    with AnalysisServer(
        config=quick_config(), cache=ResultCache(cache_root), fault_plan=plan
    ) as srv:
        # raw urllib: ServiceClient would retry the 503 away
        try:
            urllib.request.urlopen(srv.base_url + "/v1/healthz", timeout=10)
            raise AssertionError("the injected fault must answer 503")
        except urllib.error.HTTPError as error:
            assert error.code == 503
            body = json.loads(error.read().decode("utf-8"))
    assert body["trace_id"], "the 503 body must echo the request trace id"
    assert "flight_dump" in body
    dump = json.loads(open(body["flight_dump"], encoding="utf-8").read())
    assert dump["schema"] == obs.FLIGHT_SCHEMA
    assert dump["trigger"] == "http-503"
    assert dump["trace_id"] == body["trace_id"]
    assert (cache_root / obs.DIAGNOSTICS_DIR).is_dir()
