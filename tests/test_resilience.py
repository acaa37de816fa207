"""Tests of the resilience layer (:mod:`repro.resilience`) and its users.

All tests carry the ``chaos`` marker (registered in ``pytest.ini``); they
run in the default tier-1 suite but stay bounded -- tiny workloads, quick
hybrid options, deterministic fault plans.  The one invariant every chaos
scenario must uphold: an injected fault may make a bound *coarser* (static
pessimisation) but never smaller than the fault-free bound, and never makes
the project run raise or report a hard failure.
"""

from __future__ import annotations

import collections
import pickle
from pathlib import Path

import pytest

from repro import perf
from repro.pipeline import AnalyzerConfig
from repro.pipeline.analyzer import WcetAnalyzer
from repro.project import (
    FunctionSummary,
    Project,
    ProjectScheduler,
    ResultCache,
)
from repro.resilience import (
    Deadline,
    FaultInjector,
    FaultKind,
    FaultPlan,
    FaultPlanError,
    FaultSpec,
    InjectedFault,
    JobTimeout,
    ResilienceContext,
    RetryPolicy,
    activate,
    classify_error,
    current,
)
from repro.testgen import HybridOptions
from repro.workloads.multi import generate_multi_function_workload

pytestmark = pytest.mark.chaos

QUICK_HYBRID = HybridOptions(plateau_patterns=20, max_random_vectors=60, seed=1)


#: counters of work a run's artifact store shares (repro.hw.artifacts)
ARTIFACT_COUNTERS = ("cfg.builds", "hw.compiles")


def quick_config(**overrides) -> AnalyzerConfig:
    # static analysis is off: the prefilter answers this tiny workload's
    # residual MC queries without the solver, so fault sites like mc.solve
    # would never fire -- and these tests exist to exercise exactly those
    options = dict(
        path_bound=2,
        hybrid=QUICK_HYBRID,
        extra_random_vectors=5,
        exhaustive_limit=None,
        static_analysis=False,
    )
    options.update(overrides)
    return AnalyzerConfig(**options)


@pytest.fixture(scope="module")
def workload():
    return generate_multi_function_workload(seed=2005, functions=3, units=2)


@pytest.fixture(scope="module")
def project(workload):
    return Project.from_sources(workload.sources)


@pytest.fixture(scope="module")
def clean_report(project):
    """The fault-free baseline every chaos scenario is compared against."""
    return ProjectScheduler(project, config=quick_config()).run()


def clean_bounds(report) -> dict[tuple[str, str], int]:
    return {(s.unit, s.function): s.wcet_bound_cycles for s in report.functions}


def run_with(project, plan=None, **kwargs):
    return ProjectScheduler(
        project, config=quick_config(), fault_plan=plan, **kwargs
    ).run()


# ---------------------------------------------------------------------- #
class TestFaultSpecs:
    def test_parse_positional_forms(self):
        spec = FaultSpec.parse("cache.write:raise@3")
        assert (spec.site, spec.kind, spec.nth, spec.times) == (
            "cache.write", FaultKind.RAISE, 3, 1,
        )
        spec = FaultSpec.parse("mc.solve:raise@2x4")
        assert (spec.nth, spec.times) == (2, 4)
        spec = FaultSpec.parse("job.execute:raise@5+")
        assert (spec.nth, spec.times) == (5, 0)
        spec = FaultSpec.parse("interp.step:delay=7@100")
        assert (spec.kind, spec.delay_ms, spec.nth) == (FaultKind.DELAY, 7, 100)
        spec = FaultSpec.parse("cache.read:corrupt@1")
        assert spec.kind is FaultKind.CORRUPT

    def test_parse_rate_form(self):
        spec = FaultSpec.parse_any("job.execute:rate=0.25")
        assert spec.rate == 0.25 and spec.nth is None

    @pytest.mark.parametrize(
        "bad",
        [
            "nonsense",                    # no colon
            "no.such.site:raise",          # unknown site
            "mc.solve:explode",            # unknown kind
            "mc.solve:raise@0",            # hit index < 1
            "mc.solve:raise@x",            # non-integer hit
            "mc.solve:raise=5",            # raise takes no argument
            "interp.step:delay",           # delay needs milliseconds
            "job.execute:rate=1.5",        # rate out of range
        ],
    )
    def test_parse_rejects(self, bad):
        with pytest.raises(FaultPlanError):
            FaultSpec.parse_any(bad)

    def test_plan_describe_roundtrip(self):
        args = ["cache.write:raise@2", "mc.solve:rate=0.5", "interp.step:delay=3@10"]
        plan = FaultPlan.from_args(args, seed=9)
        assert plan.describe() == args
        again = FaultPlan.from_args(plan.describe(), seed=9)
        assert again == plan

    def test_injector_fires_on_exact_hits(self):
        plan = FaultPlan(specs=(FaultSpec.parse("mc.solve:raise@2x2"),))
        injector = FaultInjector(plan)
        fired = []
        for hit in range(1, 6):
            try:
                injector.check("mc.solve", "q")
            except InjectedFault:
                fired.append(hit)
        assert fired == [2, 3]
        assert injector.fired_count == 2

    def test_rate_decisions_are_deterministic_and_key_scoped(self):
        plan = FaultPlan(seed=3, specs=(FaultSpec.parse_any("mc.solve:rate=0.5"),))

        def fire_pattern(key: str) -> list[bool]:
            injector = FaultInjector(plan)
            pattern = []
            for _ in range(32):
                try:
                    injector.check("mc.solve", key)
                    pattern.append(False)
                except InjectedFault:
                    pattern.append(True)
            return pattern

        assert fire_pattern("a") == fire_pattern("a")  # replayable
        assert fire_pattern("a") != fire_pattern("b")  # keys are independent
        assert any(fire_pattern("a")) and not all(fire_pattern("a"))

    def test_injected_fault_pickles(self):
        fault = InjectedFault("mc.solve", "boom", 3)
        clone = pickle.loads(pickle.dumps(fault))
        assert (clone.site, clone.description, clone.hit) == ("mc.solve", "boom", 3)

    def test_ambient_context_is_scoped(self):
        assert current() is None
        context = ResilienceContext(injector=None, deadline=None)
        with activate(context):
            assert current() is context
        assert current() is None


class TestRetryPolicy:
    def test_backoff_is_deterministic(self):
        policy = RetryPolicy(base_delay_ms=10, backoff_factor=2.0, seed=5)
        delays = [policy.delay_for(attempt, "job") for attempt in (1, 2, 3)]
        again = [policy.delay_for(attempt, "job") for attempt in (1, 2, 3)]
        assert delays == again
        # exponential shape survives the jitter (jitter is +/-10%)
        assert delays[0] < delays[1] < delays[2]
        assert policy.delay_for(1, "other-job") != delays[0]

    def test_backoff_is_capped(self):
        policy = RetryPolicy(
            base_delay_ms=100, max_delay_ms=150, backoff_factor=10.0, jitter=0.0
        )
        assert policy.delay_for(5, "k") == pytest.approx(0.150)

    def test_classification(self):
        assert classify_error(InjectedFault("mc.solve", "x", 1)) == "transient"
        assert classify_error(OSError("disk")) == "transient"
        assert classify_error(JobTimeout("too slow")) == "permanent"
        assert classify_error(ValueError("bug")) == "permanent"

    def test_deadline_expires(self):
        deadline = Deadline(0.0)
        assert deadline.expired()
        with pytest.raises(JobTimeout):
            deadline.poll()
        assert not Deadline(60.0).expired()


# ---------------------------------------------------------------------- #
class TestCrashSafeCache:
    SUMMARY = FunctionSummary(
        unit="u.c",
        function="f",
        path_bound=2,
        partitioner="paper",
        segments=3,
        instrumentation_points=6,
        measurements_required=5,
        measurement_runs=9,
        test_vectors_used=7,
        infeasible_paths=1,
        wcet_bound_cycles=123,
        measured_wcet_cycles=120,
        overestimation=1.025,
        safe=True,
    )

    def cache_with_faults(self, tmp_path: Path, *specs: str) -> ResultCache:
        cache = ResultCache(tmp_path / "cache")
        plan = FaultPlan.from_args(list(specs))
        cache.fault_injector = FaultInjector(plan)
        return cache

    def test_injected_write_failure_counts_and_warns_once(self, tmp_path: Path):
        cache = self.cache_with_faults(tmp_path, "cache.write:raise@1x2")
        key = cache.key_for("f" * 64, quick_config())
        cache.put(key, self.SUMMARY)
        cache.put(key, self.SUMMARY)
        assert cache.write_failures == 2
        assert len([d for d in cache.diagnostics if "write" in d]) == 1
        # third write goes through
        cache.put(key, self.SUMMARY)
        assert cache.get(key) is not None

    def test_no_tmp_file_left_behind_on_write_failure(self, tmp_path: Path):
        cache = self.cache_with_faults(tmp_path, "cache.write:raise@1+")
        key = cache.key_for("f" * 64, quick_config())
        for _ in range(3):
            cache.put(key, self.SUMMARY)
        stray = [
            p
            for p in (tmp_path / "cache").rglob("*")
            if p.is_file() and p.suffix != ".json" and p.name != ".lock"
        ]
        assert stray == []
        assert cache.write_failures == 3

    def test_injected_read_failure_is_a_miss(self, tmp_path: Path):
        cache = self.cache_with_faults(tmp_path, "cache.read:raise@1")
        key = cache.key_for("f" * 64, quick_config())
        cache.put(key, self.SUMMARY)
        assert cache.get(key) is None
        assert cache.read_failures == 1
        assert cache.get(key) is not None  # only the first read was poisoned

    def test_corrupt_entry_quarantined_with_diagnostic(self, tmp_path: Path):
        cache = ResultCache(tmp_path / "cache")
        key = cache.key_for("f" * 64, quick_config())
        cache.put(key, self.SUMMARY)
        path = cache.path_for(key)
        path.write_text("{torn", encoding="utf-8")
        assert cache.get(key) is None
        assert cache.quarantined == 1
        assert not path.exists()  # moved out of the live store
        corrupt_dir = tmp_path / "cache" / "corrupt"
        assert (corrupt_dir / path.name).exists()
        diags = list(corrupt_dir.glob("*.diag.json"))
        assert len(diags) == 1
        # the quarantined entry never poisons a later run: a rewrite works
        cache.put(key, self.SUMMARY)
        assert cache.get(key) is not None

    def test_injected_corrupt_read(self, tmp_path: Path):
        cache = self.cache_with_faults(tmp_path, "cache.read:corrupt@1")
        key = cache.key_for("f" * 64, quick_config())
        cache.put(key, self.SUMMARY)
        assert cache.get(key) is None
        assert cache.quarantined == 1

    def test_verify_sweep(self, tmp_path: Path, capsys):
        """A torn entry is quarantined; an unreadable one (a directory under
        an entry's name) is reported as unreadable, not as another schema's,
        and fails the cache-verify command."""
        from repro.cli import main as cli_main

        cache = ResultCache(tmp_path / "cache")
        config = quick_config()
        keys = [cache.key_for(c * 64, config) for c in "abcd"]
        for key in keys[:3]:
            cache.put(key, self.SUMMARY)
        cache.path_for(keys[0]).write_text("{torn", encoding="utf-8")
        cache.path_for(keys[3]).mkdir(parents=True)
        report = cache.verify()
        assert report["checked"] == 4
        assert report["ok"] == 2
        assert report["quarantined"] == 1
        assert report["unreadable"] == 1
        assert report["schema_mismatch"] == 0
        assert len(report["entries"]) == 2
        assert any("cache read failed" in note for note in report["entries"])

        code = cli_main(["cache-verify", "--cache-dir", str(tmp_path / "cache")])
        assert code == 1
        out = capsys.readouterr().out
        assert "unreadable      : 1" in out
        assert "schema mismatch : 0" in out

    def test_stats_count_regular_files_only(self, tmp_path: Path, capsys):
        """A directory under an entry's name is no entry: ``stats()`` skips
        it, while ``verify()`` and cache-verify still report it unreadable."""
        from repro.cli import main as cli_main

        cache = ResultCache(tmp_path / "cache")
        cache.path_for(cache.key_for("e" * 64, quick_config())).mkdir(parents=True)
        stats = cache.stats()
        assert (stats["entries"], stats["bytes"]) == (0, 0)
        assert cache.verify()["unreadable"] == 1
        code = cli_main(["cache-verify", "--cache-dir", str(tmp_path / "cache")])
        assert code == 1
        assert "unreadable      : 1" in capsys.readouterr().out


# ---------------------------------------------------------------------- #
class TestResilientScheduler:
    def test_clean_run_identical_with_empty_plan(self, project, clean_report):
        report = run_with(project, FaultPlan())
        assert [s.result_payload() for s in report.functions] == [
            s.result_payload() for s in clean_report.functions
        ]
        assert report.to_dict()["resilience"]["fault_plan"] == []

    def test_job_crash_retries_then_succeeds(self, project, clean_report):
        # job.execute hits count per-job attempts: @1 crashes every job's
        # first attempt; the retry (attempt 2) runs clean
        plan = FaultPlan.from_args(["job.execute:raise@1"])
        report = run_with(project, plan)
        assert report.failures == []
        assert report.total_retries == len(report.functions)
        assert report.quarantined_functions == []
        # the retried jobs' *results* are indistinguishable from a clean run
        assert [s.result_payload() for s in report.functions] == [
            s.result_payload() for s in clean_report.functions
        ]
        assert all(s.retries == 1 and s.fault_events for s in report.functions)

    def test_persistent_job_crash_quarantines_with_sound_bound(
        self, project, clean_report
    ):
        # @1+ crashes *every* attempt of every job: retries exhaust and all
        # jobs quarantine behind static pessimised (still sound) bounds
        plan = FaultPlan.from_args(["job.execute:raise@1+"])
        policy = RetryPolicy(max_attempts=2, base_delay_ms=1, max_delay_ms=2)
        report = run_with(project, plan, retry_policy=policy)
        assert report.failures == []
        quarantined = [s for s in report.functions if s.quarantined]
        assert len(quarantined) == len(report.functions)
        baseline = clean_bounds(clean_report)
        for summary in quarantined:
            assert summary.wcet_bound_cycles >= baseline[
                (summary.unit, summary.function)
            ]
            assert summary.degraded and summary.degraded_reason
        payload = report.to_dict()
        assert payload["resilience"]["quarantined_functions"] == [
            f"{s.unit}:{s.function}" for s in quarantined
        ]

    def test_timeout_quarantines_with_sound_bound(self, project, clean_report):
        report = run_with(project, None, job_timeout_seconds=1e-9)
        assert report.failures == []
        assert all(s.quarantined for s in report.functions)
        baseline = clean_bounds(clean_report)
        for summary in report.functions:
            assert summary.wcet_bound_cycles >= baseline[
                (summary.unit, summary.function)
            ]
            assert "timeout" in (summary.degraded_reason or "")
        # a timeout is permanent: no retry was attempted
        assert report.total_retries == 0

    def test_every_site_plan_bound_safety(self, project, clean_report):
        plan = FaultPlan.from_args(
            [
                "cache.read:raise@1",
                "cache.write:raise@1",
                "pool.submit:raise@1",
                "job.execute:raise@1",
                "mc.solve:rate=0.2",
                "interp.step:raise@40000",
            ],
            seed=11,
        )
        report = run_with(project, plan)
        assert report.failures == []
        baseline = clean_bounds(clean_report)
        for summary in report.functions:
            assert summary.wcet_bound_cycles is not None
            assert summary.wcet_bound_cycles >= baseline[
                (summary.unit, summary.function)
            ]
        payload = report.to_dict()
        assert payload["resilience"]["fault_plan"] == plan.describe()

    def test_degraded_results_are_not_cached(self, project, tmp_path: Path):
        plan = FaultPlan.from_args(["mc.solve:rate=1.0"])
        cache = ResultCache(tmp_path / "cache")
        chaos = ProjectScheduler(
            project, config=quick_config(), cache=cache, fault_plan=plan
        ).run()
        degraded = {
            (s.unit, s.function) for s in chaos.functions if s.degraded
        }
        assert degraded  # every MC query faulted: something must degrade
        # a later *clean* run over the same cache must re-analyse the
        # degraded functions from scratch, not inherit pessimised bounds
        clean = ProjectScheduler(
            project, config=quick_config(), cache=ResultCache(tmp_path / "cache")
        ).run()
        for summary in clean.functions:
            if (summary.unit, summary.function) in degraded:
                assert not summary.from_cache
                assert not summary.degraded

    def test_cache_write_faults_surface_on_report(self, project, tmp_path: Path):
        plan = FaultPlan.from_args(["cache.write:raise@1+"])
        cache = ResultCache(tmp_path / "cache")
        # the query store is disabled so every counted write failure is a
        # function-summary write (query-namespace faults have their own test)
        report = ProjectScheduler(
            project, config=quick_config(), cache=cache, fault_plan=plan,
            query_cache=ResultCache.disabled(),
        ).run()
        assert report.failures == []
        assert report.cache_write_failures == len(report.functions)
        payload = report.to_dict()
        assert payload["cache"]["write_failures"] == len(report.functions)
        assert any("write" in d for d in payload["resilience"]["diagnostics"])
        assert "cache write failures" in report.to_text()


@pytest.mark.project
class TestResilientPool:
    def test_pool_submit_fault_restarts_within_budget(self, project, clean_report):
        plan = FaultPlan.from_args(["pool.submit:raise@1"])
        report = ProjectScheduler(
            project,
            config=quick_config(),
            workers=2,
            fault_plan=plan,
            pool_restart_budget=2,
        ).run()
        assert report.failures == []
        assert report.pool_restarts == 1
        assert report.mode == "process-pool"
        assert [s.result_payload() for s in report.functions] == [
            s.result_payload() for s in clean_report.functions
        ]

    def test_pool_submit_fault_exhausts_budget_then_serial(
        self, project, clean_report
    ):
        plan = FaultPlan.from_args(["pool.submit:raise@1+"])
        report = ProjectScheduler(
            project,
            config=quick_config(),
            workers=2,
            fault_plan=plan,
            pool_restart_budget=1,
        ).run()
        assert report.failures == []
        assert report.pool_restarts == 1
        assert report.mode == "serial-fallback"
        assert "restart budget" in (report.fallback_reason or "")
        assert [s.result_payload() for s in report.functions] == [
            s.result_payload() for s in clean_report.functions
        ]

    def test_worker_crash_retried_serially(self, project, clean_report):
        plan = FaultPlan.from_args(["job.execute:raise@1"])
        report = ProjectScheduler(
            project, config=quick_config(), workers=2, fault_plan=plan
        ).run()
        assert report.failures == []
        assert report.total_retries == len(report.functions)
        assert [s.result_payload() for s in report.functions] == [
            s.result_payload() for s in clean_report.functions
        ]
    @pytest.mark.parametrize(
        "args, options, same_counters",
        [
            pytest.param([], {}, True, id="clean"),
            pytest.param(["job.execute:raise@1"], {}, True, id="raise"),
            pytest.param(
                ["job.execute:delay=300@1+"],
                {"job_timeout_seconds": 0.2},
                False,
                id="delay",
            ),
            pytest.param(["mc.solve:rate=0.2"], {}, False, id="mc-rate"),
        ],
    )
    def test_serial_and_pool_runs_agree(
        self, project, args, options, same_counters
    ):
        # one attempt function serves both paths: the worker count changes
        # where a job runs, never what fires, what settles or what is counted
        runs = {}
        for workers in (1, 2):
            registry = perf.PerfRegistry()
            with perf.using_registry(registry):
                report = ProjectScheduler(
                    project,
                    config=quick_config(),
                    workers=workers,
                    fault_plan=FaultPlan.from_args(args, seed=11),
                    **options,
                ).run()
            runs[workers] = (report, registry.report())
        (serial, serial_perf), (pool, pool_perf) = runs[1], runs[2]
        assert pool.mode == "process-pool"
        wave_sizes = collections.Counter(s.wave for s in pool.functions)
        assert max(wave_sizes.values()) >= 2

        def outcome(report):
            return [
                (s.unit, s.function, s.result_payload(), s.quarantined,
                 s.retries, s.degraded)
                for s in report.functions
            ]

        assert outcome(pool) == outcome(serial)
        if "job_timeout_seconds" in options:
            # every attempt sleeps past its deadline, on every worker count
            assert all(s.quarantined for s in serial.functions)
        if same_counters:
            # a serial run shares one store of CFGs and compiled boards
            # across its jobs; a pool attempt re-parses its unit and builds
            # its own, so only these two counters depend on the worker count
            serial_counters = dict(serial_perf["counters"])
            pool_counters = dict(pool_perf["counters"])
            for name in ARTIFACT_COUNTERS:
                assert pool_counters.pop(name) >= serial_counters.pop(name) > 0
            assert pool_counters == serial_counters
            assert set(pool_perf["timers"]) == set(serial_perf["timers"])


# ---------------------------------------------------------------------- #
class TestAnalyzerDegradation:
    def test_mc_fault_degrades_not_raises(self, workload):
        from repro.minic import parse_and_analyze

        analyzed = parse_and_analyze(
            workload.sources["unit_0.c"], filename="unit_0.c"
        )
        function = workload.functions[0][1]
        config = quick_config()
        clean = WcetAnalyzer(analyzed, function, config).analyze()

        plan = FaultPlan(specs=(FaultSpec.parse_any("mc.solve:rate=1.0"),))
        with activate(ResilienceContext(injector=FaultInjector(plan))):
            chaos = WcetAnalyzer(analyzed, function, config).analyze()
        assert chaos.degraded
        assert chaos.fault_events
        assert chaos.wcet_bound_cycles >= clean.wcet_bound_cycles
