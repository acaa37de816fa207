"""Tests of the project orchestration subsystem (:mod:`repro.project`).

The process-pool tests carry the ``project`` marker (registered in
``pytest.ini``); they stay in the default tier-1 run but are bounded -- the
workload is the small synthetic multi-function project and the worker count
is capped at 2.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.pipeline import AnalyzerConfig
from repro.project import (
    CACHE_SCHEMA,
    FunctionSummary,
    Project,
    ProjectError,
    ProjectScheduler,
    ResultCache,
    SourceUnit,
    config_fingerprint,
    function_fingerprint,
)
from repro.testgen import HybridOptions
from repro.workloads.multi import generate_multi_function_workload

QUICK_HYBRID = HybridOptions(plateau_patterns=20, max_random_vectors=60, seed=1)


def quick_config(**overrides) -> AnalyzerConfig:
    options = dict(path_bound=2, hybrid=QUICK_HYBRID, extra_random_vectors=5)
    options.update(overrides)
    return AnalyzerConfig(**options)


@pytest.fixture(scope="module")
def workload():
    return generate_multi_function_workload(seed=2005, functions=4, units=2)


@pytest.fixture(scope="module")
def project(workload):
    return Project.from_sources(workload.sources)


@pytest.fixture(scope="module")
def serial_report(project):
    """One uncached serial run shared by the shape and equality tests."""
    return ProjectScheduler(project, config=quick_config()).run()


# ---------------------------------------------------------------------- #
class TestProjectModel:
    def test_workload_is_deterministic(self, workload):
        again = generate_multi_function_workload(seed=2005, functions=4, units=2)
        assert again.sources == workload.sources
        assert again.functions == workload.functions

    def test_functions_enumerated_sorted(self, project, workload):
        functions = project.functions()
        assert [(f.unit, f.name) for f in functions] == workload.functions
        assert len({f.fingerprint for f in functions}) == len(functions)
        assert all(len(f.fingerprint) == 64 for f in functions)

    def test_fingerprint_ignores_whitespace_and_comments(self, workload):
        source = workload.sources["unit_0.c"]
        noisy = "/* a new comment */\n" + source.replace(
            "    acc = 0;", "    acc  =  0 ;  /* noise */", 1
        )
        original = SourceUnit.from_source("unit_0.c", source)
        edited = SourceUnit.from_source("unit_0.c", noisy)
        name = original.function_names()[0]
        assert function_fingerprint(original.analyzed, name) == function_fingerprint(
            edited.analyzed, name
        )

    def test_fingerprint_tracks_semantic_edits(self, workload):
        source = workload.sources["unit_0.c"]
        edited = source.replace("acc = acc + 4;", "acc = acc + 7;", 1)
        assert edited != source
        original = SourceUnit.from_source("unit_0.c", source)
        changed = SourceUnit.from_source("unit_0.c", edited)
        name = "task_0"
        assert function_fingerprint(original.analyzed, name) != function_fingerprint(
            changed.analyzed, name
        )

    def test_only_filter(self, project):
        selected = project.functions(only=["task_0"])
        assert [f.name for f in selected] == ["task_0"]
        with pytest.raises(ProjectError):
            project.functions(only=["no_such_function"])

    def test_duplicate_units_rejected(self, workload):
        unit = SourceUnit.from_source("a.c", workload.sources["unit_0.c"])
        with pytest.raises(ProjectError):
            Project([unit, unit])

    def test_bad_source_rejected(self):
        with pytest.raises(ProjectError):
            SourceUnit.from_source("bad.c", "void f( {")

    def test_from_paths_disambiguates_colliding_basenames(
        self, workload, tmp_path: Path
    ):
        first = tmp_path / "src" / "a.c"
        second = tmp_path / "lib" / "a.c"
        for path in (first, second):
            path.parent.mkdir()
        first.write_text(workload.sources["unit_0.c"], encoding="utf-8")
        second.write_text(workload.sources["unit_1.c"], encoding="utf-8")
        project = Project.from_paths([first, second])
        assert {unit.name for unit in project.units} == {"a.c", str(second)}


class TestConfigFingerprint:
    def test_stable_for_equal_configs(self):
        assert config_fingerprint(quick_config()) == config_fingerprint(quick_config())

    def test_sensitive_to_any_field(self):
        base = config_fingerprint(quick_config())
        assert config_fingerprint(quick_config(path_bound=3)) != base
        assert config_fingerprint(quick_config(partitioner="general")) != base
        assert (
            config_fingerprint(
                quick_config(hybrid=HybridOptions(plateau_patterns=21, seed=1))
            )
            != base
        )


# ---------------------------------------------------------------------- #
class TestResultCache:
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
        critical_segments=[1, 2],
        generator_statistics={"random_targets": 4},
    )

    def test_roundtrip(self, tmp_path: Path):
        cache = ResultCache(tmp_path / "cache")
        key = cache.key_for("f" * 64, quick_config())
        assert cache.get(key) is None
        cache.put(key, self.SUMMARY)
        loaded = cache.get(key)
        assert loaded is not None
        assert loaded.from_cache is True
        assert loaded.result_payload() == self.SUMMARY.result_payload()
        assert cache.hits == 1 and cache.misses == 1

    def test_corrupt_entry_reads_as_miss(self, tmp_path: Path):
        cache = ResultCache(tmp_path / "cache")
        key = cache.key_for("f" * 64, quick_config())
        cache.put(key, self.SUMMARY)
        cache.path_for(key).write_text("{not json", encoding="utf-8")
        assert cache.get(key) is None

    def test_truncated_entry_reads_as_miss(self, tmp_path: Path):
        """A torn write (e.g. power loss mid-copy) must behave as a miss."""
        cache = ResultCache(tmp_path / "cache")
        key = cache.key_for("f" * 64, quick_config())
        cache.put(key, self.SUMMARY)
        path = cache.path_for(key)
        intact = path.read_text(encoding="utf-8")
        path.write_text(intact[: len(intact) // 2], encoding="utf-8")
        assert cache.get(key) is None

    def test_schema_mismatch_reads_as_miss(self, tmp_path: Path):
        """Entries from an incompatible cache generation must read as misses."""
        import json as json_module

        cache = ResultCache(tmp_path / "cache")
        key = cache.key_for("f" * 64, quick_config())
        cache.put(key, self.SUMMARY)
        path = cache.path_for(key)
        payload = json_module.loads(path.read_text(encoding="utf-8"))
        payload["schema"] = "repro-project-cache/0"
        path.write_text(json_module.dumps(payload), encoding="utf-8")
        assert cache.get(key) is None

    def test_malformed_summary_payload_reads_as_miss(self, tmp_path: Path):
        """Valid JSON whose summary is not a summary must not raise."""
        import json as json_module

        cache = ResultCache(tmp_path / "cache")
        key = cache.key_for("f" * 64, quick_config())
        cache.put(key, self.SUMMARY)
        path = cache.path_for(key)
        for broken_summary in (None, [], "text", {}):
            payload = {
                "schema": CACHE_SCHEMA,
                "key": key,
                "summary": broken_summary,
            }
            path.write_text(json_module.dumps(payload), encoding="utf-8")
            assert cache.get(key) is None

    def test_unwritable_cache_counts_failure_instead_of_raising(
        self, tmp_path: Path
    ):
        blocker = tmp_path / "cachefile"
        blocker.write_text("not a directory", encoding="utf-8")
        cache = ResultCache(blocker)
        key = cache.key_for("f" * 64, quick_config())
        cache.put(key, self.SUMMARY)  # must not raise
        assert cache.write_failures == 1
        assert cache.get(key) is None

    def test_disabled_cache_never_stores(self, tmp_path: Path):
        cache = ResultCache.disabled()
        key = cache.key_for("f" * 64, quick_config())
        cache.put(key, self.SUMMARY)
        assert cache.get(key) is None
        assert cache.hits == 0 and cache.misses == 0


# ---------------------------------------------------------------------- #
class TestSchedulerSerial:
    def test_report_shape(self, serial_report, workload):
        report = serial_report
        assert not report.failures
        assert [(s.unit, s.function) for s in report.functions] == workload.functions
        assert report.mode == "serial"
        assert report.all_safe
        assert report.total_measurement_runs > 0
        assert report.total_instrumentation_points == sum(
            s.instrumentation_points for s in report.functions
        )
        payload = report.to_dict()
        assert payload["totals"]["functions"] == len(workload.functions)
        assert payload["schema"] == "repro-project-report/6"
        assert payload["execution"]["waves"] == 1
        assert payload["execution"]["fallback_reason"] is None

    def test_identical_rerun_hits_cache(self, project, tmp_path: Path):
        config = quick_config()
        first = ProjectScheduler(
            project, config=config, cache=ResultCache(tmp_path / "cache")
        ).run()
        assert (first.cache_hits, first.cache_misses) == (0, 4)

        second = ProjectScheduler(
            project, config=config, cache=ResultCache(tmp_path / "cache")
        ).run()
        assert (second.cache_hits, second.cache_misses) == (4, 0)
        assert all(summary.from_cache for summary in second.functions)
        assert second.function_payloads() == first.function_payloads()

    def test_source_edit_invalidates_only_that_function(
        self, project, workload, tmp_path: Path
    ):
        config = quick_config()
        cache_dir = tmp_path / "cache"
        ProjectScheduler(project, config=config, cache=ResultCache(cache_dir)).run()

        sources = dict(workload.sources)
        sources["unit_0.c"] = sources["unit_0.c"].replace(
            "acc = acc + 4;", "acc = acc + 7;", 1
        )
        assert sources["unit_0.c"] != workload.sources["unit_0.c"]
        edited = Project.from_sources(sources)
        report = ProjectScheduler(
            edited, config=config, cache=ResultCache(cache_dir)
        ).run()
        # only the edited task_0 re-runs; its unit sibling and the other unit hit
        assert (report.cache_hits, report.cache_misses) == (3, 1)
        missed = [s.function for s in report.functions if not s.from_cache]
        assert missed == ["task_0"]

    def test_identical_units_keep_their_own_labels_on_cache_hit(
        self, workload, tmp_path: Path
    ):
        """The cache is content-addressed; hits must not replay another
        unit's identity (two byte-identical units share one entry)."""
        sources = {"a.c": workload.sources["unit_0.c"], "b.c": workload.sources["unit_0.c"]}
        twins = Project.from_sources(sources)
        config = quick_config()
        cache_dir = tmp_path / "cache"
        first = ProjectScheduler(
            twins, config=config, cache=ResultCache(cache_dir)
        ).run()
        second = ProjectScheduler(
            twins, config=config, cache=ResultCache(cache_dir)
        ).run()
        expected = [(f.unit, f.name) for f in twins.functions()]
        assert [(s.unit, s.function) for s in first.functions] == expected
        assert [(s.unit, s.function) for s in second.functions] == expected
        assert all(summary.from_cache for summary in second.functions)

    def test_config_change_invalidates_everything(self, project, tmp_path: Path):
        cache_dir = tmp_path / "cache"
        ProjectScheduler(
            project, config=quick_config(), cache=ResultCache(cache_dir)
        ).run()
        report = ProjectScheduler(
            project,
            config=quick_config(extra_random_vectors=6),
            cache=ResultCache(cache_dir),
        ).run()
        assert (report.cache_hits, report.cache_misses) == (0, 4)


# ---------------------------------------------------------------------- #
@pytest.mark.project
class TestSchedulerParallel:
    def test_parallel_matches_serial_bit_for_bit(self, project, serial_report):
        scheduler = ProjectScheduler(project, config=quick_config(), workers=2)
        parallel = scheduler.run()
        assert scheduler.mode == "process-pool"
        assert not parallel.failures
        assert parallel.function_payloads() == serial_report.function_payloads()

    def test_parallel_run_populates_cache_for_serial_rerun(
        self, project, serial_report, tmp_path: Path
    ):
        cache_dir = tmp_path / "cache"
        parallel = ProjectScheduler(
            project,
            config=quick_config(),
            cache=ResultCache(cache_dir),
            workers=2,
        ).run()
        assert (parallel.cache_hits, parallel.cache_misses) == (0, 4)
        rerun = ProjectScheduler(
            project, config=quick_config(), cache=ResultCache(cache_dir)
        ).run()
        assert (rerun.cache_hits, rerun.cache_misses) == (4, 0)
        assert rerun.function_payloads() == serial_report.function_payloads()


# ---------------------------------------------------------------------- #
class TestProjectCli:
    def test_project_command_on_files(self, workload, tmp_path: Path, capsys):
        paths = workload.write_to(tmp_path / "src")
        cache_dir = tmp_path / "cache"
        json_path = tmp_path / "report.json"
        argv = [
            "project",
            *[str(path) for path in paths],
            "--bound",
            "2",
            "--cache-dir",
            str(cache_dir),
            "--json",
            str(json_path),
        ]
        assert cli_main(argv) == 0
        output = capsys.readouterr().out
        assert "Project WCET report: 4 function(s)" in output
        assert "0 hit(s), 4 miss(es)" in output

        payload = json.loads(json_path.read_text(encoding="utf-8"))
        assert payload["totals"]["functions"] == 4
        assert payload["totals"]["all_safe"] is True

        # second identical invocation: one hit per unchanged function
        assert cli_main(argv[: argv.index("--json")]) == 0
        output = capsys.readouterr().out
        assert "4 hit(s), 0 miss(es)" in output

    def test_project_command_requires_input(self, capsys):
        assert cli_main(["project"]) == 2
        assert "no source files" in capsys.readouterr().err

    def test_project_command_rejects_files_with_demo(
        self, workload, tmp_path: Path, capsys
    ):
        paths = workload.write_to(tmp_path / "src")
        assert cli_main(["project", str(paths[0]), "--demo"]) == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_project_command_unknown_function(self, workload, tmp_path: Path, capsys):
        paths = workload.write_to(tmp_path / "src")
        code = cli_main(
            ["project", str(paths[0]), "--function", "nope", "--no-cache"]
        )
        assert code == 1
        assert "error" in capsys.readouterr().err
