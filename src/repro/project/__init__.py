"""Project-level WCET orchestration: batch analysis with caching + parallelism.

:class:`~repro.pipeline.analyzer.WcetAnalyzer` analyses one function; this
package is the program-level driver on top of it, turning the reproduction
into a batch service that chews through whole mini-C codebases the way an
industrial WCET tool must:

* :mod:`repro.project.model` -- :class:`Project` loads one or many source
  units (files or in-memory sources) and enumerates every analyzable
  function, each with a content fingerprint over its file-scope environment
  and pretty-printed body.
* :mod:`repro.project.scheduler` -- :class:`ProjectScheduler` runs the
  functions as a job graph in topological *dependency waves* over the
  project call graph (:mod:`repro.callgraph`): callees are analysed before
  their callers and each completed callee's WCET bound is charged at the
  caller's call sites (callee summary reuse).  Waves run serially or on a
  process pool (``workers=N``); results, injected faults and counters are
  identical either way because every pipeline phase is seeded by the
  :class:`AnalyzerConfig` and callee bounds are fixed before a wave starts.  Pool failures fall
  back to serial execution (with the reason recorded in the report)
  instead of failing the batch.
* :mod:`repro.project.cache` -- :class:`ResultCache` persists per-function
  summaries on disk, keyed by SHA-256 of (transitive function content,
  analyzer config): editing a leaf callee invalidates exactly the leaf
  plus its transitive callers, and re-runs skip everything unchanged.
* :mod:`repro.project.report` -- :class:`ProjectReport` aggregates the
  per-function summaries with cache hit/miss and scheduling statistics, as
  text or JSON.

Workflow
--------

CLI (see ``repro-wcet project --help``)::

    repro-wcet project src1.c src2.c --jobs 4 --cache-dir .repro-wcet-cache
    repro-wcet project --demo --jobs 2          # synthetic multi-function demo
    repro-wcet project src.c --json report.json # machine-readable export

The cache directory defaults to ``.repro-wcet-cache`` next to the current
working directory (one JSON file per (function, config) result, sharded by
key prefix); ``--no-cache`` disables it, a second identical invocation
reports one hit per unchanged function.  ``--jobs N`` sets the process-pool
width (1 = serial).

API::

    from repro.project import Project, ResultCache, analyze_project

    project = Project.from_paths(["a.c", "b.c"])
    report = analyze_project(project, workers=4,
                             cache=ResultCache(".repro-wcet-cache"))
    print(report.to_text())

The scheduler and cache record into the :mod:`repro.perf` registry
(``project.jobs*``, ``project.scheduler.*``, ``project.cache.*``, timers
``project.schedule``, ``project.analyze_function`` per executed job and
``project.cache.lookup`` / ``project.cache.store``), so batch runs show up
in perf reports like the dataflow hot paths do.  A job runs through one
attempt function whether it runs in-process or on a pool worker; a worker
records into a private registry that the scheduler merges back, so the
analysis counters and timers (``hw.board.*``, ``mc.*``, ``sa.*``) of a
pool run equal those of a serial one.
"""

from __future__ import annotations

from .cache import CACHE_SCHEMA, ResultCache
from .model import (
    Project,
    ProjectError,
    ProjectFunction,
    SourceUnit,
    config_fingerprint,
    function_fingerprint,
)
from .report import (
    PROJECT_REPORT_SCHEMA,
    FunctionSummary,
    ProjectFailure,
    ProjectReport,
)
from .scheduler import AnalysisJob, JobState, ProjectScheduler, analyze_project

__all__ = [
    "AnalysisJob",
    "CACHE_SCHEMA",
    "FunctionSummary",
    "JobState",
    "PROJECT_REPORT_SCHEMA",
    "Project",
    "ProjectError",
    "ProjectFailure",
    "ProjectFunction",
    "ProjectReport",
    "ProjectScheduler",
    "ResultCache",
    "SourceUnit",
    "analyze_project",
    "config_fingerprint",
    "function_fingerprint",
]
