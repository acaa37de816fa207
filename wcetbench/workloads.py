"""The three workloads: cold project, wide-input controller, service edit loop.

Each workload is a closed loop with one caller and a serial scheduler
(``workers=1``).  A workload object has

* ``setup(seed)`` -> state: everything before the first timed unit (input
  generation, parsing, server start, warm-up); ``state.close()`` undoes it;
* ``round(state, rng)`` -> the items of one balanced round of work;
* ``run_unit(state, item, recorder)`` -> ``(seconds, outcome)``: one timed
  unit of work;
* ``verify(state, outcomes)`` -> :class:`Verdict`, run after the timed
  region: oracle maxima, determinism and the workload's own invariants.

The program sources are the pinned generator outputs named in the README;
``--seed`` renames every analysed function (so each seed is a distinct
project with its own cache keys), orders the rounds and picks the edits.
"""

from __future__ import annotations

import json
import re
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.minic import parse_and_analyze
from repro.pipeline.analyzer import WcetAnalyzer
from repro.project import FunctionSummary, Project, ProjectScheduler, ResultCache
from repro.service import AnalysisServer, ServiceClient
from repro.workloads.multi import generate_call_chain_workload
from repro.workloads.targetlink import generate_small_application

from oracle import OracleCache, callers_map, transitive_callers

#: generator seed of the pinned call-chain demo project
CHAIN_SEED = 2005
#: generator seeds of the controller pool (similar cost, 104-107 blocks)
CONTROLLER_SEEDS = (11, 2, 5)
#: edits per run checked against a direct cold run and the oracle
VERIFIED_EDITS = 2
SESSION = "bench"


@dataclass
class Verdict:
    """What :meth:`verify` found, per unit and per distinct function."""

    failed: list[bool]
    reasons: list[str] = field(default_factory=list)
    #: base function key -> (bound, oracle maximum, oracle label)
    ratios: dict[str, tuple[int, int, str]] = field(default_factory=dict)
    #: functions analysed (not served from a cache), over all units
    analysed: int = 0
    #: failed checks outside the timed units (warm-up, pinned values)
    extra_failures: int = 0

    def fail(self, index: int | None, reason: str) -> None:
        if index is None:
            self.extra_failures += 1
        else:
            self.failed[index] = True
        if len(self.reasons) < 20:
            self.reasons.append(reason)


def salt(sources: dict[str, str], names, tag: str) -> dict[str, str]:
    """Rename every function in *names* to ``<name>_<tag>``."""
    pattern = re.compile(r"\b(" + "|".join(map(re.escape, names)) + r")\b")
    return {
        unit: pattern.sub(lambda match: f"{match.group(1)}_{tag}", text)
        for unit, text in sources.items()
    }


def base_name(name: str, tag: str) -> str:
    return name[: -len(tag) - 1] if name.endswith("_" + tag) else name


def _work_dir(root: Path) -> Path:
    root.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(dir=root))


def _check_summary(verdict: Verdict, index: int, summary) -> None:
    if summary.quarantined or summary.degraded or summary.fault_events:
        verdict.fail(index, f"{summary.function}: quarantined/degraded/faulted")


# ---------------------------------------------------------------------- #
@dataclass
class ChainState:
    tag: str
    sources: dict[str, str]
    #: the project's (renamed) function names
    names: list[str]
    work: Path
    oracles: OracleCache = field(default_factory=OracleCache)

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def chain_setup(seed: int, out: Path) -> ChainState:
    tag = f"s{seed}"
    workload = generate_call_chain_workload(CHAIN_SEED)
    sources = salt(workload.sources, workload.function_names, tag)
    names = [f.name for f in Project.from_sources(sources).functions()]
    return ChainState(tag, sources, names, _work_dir(out))


def check_project_report(state: ChainState, verdict: Verdict, index: int,
                         functions: list, failures: list, first: dict) -> None:
    """Failures, faults, oracle and run-to-run identity of one cold report."""
    if failures:
        verdict.fail(index, f"{len(failures)} function(s) failed: {failures[0]}")
    if len(functions) != len(state.names):
        verdict.fail(index, f"{len(functions)} of {len(state.names)} functions reported")
    for summary in functions:
        _check_summary(verdict, index, summary)
        name = summary.function
        key = base_name(name, state.tag)
        bound = summary.wcet_bound_cycles
        if first.setdefault(key, bound) != bound:
            verdict.fail(index, f"{key}: bound {bound} differs from {first[key]}")
        oracle = state.oracles.project_function(state.sources, summary.unit, name)
        if bound < oracle.max_cycles:
            verdict.fail(index, f"{key}: bound {bound} < oracle {oracle.max_cycles}")
        verdict.ratios[key] = (bound, oracle.max_cycles, oracle.label)


class CallchainCold:
    name = "callchain_cold"

    def __init__(self, out: Path):
        self.out = out

    def setup(self, seed: int) -> ChainState:
        return chain_setup(seed, self.out)

    def round(self, state: ChainState, rng) -> list:
        return [None]

    def run_unit(self, state: ChainState, item, recorder):
        cache = state.work / f"cache-{time.perf_counter_ns()}"
        started = time.perf_counter()
        project = Project.from_sources(state.sources)
        report = ProjectScheduler(project, cache=ResultCache(cache), workers=1).run()
        seconds = time.perf_counter() - started
        shutil.rmtree(cache, ignore_errors=True)
        return seconds, report

    def verify(self, state: ChainState, outcomes: list) -> Verdict:
        verdict = Verdict([False] * len(outcomes))
        first: dict[str, int] = {}
        for index, report in enumerate(outcomes):
            if report is None:
                verdict.fail(index, "unit raised")
                continue
            verdict.analysed += sum(not s.from_cache for s in report.functions)
            check_project_report(
                state, verdict, index, report.functions, report.failures, first
            )
        return verdict


# ---------------------------------------------------------------------- #
@dataclass
class ControllerState:
    #: (pool seed, analysed program, function name, source)
    pool: list[tuple]
    oracles: OracleCache = field(default_factory=OracleCache)

    def close(self) -> None:
        pass


class ControllerCold:
    name = "controller_cold"

    def __init__(self, out: Path):
        self.out = out

    def setup(self, seed: int) -> ControllerState:
        tag = f"s{seed}"
        pool = []
        for pool_seed in CONTROLLER_SEEDS:
            app = generate_small_application(seed=pool_seed)
            source = salt({"c": app.source}, [app.function_name], tag)["c"]
            function = f"{app.function_name}_{tag}"
            pool.append((pool_seed, parse_and_analyze(source), function, source))
        return ControllerState(pool)

    def round(self, state: ControllerState, rng) -> list:
        order = list(range(len(state.pool)))
        rng.shuffle(order)
        return order

    def run_unit(self, state: ControllerState, item, recorder):
        _, analyzed, function, _ = state.pool[item]
        started = time.perf_counter()
        report = WcetAnalyzer(analyzed, function).analyze()
        return time.perf_counter() - started, (item, report)

    def verify(self, state: ControllerState, outcomes: list) -> Verdict:
        verdict = Verdict([False] * len(outcomes))
        first: dict[int, int] = {}
        for index, outcome in enumerate(outcomes):
            if outcome is None:
                verdict.fail(index, "unit raised")
                continue
            item, report = outcome
            pool_seed, _, function, source = state.pool[item]
            key = f"controller_{pool_seed}"
            verdict.analysed += 1
            bound = report.wcet_bound_cycles
            if report.degraded or report.fault_events:
                verdict.fail(index, f"{key}: degraded/faulted")
            if first.setdefault(item, bound) != bound:
                verdict.fail(index, f"{key}: bound {bound} differs from {first[item]}")
            oracle = state.oracles.program_function(source, function, key)
            if bound < oracle.max_cycles:
                verdict.fail(index, f"{key}: bound {bound} < oracle {oracle.max_cycles}")
            verdict.ratios[key] = (bound, oracle.max_cycles, oracle.label)
        return verdict


# ---------------------------------------------------------------------- #
@dataclass
class EditState(ChainState):
    server: AnalysisServer | None = None
    client: ServiceClient | None = None
    base: dict[str, str] = field(default_factory=dict)
    #: base function name -> constant of its current edit
    constants: dict[str, int] = field(default_factory=dict)
    next_constant: int = 2
    warm_report: dict | None = None

    def render(self) -> dict[str, str]:
        sources = dict(self.sources)
        for function, constant in self.constants.items():
            marker = f"out_{function} = acc"
            for unit, text in sources.items():
                sources[unit] = re.sub(
                    rf"{marker}( \+ \d+)?;", f"{marker} + {constant};", text
                )
        return sources

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
        super().close()


def _round_trip(state: EditState, sources: dict[str, str]):
    status = state.client.analyze(sources, session=SESSION, wait=120)
    if status.get("state") not in ("done", "failed"):
        status = state.client.wait_for(status["job_id"], timeout=120)
    report = None
    if status.get("state") == "done":
        _, _, body = state.client.result(status["fingerprint"])
        report = json.loads(body)
    return status, report


class CallchainEdit:
    name = "callchain_edit"

    def __init__(self, out: Path):
        self.out = out

    def setup(self, seed: int) -> EditState:
        chain = chain_setup(seed, self.out)
        state = EditState(**vars(chain))
        state.base = {base_name(n, state.tag): n for n in state.names}
        state.next_constant = 2 + seed % 50
        state.server = AnalysisServer(
            cache=ResultCache(state.work / "cache"), workers=1
        )
        state.server.start()
        state.client = ServiceClient(state.server.base_url, timeout=120)
        status, report = _round_trip(state, state.sources)
        if report is None:
            raise RuntimeError(f"warm-up analysis failed: {status.get('error')}")
        state.warm_report = report
        return state

    def round(self, state: EditState, rng) -> list:
        order = sorted(state.base)
        rng.shuffle(order)
        return order

    def run_unit(self, state: EditState, item, recorder):
        state.constants[item] = state.next_constant
        state.next_constant += 1
        sources = state.render()
        frame = recorder.open_request() if recorder is not None else None
        started = time.perf_counter()
        try:
            status, report = _round_trip(state, sources)
        finally:
            seconds = time.perf_counter() - started
            if frame is not None:
                recorder.close_request(frame)
        return seconds, (item, sources, status, report)

    @staticmethod
    def service_overhead(seconds: float, outcome) -> float:
        """Round trip minus the job's own ``elapsed_seconds``."""
        return seconds - outcome[2].get("elapsed_seconds", 0.0)

    def verify(self, state: EditState, outcomes: list) -> Verdict:
        verdict = Verdict([False] * len(outcomes))
        calls = callers_map(state.sources)
        warm = [FunctionSummary.from_dict(f) for f in state.warm_report["functions"]]
        check_project_report(state, verdict, None, warm, state.warm_report["failures"], {})
        previous = {s.function: s.wcet_bound_cycles for s in warm}
        indices = [i for i, outcome in enumerate(outcomes) if outcome is not None]
        checked = set(indices[:: max(1, len(indices) // VERIFIED_EDITS)][:VERIFIED_EDITS])
        for index, outcome in enumerate(outcomes):
            if outcome is None:
                verdict.fail(index, "edit raised")
                continue
            item, sources, status, report = outcome
            if report is None:
                verdict.fail(index, f"edit of {item}: job {status.get('state')}: "
                             f"{status.get('error')}")
                continue
            edited = state.base[item]
            expected = transitive_callers(calls, edited)
            frontier = {q.split(":", 1)[1] for q in status["incremental"]["frontier"]}
            functions = [FunctionSummary.from_dict(f) for f in report["functions"]]
            fresh = {s.function for s in functions if not s.from_cache}
            verdict.analysed += len(fresh)
            if report["failures"]:
                verdict.fail(index, f"edit of {item}: {report['failures'][0]}")
            if frontier != expected or fresh != expected:
                verdict.fail(index, f"edit of {item}: frontier {sorted(frontier)}, "
                             f"re-analysed {sorted(fresh)}, expected {sorted(expected)}")
            for summary in functions:
                _check_summary(verdict, index, summary)
                if summary.function not in expected and (
                    previous.get(summary.function) != summary.wcet_bound_cycles
                ):
                    verdict.fail(index, f"edit of {item}: untouched "
                                 f"{summary.function} changed its bound")
                previous[summary.function] = summary.wcet_bound_cycles
            if index in checked:
                self._verify_against_cold(state, verdict, index, sources, functions, expected)
        return verdict

    def _verify_against_cold(self, state, verdict, index, sources, functions, expected):
        """One edit's payloads against a direct cold run, and its oracle."""
        direct = ProjectScheduler(Project.from_sources(sources), workers=1).run()
        cold = {s.function: s.result_payload() for s in direct.functions}
        for summary in functions:
            if cold.get(summary.function) != summary.result_payload():
                verdict.fail(index, f"{summary.function}: service payload differs "
                             "from a direct cold run")
            if summary.function not in expected:
                continue
            oracle = state.oracles.project_function(sources, summary.unit, summary.function)
            bound = summary.wcet_bound_cycles
            key = f"{base_name(summary.function, state.tag)}@edit{index}"
            if bound < oracle.max_cycles:
                verdict.fail(index, f"{key}: bound {bound} < oracle {oracle.max_cycles}")
            verdict.ratios[key] = (bound, oracle.max_cycles, oracle.label)


WORKLOADS = {cls.name: cls for cls in (CallchainCold, ControllerCold, CallchainEdit)}
