"""Pinned analysis results: the call-chain demo, the wiper and three controllers.

``fixtures/pinned_payloads.json`` holds :meth:`FunctionSummary.result_payload`
of every function of ``generate_call_chain_workload(2005)``, of the wiper
case study and of the wide-input controllers
``generate_small_application(seed)`` for seeds 11, 2 and 5 (the controllers
of the ``controller_cold`` benchmark) under the default
:class:`AnalyzerConfig`, uncached.  The payload
carries the generator statistics (genetic evaluations, random vectors used),
so a change to how test data is searched for shows up here even when the
bounds stay the same.  Regenerate the fixture only for a change that is
meant to alter results::

    PYTHONPATH=src python tests/test_pinned_payloads.py
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.project import Project, ProjectScheduler, ResultCache
from repro.workloads.multi import generate_call_chain_workload
from repro.workloads.targetlink import generate_small_application
from repro.workloads.wiper import wiper_case_study

FIXTURE = Path(__file__).resolve().parent / "fixtures" / "pinned_payloads.json"


def current_payloads() -> dict[str, dict]:
    projects = [
        generate_call_chain_workload(2005).sources,
        {"wiper.c": wiper_case_study().source},
        *(
            {f"controller_{seed}.c": generate_small_application(seed=seed).source}
            for seed in (11, 2, 5)
        ),
    ]
    payloads: dict[str, dict] = {}
    for sources in projects:
        report = ProjectScheduler(
            Project.from_sources(sources), cache=ResultCache.disabled()
        ).run()
        assert not report.failures
        for summary in report.functions:
            payloads[f"{summary.unit}:{summary.function}"] = summary.result_payload()
    return payloads


def test_result_payloads_match_the_pinned_fixture():
    expected = json.loads(FIXTURE.read_text(encoding="utf-8"))
    actual = json.loads(json.dumps(current_payloads()))
    assert sorted(actual) == sorted(expected)
    for name in expected:
        assert actual[name] == expected[name], name


if __name__ == "__main__":
    FIXTURE.write_text(
        json.dumps(current_payloads(), indent=1, sort_keys=True), encoding="utf-8"
    )
