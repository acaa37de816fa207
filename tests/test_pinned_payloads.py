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

The script prints every field it moves, old -> new, one line each, and
says so when an entry's ``cache_key`` is all that moved (a ``CACHE_SCHEMA``
bump moves every key and nothing else).
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.project import Project, ProjectScheduler, ResultCache
from repro.workloads.multi import generate_call_chain_workload
from repro.workloads.targetlink import generate_small_application
from repro.workloads.wiper import wiper_case_study

FIXTURE = Path(__file__).resolve().parent / "fixtures" / "pinned_payloads.json"
#: how a field missing on one side prints
ABSENT = "<absent>"


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


def payload_fields(payload: dict) -> dict[str, object]:
    """*payload* with each dict-valued field spread into ``field.key`` entries."""
    fields: dict[str, object] = {}
    for name, value in payload.items():
        if isinstance(value, dict):
            fields.update((f"{name}.{key}", item) for key, item in value.items())
        else:
            fields[name] = value
    return fields


def moved_fields(old: dict, new: dict) -> dict[str, tuple[object, object]]:
    """field -> (old value, new value) of every field that differs."""
    old, new = payload_fields(old), payload_fields(new)
    return {
        name: (old.get(name, ABSENT), new.get(name, ABSENT))
        for name in sorted(old.keys() | new.keys())
        if old.get(name, ABSENT) != new.get(name, ABSENT)
    }


def describe_moves(old: dict[str, dict], new: dict[str, dict]) -> list[str]:
    """One line per moved field of each entry, old -> new."""
    lines: list[str] = []
    for entry in sorted(old.keys() | new.keys()):
        if entry not in new:
            lines.append(f"{entry}: removed")
        elif entry not in old:
            lines.append(f"{entry}: added")
        else:
            moved = moved_fields(old[entry], new[entry])
            if list(moved) == ["cache_key"]:
                lines.append(f"{entry}: only cache_key moved")
                continue
            for name, (before, after) in moved.items():
                lines.append(f"{entry}: {name}: {_short(before)} -> {_short(after)}")
    return lines


def _short(value: object, width: int = 100) -> str:
    text = json.dumps(value, sort_keys=True) if value is not ABSENT else value
    return text if len(text) <= width else text[: width - 3] + "..."


def test_result_payloads_match_the_pinned_fixture():
    expected = json.loads(FIXTURE.read_text(encoding="utf-8"))
    actual = json.loads(json.dumps(current_payloads()))
    moves = describe_moves(expected, actual)
    assert not moves, "\n".join(moves)


def test_describe_moves_names_each_moved_field():
    old = {
        "u:f": {"cache_key": "a", "bound": 7, "stats": {"runs": 3, "hits": 1}},
        "u:g": {"cache_key": "b", "bound": 9},
        "u:h": {"bound": 1},
    }
    new = {
        "u:f": {"cache_key": "c", "bound": 7, "stats": {"runs": 4, "hits": 1}},
        "u:g": {"cache_key": "d", "bound": 9},
        "u:k": {"bound": 1},
    }
    assert describe_moves(old, new) == [
        'u:f: cache_key: "a" -> "c"',
        "u:f: stats.runs: 3 -> 4",
        "u:g: only cache_key moved",
        "u:h: removed",
        "u:k: added",
    ]
    assert describe_moves(old, old) == []


if __name__ == "__main__":
    previous = (
        json.loads(FIXTURE.read_text(encoding="utf-8")) if FIXTURE.exists() else {}
    )
    payloads = json.loads(json.dumps(current_payloads()))
    print("\n".join(describe_moves(previous, payloads)) or "nothing moved")
    FIXTURE.write_text(
        json.dumps(payloads, indent=1, sort_keys=True), encoding="utf-8"
    )
