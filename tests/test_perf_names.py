"""Instrumentation name-drift lint.

Sweeps ``src/`` for the literal names passed to ``obs.region(...)``, to
``perf.add(...)`` (on the module or on a registry object) and to
``registry.record_time(...)``, and compares them — in both directions —
against the one section of the checked-in vocabulary in
``src/repro/perf/NAMES.md``.  A new instrumentation site must be listed
there; a listed name whose last call site disappeared must be removed.

Dynamically composed names (f-strings such as
``f"resilience.injected.{site}"``) contain no string literal at the call
site and are intentionally outside the sweep.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
NAMES_MD = SRC / "repro" / "perf" / "NAMES.md"

#: literal first argument of a counter or directly recorded timer, whether
#: through the ``perf`` module facade or a registry object
#: (``request_registry.add``, ``self.registry.record_time``...)
PERF_CALL = re.compile(r'(?:\bperf|registry)\.(?:add|record_time)\(\s*"([^"]+)"')

#: literal first argument of the instrumentation region context manager
REGION_CALL = re.compile(r'\bobs\.region\(\s*"([^"]+)"')

SECTION = "Counters and regions"


def _swept_names() -> tuple[dict[str, set[str]], dict[str, set[str]]]:
    """(counter/timer, region) name -> set of emitting modules, from ``src/``."""
    perf_names: dict[str, set[str]] = {}
    region_names: dict[str, set[str]] = {}
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        module = str(path.relative_to(SRC))
        for match in PERF_CALL.finditer(text):
            perf_names.setdefault(match.group(1), set()).add(module)
        for match in REGION_CALL.finditer(text):
            region_names.setdefault(match.group(1), set()).add(module)
    return perf_names, region_names


def _registered_names() -> dict[str, set[str]]:
    """Section title -> backticked names listed in ``NAMES.md``."""
    sections: dict[str, set[str]] = {}
    current: str | None = None
    for line in NAMES_MD.read_text(encoding="utf-8").splitlines():
        if line.startswith("## "):
            current = line[3:].strip()
            sections[current] = set()
        elif current is not None and line.startswith("- `"):
            sections[current].add(line.split("`")[1])
    return sections


def _unregistered(swept: dict[str, set[str]]) -> dict[str, list[str]]:
    registered = _registered_names()[SECTION]
    return {
        name: sorted(modules)
        for name, modules in swept.items()
        if name not in registered
    }


@pytest.mark.obs
def test_names_md_exists_with_one_section():
    sections = _registered_names()
    assert list(sections) == [SECTION], (
        f"NAMES.md must hold exactly one section, '{SECTION}': {list(sections)}"
    )
    assert sections[SECTION], "NAMES.md lists no names"


@pytest.mark.obs
def test_perf_names_match_registry():
    """Counters and direct timers are listed; no listed name is stale."""
    swept, regions = _swept_names()
    unregistered = _unregistered(swept)
    assert not unregistered, (
        "counter/timer names emitted by src/ but missing from NAMES.md "
        f"(add them to the '{SECTION}' section): {unregistered}"
    )
    stale = _registered_names()[SECTION] - set(swept) - set(regions)
    assert not stale, (
        "names listed in NAMES.md with no remaining literal call site in "
        f"src/ (remove them): {sorted(stale)}"
    )


@pytest.mark.obs
def test_span_names_match_registry():
    """Every region (a timer and, traced, a span) is listed."""
    _, swept = _swept_names()
    unregistered = _unregistered(swept)
    assert not unregistered, (
        "region names emitted by src/ but missing from NAMES.md "
        f"(add them to the '{SECTION}' section): {unregistered}"
    )


@pytest.mark.obs
def test_names_follow_convention():
    """Dot-separated, lower-case, subsystem-prefixed."""
    for name in _registered_names()[SECTION]:
        assert re.fullmatch(r"[a-z0-9_]+(\.[a-z0-9_]+)+", name), (
            f"{name!r} violates the dotted lower-case naming convention"
        )
