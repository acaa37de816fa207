"""Project model: source units and the analyzable functions they contribute.

A :class:`Project` is the batch-analysis view of one or many mini-C
translation units.  Each unit is parsed and semantically analysed once
(:class:`SourceUnit`), and every defined function becomes one analyzable
:class:`ProjectFunction` with a *content fingerprint*: a SHA-256 hash over
the unit's file-scope environment (pragmas, externals, globals) and the
pretty-printed function body.  The call-graph layer closes these content
fingerprints over resolved callees into *transitive fingerprints*
(:meth:`repro.callgraph.graph.CallGraph.transitive_fingerprints`), which --
combined with the fingerprint of the
:class:`~repro.pipeline.analyzer.AnalyzerConfig` -- key the persistent
result cache (:mod:`repro.project.cache`): editing one function invalidates
its own cached result and those of its transitive callers, while siblings
in the same file and unrelated functions stay warm.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping

from ..minic import AnalyzedProgram, parse_and_analyze
from ..minic.pretty import PrettyPrinter
from ..pipeline.analyzer import AnalyzerConfig

if TYPE_CHECKING:
    from ..callgraph.graph import CallGraph


class ProjectError(Exception):
    """Raised when a project cannot be assembled or analysed."""


# ---------------------------------------------------------------------- #
# content fingerprints
# ---------------------------------------------------------------------- #
def function_fingerprint(analyzed: AnalyzedProgram, function_name: str) -> str:
    """Content hash of one function and its file-scope environment.

    The hash is computed over the *pretty-printed* AST, not the raw text, so
    whitespace/comment-only edits do not invalidate cached results while any
    semantic edit (including ``#pragma range`` / ``#pragma loopbound``
    changes, which the printer renders) does.
    """
    printer = PrettyPrinter()
    program = analyzed.program
    parts: list[str] = []
    for name in program.input_variables:
        parts.append(f"#pragma input {name}")
    for name, rng in sorted(program.range_annotations.items()):
        parts.append(f"#pragma range {name} {rng.lo} {rng.hi}")
    for name in program.external_functions:
        parts.append(f"extern {name}")
    for decl in program.globals:
        parts.append(printer.print_global(decl))
    parts.append(printer.print_function(program.function(function_name)))
    digest = hashlib.sha256("\n".join(parts).encode("utf-8"))
    return digest.hexdigest()


def _jsonable(value: object) -> object:
    """Recursively convert configuration values to JSON-stable data."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            field.name: _jsonable(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, Mapping):
        return {str(key): _jsonable(item) for key, item in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    return repr(value)


def config_fingerprint(config: AnalyzerConfig) -> str:
    """Stable hash of every field of an :class:`AnalyzerConfig`."""
    payload = json.dumps(_jsonable(config), sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------- #
# source units
# ---------------------------------------------------------------------- #
@dataclass
class SourceUnit:
    """One parsed and analysed mini-C translation unit."""

    name: str
    source: str
    analyzed: AnalyzedProgram

    @classmethod
    def from_source(cls, name: str, source: str) -> "SourceUnit":
        try:
            analyzed = parse_and_analyze(source, filename=name)
        except Exception as error:
            raise ProjectError(f"cannot analyse unit {name!r}: {error}") from error
        return cls(name=name, source=source, analyzed=analyzed)

    @classmethod
    def from_path(cls, path: str | Path) -> "SourceUnit":
        path = Path(path)
        try:
            source = path.read_text(encoding="utf-8")
        except OSError as error:
            raise ProjectError(f"cannot read {path}: {error}") from error
        return cls.from_source(path.name, source)

    def function_names(self) -> list[str]:
        """Names of the functions defined (with a body) in this unit."""
        return [function.name for function in self.analyzed.program.functions]


@dataclass(frozen=True)
class ProjectFunction:
    """One analyzable function of a project."""

    unit: str
    name: str
    #: content hash of (file-scope environment, function body)
    fingerprint: str

    @property
    def qualified_name(self) -> str:
        return f"{self.unit}:{self.name}"


class Project:
    """A set of source units and the functions the batch driver analyses."""

    def __init__(self, units: Iterable[SourceUnit]):
        self._units: dict[str, SourceUnit] = {}
        for unit in units:
            if unit.name in self._units:
                raise ProjectError(f"duplicate unit name {unit.name!r}")
            self._units[unit.name] = unit
        if not self._units:
            raise ProjectError("project has no source units")
        self._callgraph: "CallGraph | None" = None

    # ------------------------------------------------------------------ #
    @classmethod
    def from_paths(cls, paths: Iterable[str | Path]) -> "Project":
        """Load units from files; colliding basenames fall back to the path.

        Unit names default to the file's basename (readable reports); when
        two files share one (``src/a.c lib/a.c``), the later unit uses the
        path as given so real multi-directory projects stay loadable.
        """
        units: list[SourceUnit] = []
        taken: set[str] = set()
        for path in paths:
            unit = SourceUnit.from_path(path)
            if unit.name in taken:
                unit = SourceUnit(
                    name=str(path), source=unit.source, analyzed=unit.analyzed
                )
            taken.add(unit.name)
            units.append(unit)
        return cls(units)

    @classmethod
    def from_sources(cls, sources: Mapping[str, str]) -> "Project":
        return cls(
            SourceUnit.from_source(name, source) for name, source in sources.items()
        )

    # ------------------------------------------------------------------ #
    @property
    def units(self) -> list[SourceUnit]:
        return [self._units[name] for name in sorted(self._units)]

    @property
    def callgraph(self) -> "CallGraph":
        """The resolved call graph of every analyzable function.

        Built on first use and then shared: a project's units never change,
        so the service's fingerprinting and the scheduler's job graph read
        the same graph.
        """
        if self._callgraph is None:
            # imported lazily: repro.callgraph builds on this module
            from ..callgraph.graph import CallGraph

            self._callgraph = CallGraph.from_project(self)
        return self._callgraph

    def unit(self, name: str) -> SourceUnit:
        try:
            return self._units[name]
        except KeyError as exc:
            raise ProjectError(f"no unit named {name!r}") from exc

    def functions(
        self, only: Iterable[str] | None = None
    ) -> list[ProjectFunction]:
        """Every analyzable function, sorted by (unit, function name).

        ``only`` optionally restricts the selection to the given function
        names (matched across all units); unknown names raise
        :class:`ProjectError` so typos do not silently analyse nothing.
        """
        wanted = set(only) if only is not None else None
        selected: list[ProjectFunction] = []
        for unit in self.units:
            for name in unit.function_names():
                if wanted is not None and name not in wanted:
                    continue
                selected.append(
                    ProjectFunction(
                        unit=unit.name,
                        name=name,
                        fingerprint=function_fingerprint(unit.analyzed, name),
                    )
                )
        if wanted is not None:
            found = {function.name for function in selected}
            missing = wanted - found
            if missing:
                raise ProjectError(
                    f"no function named {', '.join(sorted(missing))} in the project"
                )
        if not selected:
            raise ProjectError("project defines no analyzable functions")
        return selected
