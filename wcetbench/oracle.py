"""Oracle maxima: the largest cycle count a function really takes on the board.

Every bound the analyzer reports must be at least the function's oracle
maximum.  The oracle runs the function end to end on an unstubbed
:class:`~repro.hw.board.EvaluationBoard`, so callees execute for real.  When
the function's input space has at most :data:`EXHAUSTIVE_LIMIT` vectors the
whole space is run ("exhaustive"); otherwise a fixed seeded sample plus the
all-low and all-high corners is run ("sampled"), which gives a lower bound
on the true maximum.

A call into another translation unit is linked in for real: the callee's
unit is prepended to the caller's, with that unit's ``#pragma input``
variables renamed so each unit keeps inputs of its own, exactly as the
separately compiled units would.
"""

from __future__ import annotations

import itertools
import random
import re
from dataclasses import dataclass

from repro.hw.board import EvaluationBoard
from repro.minic import AnalyzedProgram, parse_and_analyze
from repro.testgen.inputs import InputSpace

#: input spaces up to this many vectors are run exhaustively
EXHAUSTIVE_LIMIT = 20_000
#: random vectors of a sampled oracle
SAMPLE_SIZE = 3_000

_FUNCTION = re.compile(r"^void (\w+)\(void\) \{\n(.*?)^\}", re.M | re.S)
_CALL = re.compile(r"^\s*(\w+)\(\);", re.M)
_INPUT = re.compile(r"^#pragma input (\w+)", re.M)


@dataclass(frozen=True)
class Oracle:
    max_cycles: int
    exhaustive: bool

    @property
    def label(self) -> str:
        return "exhaustive" if self.exhaustive else "sampled"


def oracle_max(analyzed: AnalyzedProgram, function: str, sample_seed: str) -> Oracle:
    """Run *function* over its input space (or a seeded sample of it)."""
    board = EvaluationBoard(analyzed)
    space = InputSpace.from_program(analyzed, function)
    exhaustive = space.size() <= EXHAUSTIVE_LIMIT
    if exhaustive:
        names = space.names
        ranges = [
            range(v.value_range.lo, v.value_range.hi + 1) for v in space.variables
        ]
        vectors = (dict(zip(names, values)) for values in itertools.product(*ranges))
    else:
        rng = random.Random(sample_seed)
        corners = [
            {v.name: v.value_range.lo for v in space.variables},
            {v.name: v.value_range.hi for v in space.variables},
        ]
        vectors = corners + [space.random_vector(rng) for _ in range(SAMPLE_SIZE)]
    best = max(board.run(function, vector).total_cycles for vector in vectors)
    return Oracle(best, exhaustive)


def callers_map(sources: dict[str, str]) -> dict[str, set[str]]:
    """Function name -> names of the project functions it calls directly."""
    bodies = {
        name: body
        for source in sources.values()
        for name, body in _FUNCTION.findall(source)
    }
    return {
        name: {callee for callee in _CALL.findall(body) if callee in bodies}
        for name, body in bodies.items()
    }


def transitive_callers(calls: dict[str, set[str]], function: str) -> set[str]:
    """*function* plus every project function that reaches it through calls."""
    reached = {function}
    changed = True
    while changed:
        changed = False
        for caller, callees in calls.items():
            if caller not in reached and callees & reached:
                reached.add(caller)
                changed = True
    return reached


def linked_program(sources: dict[str, str], unit: str, function: str) -> str:
    """*unit*'s source preceded by every other unit *function*'s calls reach."""
    calls = callers_map(sources)
    owner = {
        name: name_unit
        for name_unit, source in sources.items()
        for name, _ in _FUNCTION.findall(source)
    }
    reached, frontier = {function}, [function]
    while frontier:
        for callee in calls[frontier.pop()]:
            if callee not in reached:
                reached.add(callee)
                frontier.append(callee)
    parts = []
    for other in sorted({owner[name] for name in reached} - {unit}):
        text = sources[other]
        prefix = re.sub(r"\W", "_", other)
        for name in _INPUT.findall(text):
            text = re.sub(rf"\b{name}\b", f"{prefix}_{name}", text)
        parts.append(text)
    parts.append(sources[unit])
    return "\n".join(parts)


class OracleCache:
    """Oracle maxima memoised by (linked program text, function)."""

    def __init__(self) -> None:
        self._results: dict[tuple[str, str], Oracle] = {}

    def project_function(self, sources: dict[str, str], unit: str, function: str) -> Oracle:
        program = linked_program(sources, unit, function)
        return self.program_function(program, function)

    def program_function(self, program: str, function: str, sample_seed: str = "") -> Oracle:
        key = (program, function)
        if key not in self._results:
            self._results[key] = oracle_max(
                parse_and_analyze(program), function, sample_seed
            )
        return self._results[key]
