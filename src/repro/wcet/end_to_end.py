"""Exhaustive end-to-end WCET measurement.

For programs with a small input space the paper evaluates the true WCET by
measuring every input combination end to end (the wiper controller case study:
250 cycles).  The partitioned WCET *bound* must never be below this value --
that comparison (250 vs 274 cycles in the paper) is the headline result of the
case study and is reproduced by ``benchmarks/test_bench_case_study.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..hw.board import EvaluationBoard
from ..minic.types import IntRange
from ..testgen.inputs import InputSpace, InputVariable


@dataclass
class EndToEndResult:
    """Outcome of an exhaustive (or sampled) end-to-end measurement."""

    function_name: str
    runs: int
    max_cycles: int
    min_cycles: int
    worst_inputs: dict[str, int] = field(default_factory=dict)
    best_inputs: dict[str, int] = field(default_factory=dict)

    @property
    def spread(self) -> int:
        return self.max_cycles - self.min_cycles


def enumerate_input_space(
    input_ranges: dict[str, IntRange], limit: int = 1_000_000
) -> list[dict[str, int]]:
    """All combinations of the given input ranges, by variable name
    (bounded by *limit*, see :meth:`InputSpace.genomes`)."""
    space = InputSpace(
        [InputVariable(name, input_ranges[name]) for name in sorted(input_ranges)]
    )
    return [space.vector(genome) for genome in space.genomes(limit)]


def exhaustive_end_to_end(
    board: EvaluationBoard,
    function_name: str,
    input_ranges: dict[str, IntRange],
    limit: int = 1_000_000,
) -> EndToEndResult:
    """Measure every input combination end to end and report the extremes."""
    vectors = enumerate_input_space(input_ranges, limit=limit)
    return measure_vectors(board, function_name, vectors)


def measure_vectors(
    board: EvaluationBoard,
    function_name: str,
    vectors: list[dict[str, int]],
) -> EndToEndResult:
    """End-to-end measurement over an explicit list of test vectors.

    Only each run's final cycle count is read, so the runs record no trace,
    stamps or events.
    """
    if not vectors:
        raise ValueError("no test vectors supplied")
    max_cycles = -1
    min_cycles: int | None = None
    worst: dict[str, int] = {}
    best: dict[str, int] = {}
    for vector in vectors:
        result = board.run(function_name, vector, record=False)
        if result.total_cycles > max_cycles:
            max_cycles = result.total_cycles
            worst = dict(vector)
        if min_cycles is None or result.total_cycles < min_cycles:
            min_cycles = result.total_cycles
            best = dict(vector)
    return EndToEndResult(
        function_name=function_name,
        runs=len(vectors),
        max_cycles=max_cycles,
        min_cycles=min_cycles if min_cycles is not None else 0,
        worst_inputs=worst,
        best_inputs=best,
    )
