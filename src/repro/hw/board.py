"""The simulated evaluation board.

The paper's flow compiles the instrumented application for the Motorola HCS12,
uploads it to an evaluation board, forces the generated test data onto the
input variables through glue code and reads back the cycle-counter values at
the instrumentation points.  :class:`EvaluationBoard` packages that flow:
programs are *loaded* once (parsed program + cost model), then *run* any
number of times with different test vectors, optionally with an
instrumentation plan attached so each run also yields the cycle-counter
readings of every instrumentation point that fired.

A board takes its CFGs and compiled code from a
:class:`~repro.hw.artifacts.RunArtifacts` store: a function's CFG is built
when some user of the store first asks for it, and its code compiles on its
first run on any unstubbed board of the store with the same program and
cost model.  So the analyzer, its test-generation board and every
verification board of a project run share one CFG and one compiled board
per function.  A board given no store makes a private one.

Execution is deterministic, so a board can *memoise* its runs: with
``memoise=True`` every distinct ``(function, input vector)`` pair runs on the
interpreter once and later calls return the same immutable
:class:`~repro.hw.interpreter.RunResult` (memoisation after Michie, *"Memo"
functions and machine learning*, Nature 1968).  The memo is unbounded, so
the analyzer turns it on only for input spaces small enough to be revisited
by its own search budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from ..cfg.graph import ControlFlowGraph
from ..minic.semantic import AnalyzedProgram
from ..partition.instrument import InstrumentationPlan, InstrumentationPoint
from ..resilience import faults as _resilience
from .artifacts import RunArtifacts
from .cost_model import CostModel, HCS12_COST_MODEL
from .interpreter import Interpreter, RunResult


@dataclass
class PointReading:
    """One cycle-counter reading at an instrumentation point."""

    point: InstrumentationPoint
    cycles: int
    #: index into the run's ``trace`` at which the point fired (stable ordering)
    trace_index: int


@dataclass
class InstrumentedRun:
    """A run plus the readings of the attached instrumentation plan."""

    run: RunResult
    readings: list[PointReading] = field(default_factory=list)

    def readings_for_segment(self, segment_id: int) -> list[PointReading]:
        return [r for r in self.readings if r.point.segment_id == segment_id]


class EvaluationBoard:
    """Simulated measurement target (CPU + cycle counter + test-data glue)."""

    def __init__(
        self,
        analyzed: AnalyzedProgram,
        cost_model: CostModel = HCS12_COST_MODEL,
        max_steps: int = 1_000_000,
        stub_functions: Iterable[str] = (),
        memoise: bool = False,
        artifacts: RunArtifacts | None = None,
    ):
        self._analyzed = analyzed
        self._interpreter = Interpreter(
            analyzed,
            cost_model=cost_model,
            max_steps=max_steps,
            stub_functions=stub_functions,
            artifacts=artifacts,
        )
        #: (function, sorted input items) -> run result; None = no memo
        self._memo: dict[tuple, RunResult] | None = {} if memoise else None
        #: board calls, and how many of them the memo answered
        self.runs = 0
        self.memo_hits = 0

    # ------------------------------------------------------------------ #
    @property
    def interpreter(self) -> Interpreter:
        return self._interpreter

    def cfg(self, function_name: str) -> ControlFlowGraph:
        return self._interpreter.cfg(function_name)

    @property
    def memo_size(self) -> int:
        """Distinct runs held by the memo (0 when the board does not memoise)."""
        return len(self._memo) if self._memo is not None else 0

    def run(self, function_name: str, inputs: dict[str, int] | None = None) -> RunResult:
        """Execute one test vector and return the raw run result.

        A memoising board answers a repeated vector from its memo, except
        while a fault injector is armed: then every call reaches the
        interpreter, so ``interp.step`` hits are numbered as without a memo.
        A lookup still polls the job deadline.  Failed runs are not stored.
        """
        self.runs += 1
        memo = self._memo
        if memo is None or _resilience.injector_armed():
            return self._interpreter.run(function_name, inputs)
        _resilience.poll_deadline()
        key = (function_name, tuple(sorted(inputs.items())) if inputs else ())
        result = memo.get(key)
        if result is None:
            result = memo[key] = self._interpreter.run(function_name, inputs)
        else:
            self.memo_hits += 1
        return result

    def run_instrumented(
        self,
        function_name: str,
        inputs: dict[str, int] | None,
        plan: InstrumentationPlan,
    ) -> InstrumentedRun:
        """Execute one test vector and collect instrumentation-point readings.

        Every instrumentation point whose trigger block is entered produces a
        reading with the cycle-counter value at that moment; the plan's
        end-of-function points fire with the final cycle count.  Points of
        segments that were not executed at all simply do not appear.
        """
        run = self.run(function_name, inputs)
        readings: list[PointReading] = []
        triggers, stamps = plan.triggers, run.stamps
        for index, block_id in enumerate(run.trace):
            for point in triggers.get(block_id, ()):
                readings.append(PointReading(point=point, cycles=stamps[index], trace_index=index))
        for point in plan.end_of_function_points:
            readings.append(
                PointReading(point=point, cycles=run.total_cycles, trace_index=len(run.trace))
            )
        readings.sort(key=lambda r: (r.trace_index, r.point.point_id))
        return InstrumentedRun(run=run, readings=readings)
