"""The simulated evaluation board.

The paper's flow compiles the instrumented application for the Motorola HCS12,
uploads it to an evaluation board, forces the generated test data onto the
input variables through glue code and reads back the cycle-counter values at
the instrumentation points.  :class:`EvaluationBoard` packages that flow:
programs are *loaded* once (parsed program + cost model), then *run* any
number of times with different test vectors.  A run's trace and stamps (the
cycle counter at every block entry) are the readings of any instrumentation
plan: :class:`~repro.measurement.runner.MeasurementRunner` pairs them into
segment times.  A caller that needs only the final cycle count can skip
recording them (``record=False``).

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

from typing import Iterable

from ..cfg.graph import ControlFlowGraph
from ..minic.semantic import AnalyzedProgram
from ..resilience import faults as _resilience
from .artifacts import RunArtifacts
from .cost_model import CostModel, HCS12_COST_MODEL
from .interpreter import Interpreter, RunResult


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

    def run(
        self,
        function_name: str,
        inputs: dict[str, int] | None = None,
        record: bool = True,
    ) -> RunResult:
        """Execute one test vector and return the raw run result.

        ``record=False`` says the caller reads none of the trace, stamps and
        events, so the run may leave them empty (see :meth:`Interpreter.run`);
        a run a memoising board stores is recorded in full, because its memo
        also answers later callers.

        A memoising board answers a repeated vector from its memo, except
        while a fault injector is armed: then every call reaches the
        interpreter, so ``interp.step`` hits are numbered as without a memo.
        A lookup still polls the job deadline.  Failed runs are not stored.
        """
        self.runs += 1
        memo = self._memo
        if memo is None or _resilience.injector_armed():
            return self._interpreter.run(function_name, inputs, record=record)
        _resilience.poll_deadline()
        key = (function_name, tuple(sorted(inputs.items())) if inputs else ())
        result = memo.get(key)
        if result is None:
            result = memo[key] = self._interpreter.run(function_name, inputs)
        else:
            self.memo_hits += 1
        return result
