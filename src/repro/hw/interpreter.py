"""Cycle-accurate mini-C interpreter -- the simulated evaluation board CPU.

The interpreter executes a function over its CFG, charging cycles from a
:class:`~repro.hw.cost_model.CostModel` for every operation, exactly like the
HCS12 on the paper's evaluation board accumulates cycles in its counter
register.  Besides the final cycle count it records everything the
surrounding tooling needs:

* the *trace* -- the id of every block entered, in execution order, and the
  *stamps* -- the cycle count at each of those entries; the measurement
  subsystem converts the pair into per-segment execution times using the
  instrumentation plan, and the test-data generators match the trace
  against their path targets; and
* *branch events* with objective branch distances (Tracey-style), which the
  genetic algorithm uses as its fitness signal.

Defined functions can call each other (arguments by value, globals shared,
and each call's parameters and locals in a frame of its own, as in C);
external functions only consume cycles.  Execution is deterministic.

:meth:`Interpreter.run` executes closures compiled from each function's CFG
on its first run (:mod:`repro.hw.compiler`); every block compiles, calls
included.  The compiled code lives in a :class:`CompiledProgram`, which the
interpreters of one run share through their
:class:`~repro.hw.artifacts.RunArtifacts` store.  A run counts *steps* (one
per block, statement and evaluated expression node).  At each block end it
checks the step limit and polls the resilience context (deadline and the
``interp.step`` fault site) once for every multiple of 1024 steps passed
since the last poll; one comparison per block decides whether there is
anything to do.  The test suite keeps the
step-by-step walker the board used to run as the oracle of :meth:`run`.
"""

from __future__ import annotations

from functools import partial
from types import MappingProxyType
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, NamedTuple

from ..cfg.graph import ControlFlowGraph, Edge
from ..minic.ast_nodes import FunctionDef
from ..minic.folding import initial_value
from ..minic.semantic import AnalyzedProgram
from ..resilience import faults as _resilience
from .compiler import (
    BRANCH,
    JUMP,
    RETURN,
    SWITCH,
    CompiledFunction,
    _type_wrapper,
    compile_function,
)
from .cost_model import CostModel, HCS12_COST_MODEL

if TYPE_CHECKING:
    from .artifacts import RunArtifacts

#: steps between two deadline polls
POLL_INTERVAL = 1024


def _poll_resilience() -> None:
    """Deadline poll + ``interp.step`` fault site (no-op on clean paths)."""
    if _resilience.current() is None:
        return
    _resilience.poll_deadline()
    _resilience.maybe_fault("interp.step")


class ExecutionError(Exception):
    """Raised for runtime errors (division by zero, step-limit exceeded, ...)."""


class BranchEvent(NamedTuple):
    """Outcome and branch distances of one executed two-way branch.

    ``distance_true``/``distance_false`` are objective distances ("how far was
    the condition from evaluating to true/false"); the outcome that occurred
    has distance 0.  Distances follow Tracey et al. (the paper's reference
    [11]): ``|a-b|`` style measures combined with min over ``||`` and sum over
    ``&&``.
    """

    block_id: int
    outcome: bool
    distance_true: float
    distance_false: float


class SwitchEvent(NamedTuple):
    """Outcome of one executed switch dispatch."""

    block_id: int
    value: int
    taken_edge: Edge


#: ``BranchEvent`` from one ``(block_id, outcome, distance_true,
#: distance_false)`` tuple, without the keyword-argument constructor
_branch_event = partial(tuple.__new__, BranchEvent)


class RunResult(NamedTuple):
    """Everything observed during one run of the top-level function.

    ``trace`` holds the id of every block the top-level function entered, in
    execution order, and ``stamps`` the cycle counter at each entry
    (``stamps[i]`` belongs to ``trace[i]``).  Callees run unrecorded.

    Immutable: a memoising :class:`~repro.hw.board.EvaluationBoard` hands the
    same result to every caller that runs the same input vector, so the
    traces and event sequences are tuples and the mappings read-only views.
    """

    function_name: str
    inputs: Mapping[str, int]
    total_cycles: int
    return_value: int | None
    trace: tuple[int, ...]
    stamps: tuple[int, ...]
    branch_events: tuple[BranchEvent, ...]
    switch_events: tuple[SwitchEvent, ...]
    final_environment: Mapping[str, int]


class Interpreter:
    """Executes functions of one analysed program with cycle accounting.

    A function's CFG comes from the interpreter's
    :class:`~repro.hw.artifacts.RunArtifacts` the first time it is asked
    for, and its compiled code is built on its first run and shared by every
    interpreter on the same store with the same cost model and stubs (see
    :meth:`RunArtifacts.compiled`).  Without a store the interpreter makes a
    private one.  A CFG must not change after the function's first run.
    """

    def __init__(
        self,
        analyzed: AnalyzedProgram,
        cost_model: CostModel = HCS12_COST_MODEL,
        max_steps: int = 1_000_000,
        stub_functions: "Iterable[str]" = (),
        artifacts: "RunArtifacts | None" = None,
    ):
        if artifacts is None:
            from .artifacts import RunArtifacts

            artifacts = RunArtifacts()
        self._analyzed = analyzed
        self._program = analyzed.program
        self._cost = cost_model
        self._max_steps = max_steps
        #: defined functions treated as opaque external calls: their body is
        #: not executed and each call is charged the cost model's external
        #: cost for the name instead.  The interprocedural analysis uses this
        #: to replace already-summarised callees with their WCET bound.
        self._stubbed = frozenset(stub_functions)
        self._artifacts = artifacts
        self._code = artifacts.compiled(analyzed, cost_model, self._stubbed)

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def cfg(self, function_name: str) -> ControlFlowGraph:
        try:
            function = self._program.function(function_name)
        except KeyError as exc:
            raise ExecutionError(f"no CFG for function {function_name!r}") from exc
        return self._artifacts.cfg(function)

    def run(
        self,
        function_name: str,
        inputs: dict[str, int] | None = None,
        record: bool = True,
    ) -> RunResult:
        """Execute *function_name* with the given input-variable values.

        ``inputs`` assigns values to the analysis input variables (and may
        override any global); every other global starts at
        :func:`~repro.minic.folding.initial_value`, the value its initialiser
        gets in a function body (0 without one).  Parameters of the
        top-level function may also be supplied through ``inputs`` by name.

        With ``record=False`` the result's trace, stamps and event sequences
        are empty; its cycle count, return value and environment are the
        same as with recording.
        """
        inputs = dict(inputs or {})
        code = self._code
        environment = code.environment_for(inputs)
        state = _RunState(self._max_steps)
        function = self._program.function(function_name)

        # top-level parameters come from the inputs mapping (default 0)
        for param in function.params:
            value = inputs.get(param.name, 0)
            environment[param.name] = param.param_type.wrap(value)

        return_value = code.run_function(function_name, environment, state, record)
        # positional: keyword arguments would add about 0.5 µs to every run
        return RunResult(
            function_name,
            MappingProxyType(inputs),
            state.cycles,
            return_value,
            tuple(state.trace),
            tuple(state.stamps),
            tuple(state.branch_events),
            tuple(state.switch_events),
            MappingProxyType(environment),
        )


class CompiledProgram:
    """One program's functions compiled for one cost model and stub set.

    Each function compiles on its first run, from the CFG *cfg_of* gives
    for it; a call into a defined, unstubbed function runs the callee's
    code from the same program.  Nothing here depends on an interpreter's
    step limit, so every interpreter with the same program, cost model and
    stubs can share one instance.
    """

    def __init__(
        self,
        analyzed: AnalyzedProgram,
        cost_model: CostModel,
        stubbed: frozenset[str],
        cfg_of: Callable[[FunctionDef], ControlFlowGraph],
    ):
        self.analyzed = analyzed
        self.cost_model = cost_model
        self._program = analyzed.program
        self._cfg_of = cfg_of
        #: the functions whose calls run their body
        self._callees = {
            func.name: func
            for func in analyzed.program.functions
            if func.name not in stubbed
        }
        #: function name -> its compiled CFG, built on the function's first run
        self._compiled: dict[str, CompiledFunction] = {}
        #: (global environment before inputs, global name -> wrap function
        #: of its declared type), built on the first run
        self._globals: tuple[dict[str, int], dict[str, Callable[[int], int]]] | None = None

    def environment_for(self, inputs: dict[str, int]) -> dict[str, int]:
        """The globals at their initial values, then *inputs* (a global's
        value wrapped to its declared type).  The initial values and each
        global's wrap function are built once per program."""
        if self._globals is None:
            initial: dict[str, int] = {}
            wraps: dict[str, Callable[[int], int]] = {}
            for decl in self._program.globals:
                initial[decl.name] = initial_value(decl)
                wraps.setdefault(decl.name, _type_wrapper(decl.var_type))
            self._globals = (initial, wraps)
        initial, wraps = self._globals
        environment = initial.copy()
        for name, value in inputs.items():
            wrap = wraps.get(name)
            environment[name] = value if wrap is None else wrap(value)
        return environment

    def release(self) -> None:
        """Drop the compiled code; a later run compiles it again."""
        self._compiled.clear()

    def run_function(
        self,
        function_name: str,
        environment: dict[str, int],
        state: "_RunState",
        record: bool,
    ) -> int | None:
        """Run *function_name*'s compiled code on *environment*; only the
        top-level function records its trace and events."""
        code = self._compiled.get(function_name)
        if code is None:
            code = self._compiled[function_name] = compile_function(
                self._cfg_of(self._program.function(function_name)),
                self.cost_model,
                self._callees,
                self.run_function,
            )
        enter, stamp = state.trace.append, state.stamps.append
        branch_events = state.branch_events.append
        block = code.entry
        return_value: int | None = None
        while True:
            state.steps += block.fixed_steps
            if record:
                enter(block.block_id)
                stamp(state.cycles)
            state.cycles += block.cycles
            try:
                for statement, is_return in block.statements:
                    result = statement(environment, state)
                    if is_return:
                        return_value = result
                kind = block.kind
                if kind == JUMP:
                    target = block.successor
                elif kind == BRANCH:
                    outcome = block.condition(environment, state) != 0
                    _, target, cycles = block.on_true if outcome else block.on_false
                    state.cycles += cycles
                    if record:
                        branch_events(
                            _branch_event((block.block_id, outcome) + block.distances(environment))
                        )
                elif kind == SWITCH:
                    value = block.condition(environment, state)
                    case = block.cases.get(value) or block.default
                    if case is None:
                        raise ExecutionError(
                            f"switch block {block.block_id}: no case matches value "
                            f"{value} and no default"
                        )
                    edge, target, cycles = case
                    state.cycles += cycles
                    if record:
                        state.switch_events.append(SwitchEvent(block.block_id, value, edge))
            except KeyError as exc:
                raise ExecutionError(f"read of unbound variable {exc.args[0]!r}") from None
            if state.steps >= state.next_check:
                state.check_steps()
            if kind >= RETURN:  # RETURN or EXIT
                return return_value
            if target is None:
                if record:
                    enter(code.exit_id)
                    stamp(state.cycles)
                return return_value
            block = target


class _RunState:
    """Mutable execution state shared across nested function calls."""

    __slots__ = (
        "max_steps", "cycles", "steps", "polled", "next_check",
        "trace", "stamps", "branch_events", "switch_events",
    )

    def __init__(self, max_steps: int):
        self.max_steps = max_steps
        self.cycles = 0
        self.steps = 0
        #: the last multiple of POLL_INTERVAL polled at
        self.polled = 0
        #: the step count at which a block end has something to check
        self.next_check = min(POLL_INTERVAL, max_steps + 1)
        self.trace: list[int] = []
        self.stamps: list[int] = []
        self.branch_events: list[BranchEvent] = []
        self.switch_events: list[SwitchEvent] = []

    def check_steps(self) -> None:
        """Poll once per POLL_INTERVAL boundary passed up to the step limit,
        then raise if the limit is exceeded.

        This is the order the checks would fire in step by step.  Outside
        chaos runs the ambient resilience context is None and a poll costs
        one call and one global read.
        """
        last = min(self.steps, self.max_steps)
        while self.polled + POLL_INTERVAL <= last:
            self.polled += POLL_INTERVAL
            _poll_resilience()
        if self.steps > self.max_steps:
            raise ExecutionError(
                f"execution exceeded {self.max_steps} steps (possible unbounded loop)"
            )
        self.next_check = min(self.polled + POLL_INTERVAL, self.max_steps + 1)
