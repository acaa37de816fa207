"""Run-scoped artifacts: each CFG and each compiled board built once per run.

A cold analysis of one function used to build the same things several
times: the analyzer, every board interpreter and the model-checking model
each built their own CFG of the function, and each board compiled every
function it ran again.  :class:`RunArtifacts` holds them for one run:

* one CFG per :class:`~repro.minic.ast_nodes.FunctionDef`, built on first
  use (the analyzer, every board and, while no source-level transform has
  run, the model-checking model read it);
* one :class:`~repro.hw.interpreter.CompiledProgram` per (program, cost
  model) for unstubbed boards, whose functions compile on their first run.

A stubbed board charges the callee summaries of one caller's analysis, so
no other board of the run can share its code: it gets a compiled program of
its own, which goes away with the board.  The store keeps only what is
shared.

A store lives exactly as long as the run that made it:
:meth:`ProjectScheduler.run <repro.project.scheduler.ProjectScheduler.run>`
makes one per worker, and a standalone
:meth:`WcetAnalyzer.analyze <repro.pipeline.analyzer.WcetAnalyzer.analyze>`
makes its own; each closes it when it ends.  Nothing is cached on the
analysed program, a function or a module global, so a second run of the
same parsed program builds everything again, as a cold run should.
"""

from __future__ import annotations

from ..cfg.builder import build_cfg
from ..cfg.graph import ControlFlowGraph
from ..minic.ast_nodes import FunctionDef
from ..minic.semantic import AnalyzedProgram
from .cost_model import CostModel
from .interpreter import CompiledProgram


class RunArtifacts:
    """The CFGs and compiled boards of one run (see the module docstring)."""

    def __init__(self) -> None:
        #: id of a function -> (the function, its CFG); the function is
        #: held so its id cannot be reused while the store lives
        self._cfgs: dict[int, tuple[FunctionDef, ControlFlowGraph]] = {}
        #: the compiled programs of unstubbed boards
        self._programs: list[CompiledProgram] = []

    def cfg(self, function: FunctionDef) -> ControlFlowGraph:
        """*function*'s CFG, built on the first request."""
        entry = self._cfgs.get(id(function))
        if entry is None:
            entry = self._cfgs[id(function)] = (function, build_cfg(function))
        return entry[1]

    def compiled(
        self,
        analyzed: AnalyzedProgram,
        cost_model: CostModel,
        stubbed: frozenset[str],
    ) -> CompiledProgram:
        """The compiled code of *analyzed* under *cost_model* and *stubbed*.

        Unstubbed programs are shared by every board of the run with an
        equal cost model; a stubbed one is new and not kept.
        """
        if stubbed:
            return CompiledProgram(analyzed, cost_model, stubbed, self.cfg)
        for program in self._programs:
            if program.analyzed is analyzed and program.cost_model == cost_model:
                return program
        program = CompiledProgram(analyzed, cost_model, stubbed, self.cfg)
        self._programs.append(program)
        return program

    def close(self) -> None:
        """Release the run's CFGs and compiled code.

        Compiled code refers to itself through calls and loops, and each
        program to this store, so without the release they would stay in
        memory until the cyclic garbage collector next runs.  A board still
        holding a program builds what it needs again.
        """
        for program in self._programs:
            program.release()
        self._programs.clear()
        self._cfgs.clear()

    def __enter__(self) -> "RunArtifacts":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
