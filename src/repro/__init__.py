"""repro -- measurement-based WCET analysis by CFG partitioning and model checking.

A from-scratch reproduction of

    I. Wenzel, B. Rieder, R. Kirner, P. Puschner:
    "Automatic Timing Model Generation by CFG Partitioning and Model
    Checking", DATE 2005.

The package is organised in layers (see ``DESIGN.md`` for the full map):

``repro.minic``
    frontend for the structured C subset produced by automotive code
    generators (lexer, parser, type checker, pretty printer).
``repro.cfg``
    control-flow graphs, path counting and graph utilities.
``repro.partition``
    the paper's core contribution: hierarchical partitioning of the CFG into
    program segments under a path bound *b*, instrumentation-point placement
    and the instrumentation/measurement cost model.
``repro.analysis``
    dataflow analyses (liveness, reaching definitions, control dependence)
    shared by the optimisations; value ranges come from ``repro.sa``.
``repro.transsys`` / ``repro.optim`` / ``repro.solver`` / ``repro.mc``
    the "C to SAL" translation, the six state-space optimisations of the
    paper, a finite-domain constraint solver and the model-checking engines
    used for test-data generation.
``repro.testgen``
    hybrid test-data generation: genetic algorithm first, model checking for
    the remaining paths, infeasibility detection.
``repro.hw`` / ``repro.measurement`` / ``repro.wcet``
    the HCS12-style execution-time substrate, instrumented measurement runs
    and the timing-schema WCET bound computation.
``repro.codegen`` / ``repro.workloads``
    a TargetLink-like Stateflow code generator and the paper's workloads
    (Figure 1 example, optimisation-evaluation program, wiper-control case
    study, synthetic industrial-size applications).
``repro.pipeline``
    the end-to-end ``WcetAnalyzer`` tying everything together, plus the CLI.
"""

from __future__ import annotations

__version__ = "0.1.0"

__all__ = ["__version__"]
