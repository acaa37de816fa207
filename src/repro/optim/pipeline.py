"""The optimisation pipeline: from an analysed program to an optimised model.

:func:`build_optimized_model` applies any combination of the paper's six
state-space optimisations to one function and produces the transition system
the model checker runs on, together with a report of what each optimisation
achieved (variables removed, bits saved, transitions fused).  The Table 2
benchmark calls it once per configuration: unoptimised, all optimisations,
and each optimisation on its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

from ..cfg.builder import build_cfg
from ..cfg.graph import ControlFlowGraph
from ..minic.pretty import print_program
from ..minic.semantic import AnalyzedProgram, analyze_program
from ..minic.parser import parse_program
from ..sa.feasibility import FeasibilityResult, analyze_feasibility, defined_functions
from ..transsys.translate import (
    TranslationOptions,
    TranslationResult,
    translate_function,
)
from .dead_elimination import dead_variable_set
from .live_variable import apply_live_variable_optimisation
from .reverse_cse import apply_reverse_cse
from .statement_concat import apply_statement_concatenation


@dataclass(frozen=True)
class OptimizationConfig:
    """Which of the paper's optimisations (Section 3.2) are enabled."""

    reverse_cse: bool = False                 # 3.2.1
    live_variable_analysis: bool = False      # 3.2.2
    statement_concatenation: bool = False     # 3.2.3
    variable_range_analysis: bool = False     # 3.2.4
    variable_initialisation: bool = False     # 3.2.5
    dead_variable_elimination: bool = False   # 3.2.6
    dead_code_elimination: bool = False       # 3.2.6 (code removal, optional)

    # ------------------------------------------------------------------ #
    @classmethod
    def none(cls) -> "OptimizationConfig":
        """The unoptimised configuration (first row of Table 2)."""
        return cls()

    @classmethod
    def all(cls, include_code_elimination: bool = False) -> "OptimizationConfig":
        """Every optimisation enabled (second row of Table 2)."""
        return cls(
            reverse_cse=True,
            live_variable_analysis=True,
            statement_concatenation=True,
            variable_range_analysis=True,
            variable_initialisation=True,
            dead_variable_elimination=True,
            dead_code_elimination=include_code_elimination,
        )

    @classmethod
    def cfg_preserving(cls) -> "OptimizationConfig":
        """Optimisations that keep the CFG block structure intact.

        Source-to-source transformations (reverse CSE, live-variable sharing,
        dead-code removal) renumber basic blocks; path-precise reachability
        goals -- which name CFG edges -- therefore use this configuration, the
        strongest one whose models still speak the original CFG's labels.
        """
        return cls(
            statement_concatenation=True,
            variable_range_analysis=True,
            variable_initialisation=True,
            dead_variable_elimination=True,
        )

    @classmethod
    def only(cls, name: str) -> "OptimizationConfig":
        """A configuration with a single optimisation enabled (Table 2 rows 3+)."""
        valid = {
            "reverse_cse",
            "live_variable_analysis",
            "statement_concatenation",
            "variable_range_analysis",
            "variable_initialisation",
            "dead_variable_elimination",
            "dead_code_elimination",
        }
        if name not in valid:
            raise ValueError(f"unknown optimisation {name!r}; expected one of {sorted(valid)}")
        return replace(cls(), **{name: True})

    def enabled_names(self) -> list[str]:
        return [
            name
            for name in (
                "reverse_cse",
                "live_variable_analysis",
                "statement_concatenation",
                "variable_range_analysis",
                "variable_initialisation",
                "dead_variable_elimination",
                "dead_code_elimination",
            )
            if getattr(self, name)
        ]

    def describe(self) -> str:
        names = self.enabled_names()
        return "unoptimised" if not names else "+".join(names)


@dataclass
class OptimizedModel:
    """The outcome of running the optimisation pipeline on one function."""

    config: OptimizationConfig
    function_name: str
    #: the program before optimisation
    original: AnalyzedProgram
    analyzed: AnalyzedProgram
    translation: TranslationResult
    notes: list[str] = field(default_factory=list)

    @property
    def system(self):
        return self.translation.system

    @cached_property
    def unoptimized_state_bits(self) -> int:
        """State-vector bits before optimisation (the headline number of
        Section 3.1); the unoptimised baseline is translated on first access."""
        baseline = translate_function(self.original, self.function_name, TranslationOptions())
        return baseline.system.total_state_bits()

    @property
    def state_bits(self) -> int:
        return self.translation.system.total_state_bits()

    def summary(self) -> dict[str, object]:
        return {
            "configuration": self.config.describe(),
            "state_bits": self.state_bits,
            "variables": len(self.system.variables),
            "free_variables": len(self.system.free_variables()),
            "transitions": len(self.system.transitions),
            "notes": list(self.notes),
        }


def _reanalyze(analyzed: AnalyzedProgram, function_name: str, new_function) -> AnalyzedProgram:
    """Swap one function of the program and re-run semantic analysis.

    Going through the pretty printer and the parser guarantees that node ids,
    inferred types and symbol tables of the transformed program are fully
    consistent -- the transformed source is also valuable for inspection and
    appears in the examples.
    """
    program = analyzed.program
    new_functions = [
        new_function if func.name == function_name else func for func in program.functions
    ]
    candidate = replace(program, functions=new_functions)
    source = print_program(candidate)
    return analyze_program(parse_program(source, filename=f"<optimised:{function_name}>"))


def build_optimized_model(
    analyzed: AnalyzedProgram,
    function_name: str,
    config: OptimizationConfig,
    keep_variables: frozenset[str] = frozenset(),
    cfg: ControlFlowGraph | None = None,
    feasibility: FeasibilityResult | None = None,
) -> OptimizedModel:
    """Apply *config* to *function_name* and translate the result.

    ``keep_variables`` protects variables from dead-variable/dead-code
    elimination (used when generating test data for paths through otherwise
    irrelevant code).

    ``cfg`` and ``feasibility`` hand in work the caller has already done on
    the untransformed function: its CFG, and the initialised sa fixpoint of
    that CFG (``analyze_feasibility(cfg, table, defined_functions(program),
    initialised=True)``, as the prefilter runs it).  They are used only
    while no source-level transform has run, and ``feasibility`` only for
    an initialised model, whose range analysis would run that same fixpoint.
    """
    notes: list[str] = []
    current = analyzed

    # ---- source-level transformations ---------------------------------- #
    if config.reverse_cse:
        function = current.program.function(function_name)
        table = current.table(function_name)
        new_function, report = apply_reverse_cse(function, table)
        current = _reanalyze(current, function_name, new_function)
        notes.append(
            f"reverse CSE substituted {len(report.substituted)} temporaries "
            f"({', '.join(report.substituted) or 'none'})"
        )

    if config.live_variable_analysis:
        function = current.program.function(function_name)
        table = current.table(function_name)
        new_function, live_report = apply_live_variable_optimisation(function, table)
        current = _reanalyze(current, function_name, new_function)
        notes.append(
            f"live-variable analysis removed {len(live_report.removed_unused)} unused and "
            f"merged {len(live_report.merged)} variables"
        )

    if config.dead_code_elimination:
        from .dead_elimination import apply_dead_code_elimination

        function = current.program.function(function_name)
        table = current.table(function_name)
        new_function, dead_report = apply_dead_code_elimination(
            function, table, keep=keep_variables
        )
        current = _reanalyze(current, function_name, new_function)
        notes.append(f"dead-code elimination removed {dead_report.removed_statements} statements")

    # ---- analyses feeding the translator -------------------------------- #
    if current is not analyzed or cfg is None:
        cfg = build_cfg(current.program.function(function_name))
    if current is not analyzed or not config.variable_initialisation:
        feasibility = None
    options = TranslationOptions()

    if config.dead_variable_elimination:
        function = current.program.function(function_name)
        table = current.table(function_name)
        eliminated, dead_report = dead_variable_set(
            function, table, cfg, keep=keep_variables
        )
        options = replace(options, excluded_variables=eliminated)
        notes.append(
            f"dead-variable elimination removed {len(eliminated)} variables from the model "
            f"({', '.join(sorted(eliminated)) or 'none'})"
        )

    if config.variable_range_analysis:
        # 3.2.4: size every state variable by the hull of the values it can
        # hold, from the same sound, wrap-aware fixpoint that proves branches
        # infeasible (repro.sa).  An uninitialised model lets a global start
        # at any value, so only an initialised one may start the fixpoint at
        # the initialisers.
        if feasibility is None:
            feasibility = analyze_feasibility(
                cfg,
                current.table(function_name),
                defined_functions(current.program),
                initialised=config.variable_initialisation,
            )
        ranges = feasibility.state_ranges
        options = replace(options, variable_ranges=ranges)
        total_bits = sum(
            rng.bits()
            for name, rng in ranges.items()
            if name not in options.excluded_variables
        )
        notes.append(f"variable range analysis: {total_bits} data bits after narrowing")

    if config.variable_initialisation:
        options = replace(options, initialize_variables=True)
        notes.append("variable initialisation: non-input variables start at concrete values")

    # ---- translation and transition-level optimisation ------------------ #
    translation = translate_function(current, function_name, options, cfg)

    if config.statement_concatenation:
        _, concat_report = apply_statement_concatenation(translation.system)
        notes.append(
            f"statement concatenation fused transitions "
            f"{concat_report.transitions_before} -> {concat_report.transitions_after}"
        )

    model = OptimizedModel(
        config=config,
        function_name=function_name,
        original=analyzed,
        analyzed=current,
        translation=translation,
        notes=notes,
    )
    translation.system.annotations.append(f"optimisations: {config.describe()}")
    return model


#: The configurations evaluated in the paper's Table 2, in row order.
TABLE2_CONFIGURATIONS: list[tuple[str, OptimizationConfig]] = [
    ("unoptimized", OptimizationConfig.none()),
    ("all optimisations used", OptimizationConfig.all()),
    ("Variable Initialisation", OptimizationConfig.only("variable_initialisation")),
    ("Variable Range Analysis", OptimizationConfig.only("variable_range_analysis")),
    ("Reverse CSE", OptimizationConfig.only("reverse_cse")),
    ("Statement Concatenation", OptimizationConfig.only("statement_concatenation")),
    ("DeadVariable Elimination", OptimizationConfig.only("dead_variable_elimination")),
    ("Live-Variable Analysis", OptimizationConfig.only("live_variable_analysis")),
]
