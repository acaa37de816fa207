"""Per-function call extraction over a project's analysed units.

One :class:`FunctionCalls` record per analyzable function: the callee names
that appear in the body (with syntactic site counts, via
:mod:`repro.minic.calls`) plus the facts the call-graph layer needs to
resolve them project-wide and to decide whether a call site is *safe to
summarise* -- whether any call site uses the callee's return value, and
which of the unit's globals the function reads and writes.  A summarised
callee is stubbed during the caller's measurement, so a callee whose return
value feeds the caller's control flow, or whose global writes the caller
reads, must be inlined instead (see
:meth:`repro.callgraph.graph.CallGraph` resolution diagnostics).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..minic.ast_nodes import AssignExpr, CallExpr, ExprStmt, FunctionDef, Identifier
from ..minic.calls import call_sites, called_names
from ..project.model import Project, ProjectFunction


@dataclass(frozen=True)
class FunctionCalls:
    """The call sites and summarisation-safety facts of one project function."""

    function: ProjectFunction
    #: callee name -> number of syntactic call sites (first-appearance order)
    sites: dict[str, int] = field(default_factory=dict)
    #: callee names with at least one call site whose return value is used
    #: (anywhere but directly discarded as an expression statement)
    value_used: frozenset[str] = frozenset()
    #: unit globals the function body reads (assignment targets excluded)
    global_reads: frozenset[str] = frozenset()
    #: unit globals the function body assigns
    global_writes: frozenset[str] = frozenset()

    @property
    def qualified_name(self) -> str:
        return self.function.qualified_name

    @property
    def unit(self) -> str:
        return self.function.unit

    @property
    def name(self) -> str:
        return self.function.name


def _analyse_definition(
    definition: FunctionDef, global_names: frozenset[str]
) -> tuple[frozenset[str], frozenset[str], frozenset[str]]:
    """(value-used callee names, global reads, global writes) of *definition*.

    Pure assignment targets are writes, not reads (so ``out_f = acc;`` does
    not make ``out_f`` a read); every other :class:`Identifier` naming a
    unit global counts as a read, including locals that shadow a global --
    a conservative overlap that can only flag *more* call sites as
    inline-required, never fewer.
    """
    discarded: set[int] = set()
    targets: set[int] = set()
    reads: set[str] = set()
    writes: set[str] = set()
    for node in definition.walk():
        if isinstance(node, ExprStmt) and isinstance(node.expr, CallExpr):
            discarded.add(node.expr.node_id)
        elif isinstance(node, AssignExpr):
            targets.add(node.target.node_id)
            if node.target.name in global_names:
                writes.add(node.target.name)
    for node in definition.walk():
        if (
            isinstance(node, Identifier)
            and node.name in global_names
            and node.node_id not in targets
        ):
            reads.add(node.name)
    value_used = frozenset(
        site.name
        for site in call_sites(definition)
        if site.node_id not in discarded
    )
    return value_used, frozenset(reads), frozenset(writes)


def extract_project_calls(
    project: Project, functions: list[ProjectFunction] | None = None
) -> list[FunctionCalls]:
    """Extract call sites and safety facts for every function of *project*."""
    if functions is None:
        functions = project.functions()
    globals_of_unit: dict[str, frozenset[str]] = {}
    extracted: list[FunctionCalls] = []
    for function in functions:
        program = project.unit(function.unit).analyzed.program
        if function.unit not in globals_of_unit:
            globals_of_unit[function.unit] = frozenset(
                decl.name for decl in program.globals
            )
        definition = program.function(function.name)
        value_used, reads, writes = _analyse_definition(
            definition, globals_of_unit[function.unit]
        )
        extracted.append(
            FunctionCalls(
                function=function,
                sites=called_names(definition),
                value_used=value_used,
                global_reads=reads,
                global_writes=writes,
            )
        )
    return extracted
