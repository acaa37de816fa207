"""Live-variable optimisation (Section 3.2.2).

    "Multiple variables can share the same memory location if they are not
    used at the same time. [...] This optimisation technique is also used to
    remove unused variables."

Two effects, both reducing the number of state variables (and therefore the
state-vector width) without touching the statement structure:

* **unused-variable removal** -- local variables that are never read nor
  written anywhere in the function simply lose their declaration;
* **location sharing** -- local variables of the same type whose live ranges
  do not overlap (no edge in the interference graph) are merged onto one
  representative; uses and assignments are renamed, and the merged variables'
  declarations become plain assignments (when they carried an initialiser) or
  disappear.

Inputs and globals are never merged: their identity is externally visible
(test data is forced onto them by name).  Variables that are written but never
read are left alone -- removing their assignments is the dead-variable/code
optimisation's job and would change the statement structure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analysis.liveness import live_range_conflicts
from ..cfg.builder import build_cfg
from ..cfg.graph import ControlFlowGraph
from ..minic.ast_nodes import AssignExpr, DeclStmt, FunctionDef, Identifier
from ..minic.symbols import FunctionSymbolTable, SymbolKind
from .rewrite import RewritePlan, rewrite_function


@dataclass
class LiveVariableReport:
    """What the optimisation did."""

    removed_unused: list[str] = field(default_factory=list)
    merged: dict[str, str] = field(default_factory=dict)  # variable -> representative


def _reads_and_writes(function: FunctionDef) -> tuple[set[str], set[str]]:
    """Names read (as identifiers) and written (assignment/decl-init targets)."""
    reads: set[str] = set()
    writes: set[str] = set()
    for node in function.body.walk():
        if isinstance(node, AssignExpr):
            writes.add(node.target.name)
        elif isinstance(node, Identifier):
            reads.add(node.name)
        elif isinstance(node, DeclStmt) and node.init is not None:
            writes.add(node.name)
    # assignment targets appear as Identifier children too; a pure write is
    # not a read, so subtract targets that are *only* ever written
    return reads, writes


def _declaration_order(function: FunctionDef) -> dict[str, int]:
    order: dict[str, int] = {}
    position = 0
    for node in function.body.walk():
        if isinstance(node, DeclStmt) and node.name not in order:
            order[node.name] = position
            position += 1
    return order


def plan_live_variable_sharing(
    function: FunctionDef,
    table: FunctionSymbolTable,
    cfg: ControlFlowGraph | None = None,
) -> tuple[RewritePlan, LiveVariableReport]:
    """Compute the rename/removal plan of the live-variable optimisation."""
    cfg = cfg if cfg is not None else build_cfg(function)
    report = LiveVariableReport()

    reads, writes = _reads_and_writes(function)
    declaration_order = _declaration_order(function)

    local_names = [
        name
        for name, symbol in table.variables.items()
        if symbol.kind is SymbolKind.LOCAL and not symbol.is_input
    ]

    # 1. completely unused locals: never read, never written
    unused = sorted(
        name for name in local_names if name not in reads and name not in writes
    )
    report.removed_unused = unused

    # 2. interference-based sharing among the remaining locals, per type
    conflicts = live_range_conflicts(cfg)
    mergeable = [name for name in local_names if name not in unused]
    by_type: dict[str, list[str]] = {}
    for name in mergeable:
        by_type.setdefault(table.variables[name].ctype.name, []).append(name)

    rename: dict[str, str] = {}
    for names in by_type.values():
        # process in declaration order so representatives are declared before
        # any assignment that replaces a merged variable's declaration
        ordered = sorted(names, key=lambda n: declaration_order.get(n, 10**9))
        representatives: list[str] = []
        merged_conflicts: dict[str, set[str]] = {}
        for name in ordered:
            placed = False
            for representative in representatives:
                if name not in merged_conflicts[representative]:
                    rename[name] = representative
                    merged_conflicts[representative] |= conflicts.get(name, set())
                    merged_conflicts[representative].discard(representative)
                    report.merged[name] = representative
                    placed = True
                    break
            if not placed:
                representatives.append(name)
                merged_conflicts[name] = set(conflicts.get(name, set()))

    plan = RewritePlan(
        rename=rename,
        drop_declarations=set(unused),
        declaration_to_assignment=set(rename),
    )
    return plan, report


def apply_live_variable_optimisation(
    function: FunctionDef,
    table: FunctionSymbolTable,
    cfg: ControlFlowGraph | None = None,
) -> tuple[FunctionDef, LiveVariableReport]:
    """Return a copy of *function* with unused variables removed and
    non-interfering locals merged onto shared locations."""
    plan, report = plan_live_variable_sharing(function, table, cfg)
    return rewrite_function(function, plan), report
