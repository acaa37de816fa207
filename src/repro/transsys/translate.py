"""Translation of mini-C functions into transition systems ("C to SAL").

The translator mirrors the paper's conversion tool:

* every variable of the program (file-scope globals plus the function's
  parameters and locals) becomes a state variable;
* **by default every variable is modelled as a 16-bit signed integer** --
  "By default all variables created by our C to SAL translator are 16 bit
  signed integers" (Section 3.3) -- unless value ranges are supplied (that is
  the variable-range-analysis optimisation);
* every executable C statement becomes one transition; branch and switch
  decisions become guarded transitions (one per outcome);
* variables are *uninitialised* in the initial state -- "All variables
  contained in the model that are not input variables are uninitialised"
  (Section 3.2.5) -- unless the variable-initialisation optimisation is
  enabled, in which case a non-input global starts where the board starts
  it (:func:`~repro.minic.folding.initial_value`: the initialiser folded
  and wrapped at the declared type, 0 without one) and a local at 0, or
  at its domain's nearest value when 0 lies outside it.

The result is a :class:`TranslationResult` bundling the transition system with
the CFG-provenance maps the test-data generator needs (which location
corresponds to which basic block / CFG edge).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..cfg.builder import build_cfg
from ..cfg.graph import ControlFlowGraph, EdgeKind, TerminatorKind
from ..minic.ast_nodes import (
    AssignExpr,
    BinaryOp,
    CallExpr,
    DeclStmt,
    Expr,
    ExprStmt,
    IntLiteral,
    ReturnStmt,
    Stmt,
    UnaryOp,
)
from ..minic.folding import fold_expr, initial_value
from ..minic.semantic import AnalyzedProgram
from ..minic.symbols import SymbolKind
from ..minic.types import INT16, IntRange
from .system import StateVariable, Transition, TransitionSystem


class TranslationError(Exception):
    """Raised when a function cannot be translated."""


@dataclass
class TranslationOptions:
    """Knobs of the C-to-transition-system conversion.

    ``variable_ranges``
        per-variable value ranges (variable range analysis, Section 3.2.4);
        variables without an entry get the default 16-bit signed domain.
    ``initialize_variables``
        give non-input variables a concrete initial value (Section 3.2.5).
    ``excluded_variables``
        variables removed from the model (dead-variable elimination,
        Section 3.2.6); assignments to them become skip transitions so the
        control structure -- and hence counterexample lengths -- stays intact.
    ``use_declared_ranges``
        honour ``#pragma range`` annotations on input variables even without
        full range analysis (the paper notes the code generator can annotate
        ranges "from the MatLab/Simulink model in most of the cases").
    """

    variable_ranges: dict[str, IntRange] = field(default_factory=dict)
    initialize_variables: bool = False
    excluded_variables: frozenset[str] = frozenset()
    use_declared_ranges: bool = False


@dataclass
class TranslationResult:
    """A transition system plus provenance information."""

    system: TransitionSystem
    cfg: ControlFlowGraph
    #: CFG block id -> location at the block's entry
    block_location: dict[int, int]
    #: location -> CFG block id (inverse of the above, plus intermediate
    #: locations inside blocks)
    location_block: dict[int, int]
    final_location: int

    def location_of_block(self, block_id: int) -> int:
        try:
            return self.block_location[block_id]
        except KeyError as exc:
            raise TranslationError(f"no location for block {block_id}") from exc

    # ------------------------------------------------------------------ #
    # slice-aware derivation
    # ------------------------------------------------------------------ #
    def sliced(
        self,
        relevant_variables: frozenset[str],
        transitions: list[Transition],
    ) -> "TranslationResult":
        """A translation of the same function restricted to a slice.

        Only *relevant_variables* are materialised as state bits; updates to
        dropped variables become skip updates (guards are the caller's
        responsibility: a sound slice only drops variables no kept guard
        depends on, see :mod:`repro.mc.slicing`).  The CFG provenance maps
        are shared with the base result, so goals built against the original
        block/location numbering stay valid on the sliced system.
        """
        variables = {
            name: variable
            for name, variable in self.system.variables.items()
            if name in relevant_variables
        }
        kept_locations = {self.system.initial_location}
        sliced_transitions: list[Transition] = []
        for transition in transitions:
            kept_locations.add(transition.source)
            kept_locations.add(transition.target)
            sliced_transitions.append(
                Transition(
                    source=transition.source,
                    target=transition.target,
                    guard=transition.guard,
                    updates=[
                        (name, expr)
                        for name, expr in transition.updates
                        if name in variables
                    ],
                    labels=transition.labels,
                    statement_count=transition.statement_count,
                )
            )
        system = TransitionSystem(
            name=self.system.name,
            variables=variables,
            transitions=sliced_transitions,
            initial_location=self.system.initial_location,
            final_locations={
                location
                for location in self.system.final_locations
                if location in kept_locations
            },
            annotations=list(self.system.annotations)
            + [
                f"slice: {len(variables)}/{len(self.system.variables)} variables, "
                f"{len(sliced_transitions)}/{len(self.system.transitions)} transitions"
            ],
        )
        return TranslationResult(
            system=system,
            cfg=self.cfg,
            block_location=self.block_location,
            location_block=self.location_block,
            final_location=self.final_location,
        )


def edge_label(source: int, target: int, kind: EdgeKind) -> str:
    """The transition label identifying a CFG edge."""
    return f"edge:{source}->{target}:{kind.value}"


def block_label(block_id: int) -> str:
    """The transition label identifying entry into a CFG block."""
    return f"block:{block_id}"


class CToTransitionSystem:
    """Translates one function of an analysed program."""

    def __init__(
        self,
        analyzed: AnalyzedProgram,
        function_name: str,
        options: TranslationOptions | None = None,
        cfg: ControlFlowGraph | None = None,
    ):
        self._analyzed = analyzed
        self._function = analyzed.program.function(function_name)
        self._table = analyzed.table(function_name)
        self._options = options or TranslationOptions()
        self._cfg = cfg if cfg is not None else build_cfg(self._function)
        self._next_location = 0
        self._system = TransitionSystem(name=function_name)
        self._block_location: dict[int, int] = {}
        self._location_block: dict[int, int] = {}

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def translate(self) -> TranslationResult:
        self._declare_variables()
        self._assign_block_locations()
        final_location = self._block_location[self._cfg.exit.block_id]
        self._system.final_locations = {final_location}
        first_real = self._cfg.successors(self._cfg.entry)
        if not first_real:
            raise TranslationError("function has an empty body")
        self._system.initial_location = self._block_location[first_real[0].block_id]

        for block in self._cfg.blocks():
            if block.is_virtual:
                continue
            self._translate_block(block)
        self._system.validate()
        return TranslationResult(
            system=self._system,
            cfg=self._cfg,
            block_location=dict(self._block_location),
            location_block=dict(self._location_block),
            final_location=final_location,
        )

    # ------------------------------------------------------------------ #
    # variables
    # ------------------------------------------------------------------ #
    def _declare_variables(self) -> None:
        program = self._analyzed.program
        for name, symbol in self._table.variables.items():
            if not symbol.is_variable:
                continue
            if name in self._options.excluded_variables:
                continue
            domain = self._domain_for(name, symbol.ctype, symbol.declared_range)
            is_input = symbol.is_input or name in program.input_variables
            initial = self._initial_value(name, symbol.kind, is_input, domain)
            self._system.variables[name] = StateVariable(
                name=name,
                domain=domain,
                ctype=symbol.ctype,
                is_input=is_input,
                initial=initial,
            )

    def _domain_for(self, name: str, ctype, declared: IntRange | None) -> IntRange:
        if name in self._options.variable_ranges:
            return self._options.variable_ranges[name]
        if self._options.use_declared_ranges and declared is not None:
            return declared
        # unoptimised default: everything is a 16-bit signed integer
        del ctype
        return INT16.value_range()

    def _initial_value(
        self, name: str, kind: SymbolKind, is_input: bool, domain: IntRange
    ) -> int | None:
        if is_input:
            return None  # inputs are always free
        if not self._options.initialize_variables:
            return None  # unoptimised: uninitialised variables
        # optimisation 3.2.5: concrete initial values; a global starts where
        # the board starts it
        if kind is SymbolKind.GLOBAL:
            return initial_value(self._analyzed.program.global_decl(name))
        return domain.clamp(0)

    # ------------------------------------------------------------------ #
    # locations and transitions
    # ------------------------------------------------------------------ #
    def _fresh_location(self, block_id: int) -> int:
        location = self._next_location
        self._next_location += 1
        self._location_block[location] = block_id
        return location

    def _assign_block_locations(self) -> None:
        for block in self._cfg.blocks():
            self._block_location[block.block_id] = self._fresh_location(block.block_id)

    def _translate_block(self, block) -> None:
        current = self._block_location[block.block_id]
        returned = False
        for stmt in block.statements:
            if isinstance(stmt, ReturnStmt):
                self._emit(
                    Transition(
                        source=current,
                        target=self._block_location[self._cfg.exit.block_id],
                        guard=None,
                        updates=[],
                        labels=(block_label(block.block_id), "return"),
                    )
                )
                returned = True
                break
            transitions_updates = self._statement_updates(stmt)
            if transitions_updates is None:
                continue  # declaration without initialiser: no state change
            for updates, extra_labels in transitions_updates:
                target = self._fresh_location(block.block_id)
                self._emit(
                    Transition(
                        source=current,
                        target=target,
                        guard=None,
                        updates=updates,
                        labels=(block_label(block.block_id),) + extra_labels,
                    )
                )
                current = target
        if returned:
            return
        self._translate_terminator(block, current)

    def _statement_updates(
        self, stmt: Stmt
    ) -> list[tuple[list[tuple[str, Expr]], tuple[str, ...]]] | None:
        """Updates (one list per emitted transition) of a straight-line statement."""
        if isinstance(stmt, DeclStmt):
            if stmt.init is None:
                return None
            return [(self._assignment(stmt.name, stmt.init), ())]
        if isinstance(stmt, ExprStmt):
            expr = stmt.expr
            assignments = self._collect_assignments(expr)
            if not assignments:
                # a pure call (or an effect-free expression): keep one skip
                # transition so counterexample step counts match C statements
                labels: tuple[str, ...] = ()
                if isinstance(expr, CallExpr):
                    labels = (f"call:{expr.name}",)
                return [([], labels)]
            return [
                (self._assignment(target, value), ()) for target, value in assignments
            ]
        raise TranslationError(f"cannot translate statement {type(stmt).__name__}")

    def _assignment(self, target: str, value: Expr) -> list[tuple[str, Expr]]:
        if target in self._options.excluded_variables:
            return []  # dead variable: the statement becomes a skip transition
        return [(target, self._sanitize_expr(value))]

    def _collect_assignments(self, expr: Expr) -> list[tuple[str, Expr]]:
        """Assignments contained in *expr*, innermost (evaluated) first."""
        assignments: list[tuple[str, Expr]] = []

        def visit(node: Expr) -> None:
            for child in node.children():
                if isinstance(child, Expr):
                    visit(child)
            if isinstance(node, AssignExpr):
                assignments.append((node.target.name, node.value))

        visit(expr)
        return assignments

    def _sanitize_expr(self, expr: Expr) -> Expr:
        """Fold constants and strip nested assignments/calls from expressions.

        Every call is replaced by the literal 0: an undefined (external)
        callee returns 0 on the board too, but a defined callee's return
        value and global writes are not modelled.  Nested assignments are
        replaced by their right-hand side: an expression statement emits the
        assignment as its own update, but in a branch or switch condition
        the store is dropped.
        """
        folded = fold_expr(expr)
        return self._strip(folded)

    def _strip(self, expr: Expr) -> Expr:
        if isinstance(expr, CallExpr):
            return IntLiteral(value=0, location=expr.location, ctype=INT16)
        if isinstance(expr, AssignExpr):
            return self._strip(expr.value)
        if isinstance(expr, BinaryOp):
            return BinaryOp(
                op=expr.op,
                left=self._strip(expr.left),
                right=self._strip(expr.right),
                location=expr.location,
                ctype=expr.ctype,
            )
        if isinstance(expr, UnaryOp):
            return UnaryOp(
                op=expr.op,
                operand=self._strip(expr.operand),
                location=expr.location,
                ctype=expr.ctype,
            )
        return expr

    # ------------------------------------------------------------------ #
    def _translate_terminator(self, block, current: int) -> None:
        terminator = block.terminator
        if terminator.kind in (TerminatorKind.JUMP, TerminatorKind.NONE):
            edges = self._cfg.out_edges(block)
            if not edges:
                return
            edge = edges[0]
            self._emit(
                Transition(
                    source=current,
                    target=self._block_location[edge.target],
                    guard=None,
                    updates=[],
                    labels=(
                        block_label(block.block_id),
                        edge_label(edge.source, edge.target, edge.kind),
                        "goto",
                    ),
                    statement_count=0,
                )
            )
            return
        if terminator.kind is TerminatorKind.RETURN:
            # the return statement already produced its transition
            return
        if terminator.kind is TerminatorKind.BRANCH:
            self._translate_branch(block, current)
            return
        if terminator.kind is TerminatorKind.SWITCH:
            self._translate_switch(block, current)
            return
        raise TranslationError(f"unsupported terminator {terminator.kind}")

    def _translate_branch(self, block, current: int) -> None:
        condition = self._sanitize_expr(block.terminator.condition)
        negated = fold_expr(UnaryOp(op="!", operand=condition, ctype=None))
        for edge in self._cfg.out_edges(block):
            if edge.kind in (EdgeKind.TRUE, EdgeKind.BACK):
                guard: Expr | None = condition
            elif edge.kind is EdgeKind.FALSE:
                guard = negated
            else:
                guard = None
            self._emit(
                Transition(
                    source=current,
                    target=self._block_location[edge.target],
                    guard=guard,
                    updates=[],
                    labels=(
                        block_label(block.block_id),
                        edge_label(edge.source, edge.target, edge.kind),
                    ),
                )
            )

    def _translate_switch(self, block, current: int) -> None:
        scrutinee = self._sanitize_expr(block.terminator.condition)
        all_case_values: list[int] = []
        for edge in self._cfg.out_edges(block):
            if edge.kind is EdgeKind.CASE:
                all_case_values.extend(edge.case_values)
        for edge in self._cfg.out_edges(block):
            if edge.kind is EdgeKind.CASE:
                guard = self._values_guard(scrutinee, list(edge.case_values))
            elif edge.kind is EdgeKind.DEFAULT:
                if all_case_values:
                    guard = fold_expr(
                        UnaryOp(
                            op="!",
                            operand=self._values_guard(scrutinee, all_case_values),
                            ctype=None,
                        )
                    )
                else:
                    guard = None
            else:
                guard = None
            self._emit(
                Transition(
                    source=current,
                    target=self._block_location[edge.target],
                    guard=guard,
                    updates=[],
                    labels=(
                        block_label(block.block_id),
                        edge_label(edge.source, edge.target, edge.kind),
                    ),
                )
            )

    @staticmethod
    def _values_guard(scrutinee: Expr, values: list[int]) -> Expr:
        guard: Expr | None = None
        for value in values:
            comparison = BinaryOp(
                op="==",
                left=scrutinee,
                right=IntLiteral(value=value, ctype=INT16),
            )
            guard = comparison if guard is None else BinaryOp(op="||", left=guard, right=comparison)
        assert guard is not None
        return guard

    def _emit(self, transition: Transition) -> None:
        self._system.transitions.append(transition)


def translate_function(
    analyzed: AnalyzedProgram,
    function_name: str,
    options: TranslationOptions | None = None,
    cfg: ControlFlowGraph | None = None,
) -> TranslationResult:
    """Translate *function_name* of *analyzed* into a transition system."""
    return CToTransitionSystem(analyzed, function_name, options, cfg).translate()
