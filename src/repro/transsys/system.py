"""Guarded-transition-system IR -- the stand-in for the SAL input language.

The paper translates C functions into the SAL language so that the SAL model
checker can search for test data (Section 3).  This reproduction translates
into the :class:`TransitionSystem` defined here: a finite set of *locations*
(the program counter), a set of finite-domain *state variables*, and guarded
*transitions* ``pc = L ∧ guard → updates; pc := L'``.

What matters for reproducing the paper's optimisation study is that the IR
exposes the same cost drivers SAL has:

* the **state-vector width** -- the sum of the bit widths of all variables
  (plus the pc); the paper quotes ~700 bits as the practical limit and notes
  that naïve translation wastes 16 bits on every boolean;
* the **number of transitions** a run needs to reach a target -- statement
  concatenation packs several C statements into one transition and shrinks it.

Guards and update right-hand sides reuse the mini-C expression AST
(:mod:`repro.minic.ast_nodes`), evaluated over integers by the engines.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..minic.ast_nodes import Expr
from ..minic.pretty import print_expression
from ..minic.types import CType, INT16, IntRange


@dataclass
class StateVariable:
    """One finite-domain state variable of the model.

    ``initial`` is ``None`` for variables whose initial value the model
    checker may choose freely (the paper's uninitialised variables and the
    analysis inputs); otherwise the variable starts at the given value.
    """

    name: str
    domain: IntRange
    ctype: CType = INT16
    is_input: bool = False
    initial: int | None = None

    @property
    def bits(self) -> int:
        return self.domain.bits()

    @property
    def is_free(self) -> bool:
        """True when the initial value is unconstrained (part of D_I)."""
        return self.initial is None

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        init = "?" if self.initial is None else str(self.initial)
        return f"{self.name}:[{self.domain.lo},{self.domain.hi}]={init}"


@dataclass
class Transition:
    """A guarded transition between two locations.

    ``updates`` are *simultaneous* assignments (SAL semantics); the translator
    only groups statements whose updates are independent, so simultaneous and
    sequential interpretation coincide.  ``labels`` carry the CFG provenance
    (``"block:<id>"``, ``"edge:<src>-><dst>"``) that reachability properties
    refer to.
    """

    source: int
    target: int
    guard: Expr | None = None
    updates: list[tuple[str, Expr]] = field(default_factory=list)
    labels: tuple[str, ...] = ()
    #: number of original C statements folded into this transition
    statement_count: int = 1

    def describe(self) -> str:
        guard = print_expression(self.guard) if self.guard is not None else "true"
        updates = ", ".join(f"{name}' = {print_expression(expr)}" for name, expr in self.updates)
        return f"L{self.source} --[{guard}]--> L{self.target} {{{updates}}}"


@dataclass
class TransitionSystem:
    """A complete model: variables, locations, transitions."""

    name: str
    variables: dict[str, StateVariable] = field(default_factory=dict)
    transitions: list[Transition] = field(default_factory=list)
    initial_location: int = 0
    final_locations: set[int] = field(default_factory=set)
    #: free-form notes (which optimisations were applied, ...)
    annotations: list[str] = field(default_factory=list)

    # ------------------------------------------------------------------ #
    # structure queries
    # ------------------------------------------------------------------ #
    def locations(self) -> list[int]:
        found: set[int] = {self.initial_location} | set(self.final_locations)
        for transition in self.transitions:
            found.add(transition.source)
            found.add(transition.target)
        return sorted(found)

    def outgoing(self, location: int) -> list[Transition]:
        return [t for t in self.transitions if t.source == location]

    def variable(self, name: str) -> StateVariable:
        try:
            return self.variables[name]
        except KeyError as exc:
            raise KeyError(f"transition system has no variable {name!r}") from exc

    def input_variables(self) -> list[StateVariable]:
        return [v for v in self.variables.values() if v.is_input]

    def free_variables(self) -> list[StateVariable]:
        """Variables whose initial value the model checker chooses (D_I)."""
        return [v for v in self.variables.values() if v.is_free]

    # ------------------------------------------------------------------ #
    # the metrics of the paper's Section 3.1 / Table 2
    # ------------------------------------------------------------------ #
    def state_bits(self) -> int:
        """Bits of the data state vector (excluding the program counter)."""
        return sum(variable.bits for variable in self.variables.values())

    def pc_bits(self) -> int:
        count = len(self.locations())
        return max(1, (max(1, count - 1)).bit_length())

    def total_state_bits(self) -> int:
        """Bits of the full state vector (data + program counter)."""
        return self.state_bits() + self.pc_bits()

    def initial_state_bits(self) -> int:
        """Bits of freedom in the initial state (log2 |D_I|)."""
        return sum(variable.bits for variable in self.free_variables())

    def summary(self) -> dict[str, int]:
        return {
            "variables": len(self.variables),
            "free_variables": len(self.free_variables()),
            "locations": len(self.locations()),
            "transitions": len(self.transitions),
            "state_bits": self.state_bits(),
            "total_state_bits": self.total_state_bits(),
            "initial_state_bits": self.initial_state_bits(),
        }

    # ------------------------------------------------------------------ #
    def describe(self) -> str:
        """A SAL-flavoured textual rendering of the model (for reports)."""
        lines = [f"MODULE {self.name}"]
        lines.append("  VARIABLES")
        for variable in self.variables.values():
            marker = " (input)" if variable.is_input else ""
            init = "nondet" if variable.initial is None else str(variable.initial)
            lines.append(
                f"    {variable.name}: [{variable.domain.lo}..{variable.domain.hi}]"
                f" init {init}{marker}  /* {variable.bits} bits */"
            )
        lines.append(f"  INITIAL LOCATION L{self.initial_location}")
        lines.append("  TRANSITIONS")
        for transition in self.transitions:
            lines.append(f"    {transition.describe()}")
        lines.append(
            f"  /* state vector: {self.total_state_bits()} bits "
            f"({self.state_bits()} data + {self.pc_bits()} pc) */"
        )
        return "\n".join(lines)

    def validate(self) -> None:
        """Check internal consistency (all referenced variables declared)."""
        from ..minic.folding import expression_variables

        names = set(self.variables)
        for transition in self.transitions:
            used: set[str] = set()
            if transition.guard is not None:
                used |= expression_variables(transition.guard)
            for target, expr in transition.updates:
                used.add(target)
                used |= expression_variables(expr)
            unknown = used - names
            if unknown:
                raise ValueError(
                    f"transition {transition.describe()} references undeclared "
                    f"variables {sorted(unknown)}"
                )
