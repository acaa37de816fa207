"""Constraints and bounds propagation.

A :class:`Constraint` requires its expression to evaluate to a non-zero value.
Constraint filtering uses interval evaluation (definitely satisfied /
definitely violated / unknown) and a modest amount of bounds propagation for
the comparison shapes that dominate path constraints of generated control code
(``x == c``, ``state <= 3``, ``(sel == 2) && (pos != 0)``, ...).  The
intervals come from :class:`~repro.minic.intervals.SoundEvaluator`, the
wrap-aware interval domain :mod:`repro.sa` runs too, over the bounds of the
constraint's own variables' domains (excluded values narrow those domains in
propagation but not the intervals).

Both filtering and propagation are pure functions of the domains of the
constraint's own variables (the evaluator records nothing), so each
constraint memoises them, keyed by the tuple of those domains.  The memo
lives on the constraint: the symbolic engine extends a path condition by
sharing its parent's constraint objects, so every solve along one search
path reuses the answers of the solves before it, and the memo is freed with
the path.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from ..minic.ast_nodes import BinaryOp, Expr, Identifier, UnaryOp
from ..minic.folding import expression_variables
from ..minic.intervals import RangeEnvironment, SoundEvaluator
from ..minic.pretty import print_expression
from .domain import Domain, EmptyDomainError
from .expression import concrete_eval, expression_node_count


class Satisfaction(enum.Enum):
    """Tri-state result of constraint filtering under partial information."""

    SATISFIED = "satisfied"
    VIOLATED = "violated"
    UNKNOWN = "unknown"


class PropagationConflict(Exception):
    """Raised when propagation empties a domain (the constraint set is UNSAT)."""


@dataclass(frozen=True)
class Constraint:
    """The requirement ``expr != 0``."""

    expr: Expr
    description: str = ""
    #: number of nodes of ``expr`` (the solver's memory proxy)
    node_count: int = field(init=False, repr=False, compare=False)
    _variables: frozenset[str] = field(init=False, repr=False, compare=False)
    #: the variables, in the order their domains form a memo key
    _key_names: tuple[str, ...] = field(init=False, repr=False, compare=False)
    #: domains of the variables -> narrowed domains, or the conflict message
    _propagations: dict = field(init=False, repr=False, compare=False)
    _statuses: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        variables = frozenset(expression_variables(self.expr))
        object.__setattr__(self, "node_count", expression_node_count(self.expr))
        object.__setattr__(self, "_variables", variables)
        object.__setattr__(self, "_key_names", tuple(sorted(variables)))
        object.__setattr__(self, "_propagations", {})
        object.__setattr__(self, "_statuses", {})

    def variables(self) -> frozenset[str]:
        return self._variables

    def check(self, assignment: dict[str, int]) -> bool:
        return concrete_eval(self.expr, assignment) != 0

    def status(self, domains: dict[str, Domain]) -> Satisfaction:
        key = tuple(map(domains.get, self._key_names))
        status = self._statuses.get(key)
        if status is None:
            status = self._statuses[key] = _interval_status(
                self.expr, self._ranges(domains)
            )
        return status

    def _ranges(self, domains: dict[str, Domain]) -> RangeEnvironment:
        """The bounds of the constraint's own variables' *domains*."""
        return RangeEnvironment(
            {name: domains[name].to_range() for name in self._key_names if name in domains}
        )

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return self.description or print_expression(self.expr)

    # ------------------------------------------------------------------ #
    # propagation
    # ------------------------------------------------------------------ #
    def propagate(self, domains: dict[str, Domain]) -> dict[str, Domain]:
        """Narrow *domains* so the constraint can still hold.

        Returns a dict of the *changed* domains only; raises
        :class:`PropagationConflict` when a domain becomes empty.  The rules
        cover comparisons with a lone variable on one side, conjunctions,
        negated comparisons and disjunctions whose one side is already
        impossible; everything else is left to search.
        """
        key = tuple(map(domains.get, self._key_names))
        try:
            narrowed = self._propagations[key]
        except KeyError:
            try:
                narrowed = self._propagate_expr(self.expr, domains)
            except EmptyDomainError as exc:
                narrowed = str(exc)
            self._propagations[key] = narrowed
        if isinstance(narrowed, str):
            raise PropagationConflict(narrowed)
        return dict(narrowed)

    def _propagate_expr(
        self, expr: Expr, domains: dict[str, Domain]
    ) -> dict[str, Domain]:
        if isinstance(expr, BinaryOp):
            if expr.op == "&&":
                # both conjuncts must hold
                changed = self._propagate_expr(expr.left, domains)
                merged = {**domains, **changed}
                changed.update(self._propagate_expr(expr.right, merged))
                return changed
            if expr.op == "||":
                ranges = self._ranges(domains)
                left_status = _interval_status(expr.left, ranges)
                right_status = _interval_status(expr.right, ranges)
                if left_status is Satisfaction.VIOLATED:
                    return self._propagate_expr(expr.right, domains)
                if right_status is Satisfaction.VIOLATED:
                    return self._propagate_expr(expr.left, domains)
                return {}
            if expr.op in ("==", "!=", "<", "<=", ">", ">="):
                return self._propagate_comparison(expr, domains)
            return {}
        if isinstance(expr, UnaryOp) and expr.op == "!":
            inner = expr.operand
            if isinstance(inner, BinaryOp) and inner.op in _NEGATIONS:
                negated = BinaryOp(
                    op=_NEGATIONS[inner.op], left=inner.left, right=inner.right,
                    ctype=inner.ctype, location=inner.location,
                )
                return self._propagate_expr(negated, domains)
            if isinstance(inner, Identifier):
                # !x  ->  x == 0
                return self._narrow_variable(inner.name, domains, lo=0, hi=0)
            return {}
        if isinstance(expr, Identifier):
            # the constraint "x" means x != 0: remove 0 when it is a bound
            domain = domains.get(expr.name)
            if domain is None:
                return {}
            narrowed = domain.remove_value(0)
            return {expr.name: narrowed} if narrowed is not domain else {}
        return {}

    def _propagate_comparison(
        self, expr: BinaryOp, domains: dict[str, Domain]
    ) -> dict[str, Domain]:
        changed: dict[str, Domain] = {}
        left_var = expr.left.name if isinstance(expr.left, Identifier) else None
        right_var = expr.right.name if isinstance(expr.right, Identifier) else None
        ranges = self._ranges(domains)
        left_range = _EVALUATOR.evaluate(expr.left, ranges)
        right_range = _EVALUATOR.evaluate(expr.right, ranges)

        if left_var is not None and left_var in domains:
            changed.update(
                self._narrow_by_comparison(left_var, expr.op, right_range, domains)
            )
        if right_var is not None and right_var in domains:
            mirrored = _MIRROR[expr.op]
            merged = {**domains, **changed}
            changed.update(
                self._narrow_by_comparison(right_var, mirrored, left_range, merged)
            )
        return changed

    def _narrow_by_comparison(
        self, name: str, op: str, other, domains: dict[str, Domain]
    ) -> dict[str, Domain]:
        if op == "==":
            return self._narrow_variable(name, domains, lo=other.lo, hi=other.hi)
        if op == "<=":
            return self._narrow_variable(name, domains, hi=other.hi)
        if op == "<":
            return self._narrow_variable(name, domains, hi=other.hi - 1)
        if op == ">=":
            return self._narrow_variable(name, domains, lo=other.lo)
        if op == ">":
            return self._narrow_variable(name, domains, lo=other.lo + 1)
        if op == "!=":
            if other.lo == other.hi:
                domain = domains[name]
                narrowed = domain.remove_value(other.lo)
                if narrowed is not domain:
                    return {name: narrowed}
            return {}
        return {}

    @staticmethod
    def _narrow_variable(
        name: str,
        domains: dict[str, Domain],
        lo: int | None = None,
        hi: int | None = None,
    ) -> dict[str, Domain]:
        domain = domains.get(name)
        if domain is None:
            return {}
        narrowed = domain.restrict_bounds(lo, hi)
        if narrowed == domain:
            return {}
        return {name: narrowed}


#: no type ranges of its own: an unbound name gets its expression's type
#: range; no recorder, so evaluation stays a pure function of the ranges
_EVALUATOR = SoundEvaluator({})


def _interval_status(expr: Expr, ranges: RangeEnvironment) -> Satisfaction:
    """Whether ``expr != 0`` holds for all, none or some values of *ranges*."""
    interval = _EVALUATOR.evaluate(expr, ranges)
    if interval.lo == 0 and interval.hi == 0:
        return Satisfaction.VIOLATED
    if interval.lo > 0 or interval.hi < 0:
        return Satisfaction.SATISFIED
    return Satisfaction.UNKNOWN


_MIRROR = {"==": "==", "!=": "!=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}
_NEGATIONS = {"==": "!=", "!=": "==", "<": ">=", "<=": ">", ">": "<=", ">=": "<"}
