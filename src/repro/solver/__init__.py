"""Finite-domain constraint solver used by the model-checking engines."""

from __future__ import annotations

from .constraints import Constraint, PropagationConflict, Satisfaction
from .domain import Domain, EmptyDomainError
from .expression import (
    EvaluationError,
    concrete_eval,
    expression_node_count,
    substitute,
)
from .search import (
    ConstraintSolver,
    Solution,
    SolverLimitReached,
    SolverStatistics,
)

__all__ = [
    "Constraint",
    "PropagationConflict",
    "Satisfaction",
    "Domain",
    "EmptyDomainError",
    "EvaluationError",
    "concrete_eval",
    "expression_node_count",
    "substitute",
    "ConstraintSolver",
    "Solution",
    "SolverLimitReached",
    "SolverStatistics",
]
