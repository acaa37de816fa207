"""Simulated measurement target: HCS12-style cost model, interpreter, board."""

from __future__ import annotations

from .artifacts import RunArtifacts
from .board import EvaluationBoard
from .cost_model import (
    DEFAULT_EXTERNAL_CALL_CYCLES,
    HCS12_COST_MODEL,
    CostModel,
    uniform_cost_model,
)
from .interpreter import (
    BranchEvent,
    ExecutionError,
    Interpreter,
    RunResult,
    SwitchEvent,
)

__all__ = [
    "EvaluationBoard",
    "RunArtifacts",
    "DEFAULT_EXTERNAL_CALL_CYCLES",
    "HCS12_COST_MODEL",
    "CostModel",
    "uniform_cost_model",
    "BranchEvent",
    "ExecutionError",
    "Interpreter",
    "RunResult",
    "SwitchEvent",
]
