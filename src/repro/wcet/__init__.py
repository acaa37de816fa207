"""WCET bound computation: timing schema, end-to-end measurement, reports."""

from __future__ import annotations

from ..testgen.inputs import InputSpaceTooLarge
from .end_to_end import (
    EndToEndResult,
    enumerate_input_space,
    exhaustive_end_to_end,
    measure_vectors,
)
from .report import WcetReport
from .timing_schema import (
    SegmentContribution,
    TimingSchema,
    WcetBound,
    WcetComputationError,
)

__all__ = [
    "EndToEndResult",
    "InputSpaceTooLarge",
    "enumerate_input_space",
    "exhaustive_end_to_end",
    "measure_vectors",
    "WcetReport",
    "SegmentContribution",
    "TimingSchema",
    "WcetBound",
    "WcetComputationError",
]
