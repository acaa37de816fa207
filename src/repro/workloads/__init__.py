"""Workloads: the paper's example programs and synthetic program generators."""

from __future__ import annotations

from .figure1 import (
    EXPECTED_BASIC_BLOCKS,
    EXPECTED_TOTAL_PATHS,
    FIGURE1_SOURCE,
    TABLE1_EXPECTED,
    figure1_analyzed,
)
from .multi import (
    MultiFunctionWorkload,
    edit_call_chain_function,
    generate_call_chain_workload,
    generate_multi_function_workload,
)

__all__ = [
    "EXPECTED_BASIC_BLOCKS",
    "EXPECTED_TOTAL_PATHS",
    "FIGURE1_SOURCE",
    "MultiFunctionWorkload",
    "TABLE1_EXPECTED",
    "edit_call_chain_function",
    "figure1_analyzed",
    "generate_call_chain_workload",
    "generate_multi_function_workload",
]
