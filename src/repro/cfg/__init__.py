"""Control-flow-graph substrate: blocks, builder, paths, natural loops, DOT export."""

from __future__ import annotations

from .builder import CfgBuilder, build_cfg
from .dominators import natural_loops
from .dot import to_dot
from .graph import (
    BasicBlock,
    BlockKind,
    CfgError,
    ControlFlowGraph,
    Edge,
    EdgeKind,
    Terminator,
    TerminatorKind,
)
from .paths import (
    DEFAULT_LOOP_BOUND,
    PATH_COUNT_CAP,
    CfgPath,
    CfgPathCounter,
    PathCountError,
    count_ast_paths,
    count_cfg_paths,
    enumerate_paths,
)

__all__ = [
    "CfgBuilder",
    "build_cfg",
    "natural_loops",
    "to_dot",
    "BasicBlock",
    "BlockKind",
    "CfgError",
    "ControlFlowGraph",
    "Edge",
    "EdgeKind",
    "Terminator",
    "TerminatorKind",
    "DEFAULT_LOOP_BOUND",
    "PATH_COUNT_CAP",
    "CfgPath",
    "CfgPathCounter",
    "PathCountError",
    "count_ast_paths",
    "count_cfg_paths",
    "enumerate_paths",
]
