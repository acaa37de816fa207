"""Program segments -- the measurement units of the paper.

Section 2.1 of the paper:

    "A PS is a subgraph of the CFG that can be entered only via the
    transition of a single control edge, multiple exit edges are possible.
    A structured program segment (SPS) is a PS that has only a single exit
    edge."

A :class:`ProgramSegment` is such a subgraph plus the bookkeeping the rest of
the tool chain needs: its internal path count (how many measurements it
costs), its entry block and exit edges (where instrumentation points go), and
the AST region it corresponds to (how the timing schema recombines it).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from ..cfg.graph import ControlFlowGraph, Edge
from ..minic.ast_nodes import Node


class SegmentKind(enum.Enum):
    """How a segment was formed by the partitioner."""

    #: A single basic block measured on its own (the smallest unit of PSs).
    BASIC_BLOCK = "basic-block"
    #: A branch alternative (then/else branch, case body, loop body) measured
    #: as a whole because its path count is within the bound.
    REGION = "region"
    #: The entire function measured end to end.
    WHOLE_FUNCTION = "whole-function"
    #: A straight-line run of blocks fused by the generalised partitioner.
    STRAIGHT_LINE = "straight-line"


@dataclass
class ProgramSegment:
    """One measurement unit produced by CFG partitioning.

    Attributes
    ----------
    segment_id:
        Dense index assigned by the partitioner (stable within one result).
    kind:
        How the segment was formed.
    block_ids:
        The CFG blocks covered by the segment.
    entry_block:
        The unique block through which control enters the segment.
    path_count:
        Number of execution paths inside the segment == number of
        measurements required to characterise it.
    ast_node:
        The AST statement/region the segment corresponds to (``None`` for
        single basic blocks without a natural AST anchor).
    description:
        Human-readable summary used in reports.
    """

    segment_id: int
    kind: SegmentKind
    block_ids: frozenset[int]
    entry_block: int
    path_count: int
    ast_node: Node | None = None
    description: str = ""

    def __post_init__(self) -> None:
        if self.entry_block not in self.block_ids:
            raise ValueError("entry block must belong to the segment")
        if self.path_count < 1:
            raise ValueError("a segment has at least one path")

    # ------------------------------------------------------------------ #
    def contains_block(self, block_id: int) -> bool:
        return block_id in self.block_ids

    @property
    def is_single_block(self) -> bool:
        return len(self.block_ids) == 1

    def exit_edges(self, cfg: ControlFlowGraph) -> list[Edge]:
        """CFG edges leaving the segment."""
        edges: list[Edge] = []
        for block_id in sorted(self.block_ids):
            for edge in cfg.out_edges(block_id):
                if edge.target not in self.block_ids:
                    edges.append(edge)
        return edges

    def validate(self, cfg: ControlFlowGraph) -> None:
        """Check the PS invariants of Section 2.1 against *cfg*.

        Raises :class:`ValueError` when the subgraph is not a PS, i.e. when a
        block other than the entry block is reachable from outside the
        segment, or when the entry block is reached through more than one
        external edge (a basic block that is a join point is allowed -- it is
        entered via multiple edges but still forms the smallest-granularity
        measurement unit; the check is therefore only enforced for multi-block
        segments, matching the paper's use).
        """
        for block_id in self.block_ids:
            cfg.block(block_id)  # raises for unknown ids
        if len(self.block_ids) == 1:
            return
        for block_id in self.block_ids:
            if block_id == self.entry_block:
                continue
            for edge in cfg.in_edges(block_id):
                if edge.source not in self.block_ids:
                    raise ValueError(
                        f"segment {self.segment_id}: block {block_id} entered "
                        f"from outside the segment (edge {edge.source} -> {edge.target})"
                    )


@dataclass
class PartitionResult:
    """The outcome of partitioning one function with a given path bound.

    ``instrumentation_points`` follows the paper's accounting: two points per
    program segment (one before, one after).  ``measurements`` is the sum of
    the per-segment path counts, i.e. the number of measurement runs needed to
    observe every path of every segment at least once.
    """

    function_name: str
    path_bound: int
    segments: list[ProgramSegment] = field(default_factory=list)
    total_paths: int = 0

    @property
    def instrumentation_points(self) -> int:
        return 2 * len(self.segments)

    @property
    def measurements(self) -> int:
        return sum(segment.path_count for segment in self.segments)

    @property
    def fused_instrumentation_points(self) -> int:
        """Instrumentation points under the paper's "intelligent" scheme.

        Footnote 1 of the paper: when two consecutive instrumentation points
        coincide they can be fused, which brings ``ip`` down to roughly
        ``ip/2 + 1``.
        """
        return self.instrumentation_points // 2 + 1

    # ------------------------------------------------------------------ #
    def segment(self, segment_id: int) -> ProgramSegment:
        for segment in self.segments:
            if segment.segment_id == segment_id:
                return segment
        raise KeyError(f"no segment with id {segment_id}")

    def segment_of_block(self, block_id: int) -> ProgramSegment | None:
        """The segment containing *block_id* (``None`` for virtual blocks)."""
        for segment in self.segments:
            if segment.contains_block(block_id):
                return segment
        return None

    def segments_within(self, block_ids: set[int] | frozenset) -> list[ProgramSegment]:
        """Segments whose every block lies in *block_ids*.

        With the statically-unreachable block set of
        :mod:`repro.sa.feasibility` this yields the segments a sound static
        pass already knows can never execute -- they need no measurement and
        contribute nothing to the timing schema.
        """
        return [
            segment
            for segment in self.segments
            if segment.block_ids <= block_ids
        ]

    def validate(self, cfg: ControlFlowGraph) -> None:
        """Check global partition invariants.

        * every real block belongs to exactly one segment,
        * every segment satisfies the PS invariants,
        * ids are unique.
        """
        seen_ids: set[int] = set()
        block_owner: dict[int, int] = {}
        for segment in self.segments:
            if segment.segment_id in seen_ids:
                raise ValueError(f"duplicate segment id {segment.segment_id}")
            seen_ids.add(segment.segment_id)
            segment.validate(cfg)
            for block_id in segment.block_ids:
                if block_id in block_owner:
                    raise ValueError(
                        f"block {block_id} belongs to segments "
                        f"{block_owner[block_id]} and {segment.segment_id}"
                    )
                block_owner[block_id] = segment.segment_id
        real_ids = {block.block_id for block in cfg.real_blocks()}
        missing = real_ids - set(block_owner)
        if missing:
            raise ValueError(f"blocks not covered by any segment: {sorted(missing)}")
        extra = set(block_owner) - real_ids
        if extra:
            raise ValueError(f"segments cover non-existent/virtual blocks: {sorted(extra)}")

    def summary_row(self) -> dict[str, int]:
        """The (b, ip, m) row as reported in the paper's Table 1."""
        return {
            "bound": self.path_bound,
            "instrumentation_points": self.instrumentation_points,
            "measurements": self.measurements,
            "segments": len(self.segments),
        }
