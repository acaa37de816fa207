"""Coverage targets: the paths of every program segment.

"From the static code analysis performed during the control flow partitioning
the paths to be measured are known." (Section 3)  A :class:`PathTarget` is one
such path: the block sequence through one program segment, together with the
CFG edges that realise it (the model-checking generator needs the edges, the
coverage bookkeeping needs the blocks).

:class:`CoverageTracker` matches each run's block ``trace`` against the
targets using the same block-sequence extraction as the measurement
subsystem, so "covered" always means "a measurement for this segment path
exists".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Mapping

from ..cfg.graph import ControlFlowGraph
from ..cfg.paths import enumerate_paths
from ..hw.interpreter import RunResult
from ..partition.segment import PartitionResult, ProgramSegment


@dataclass(frozen=True)
class PathTarget:
    """One path of one program segment that needs a measurement."""

    segment_id: int
    #: block ids inside the segment, in execution order (the coverage key)
    blocks: tuple[int, ...]
    #: CFG edges realising the path: (source, target, kind value), including
    #: the edge that leaves the segment (when one exists)
    edges: tuple[tuple[int, int, str], ...]

    @property
    def key(self) -> tuple[int, tuple[int, ...]]:
        return (self.segment_id, self.blocks)

    def describe(self) -> str:
        return (
            f"segment {self.segment_id}: "
            + " -> ".join(str(b) for b in self.blocks)
        )


def build_targets(
    partition: PartitionResult, cfg: ControlFlowGraph, path_limit: int = 10_000
) -> list[PathTarget]:
    """Enumerate every path of every segment of *partition*."""
    targets: list[PathTarget] = []
    for segment in partition.segments:
        targets.extend(_segment_targets(segment, cfg, path_limit))
    return targets


def _segment_targets(
    segment: ProgramSegment, cfg: ControlFlowGraph, path_limit: int
) -> list[PathTarget]:
    region = set(segment.block_ids)
    targets: list[PathTarget] = []
    seen: set[tuple[int, ...]] = set()
    for path in enumerate_paths(
        cfg, source=segment.entry_block, region=region, limit=path_limit
    ):
        inside = tuple(block for block in path.blocks if block in region)
        if not inside or inside in seen:
            continue
        seen.add(inside)
        edges = tuple(
            (edge.source, edge.target, edge.kind.value) for edge in path.edges
        )
        targets.append(PathTarget(segment_id=segment.segment_id, blocks=inside, edges=edges))
    return targets


@dataclass
class CoverageTracker:
    """Tracks which path targets have been exercised by which test vector."""

    partition: PartitionResult
    cfg: ControlFlowGraph
    targets: list[PathTarget] = field(default_factory=list)
    covered: dict[tuple[int, tuple[int, ...]], dict[str, int]] = field(default_factory=dict)
    #: coverage key -> the first target with that key
    _by_key: dict[tuple[int, tuple[int, ...]], PathTarget] = field(
        init=False, repr=False, compare=False
    )
    #: entry block -> (position in the partition, segment) of the segments it enters
    _by_entry: dict[int, list[tuple[int, ProgramSegment]]] = field(
        init=False, repr=False, compare=False
    )
    #: block traces already recorded
    _seen_traces: set[tuple[int, ...]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._by_key = {}
        for target in self.targets:
            self._by_key.setdefault(target.key, target)
        self._by_entry = {}
        for position, segment in enumerate(self.partition.segments):
            self._by_entry.setdefault(segment.entry_block, []).append((position, segment))
        self._seen_traces = set()

    @classmethod
    def create(cls, partition: PartitionResult, cfg: ControlFlowGraph) -> "CoverageTracker":
        return cls(partition=partition, cfg=cfg, targets=build_targets(partition, cfg))

    # ------------------------------------------------------------------ #
    def record_run(self, run: RunResult) -> list[PathTarget]:
        """Record one executed run; return the targets it covered for the first time."""
        return self.record_trace(run.trace, run.inputs)

    def record_trace(
        self, trace: tuple[int, ...], inputs: Mapping[str, int]
    ) -> list[PathTarget]:
        """Record a run's block trace; return the targets it covered for the first time.

        *inputs* is the run's input vector.  A segment's observed path is
        its first traversal: the blocks from the first entry into the
        segment's entry block up to the first block outside the segment.
        What a trace covers depends on the trace alone and ``covered`` only
        grows, so a trace recorded before covers nothing new and is not
        walked again.
        """
        if trace in self._seen_traces:
            return []
        self._seen_traces.add(trace)
        newly_covered: list[PathTarget] = []
        # walking the trace backwards leaves each block's first index
        first_index = dict(zip(reversed(trace), range(len(trace) - 1, -1, -1)))
        entered = [
            (position, segment, start)
            for block, start in first_index.items()
            for position, segment in self._by_entry.get(block, ())
        ]
        entered.sort(key=itemgetter(0))
        for _, segment, start in entered:
            key = (segment.segment_id, _first_traversal(segment, trace, start))
            if key in self.covered:
                continue
            target = self._by_key.get(key)
            if target is None:
                continue
            self.covered[key] = dict(inputs)
            newly_covered.append(target)
        return newly_covered

    # ------------------------------------------------------------------ #
    def uncovered_targets(self) -> list[PathTarget]:
        return [target for target in self.targets if target.key not in self.covered]

    # ``covered`` holds target keys only, and no two targets share a key
    def coverage_ratio(self) -> float:
        if not self._by_key:
            return 1.0
        return len(self.covered) / len(self._by_key)

    def is_complete(self) -> bool:
        return len(self.covered) == len(self._by_key)

    def covering_vector(self, target: PathTarget) -> dict[str, int] | None:
        return self.covered.get(target.key)


def _first_traversal(
    segment: ProgramSegment, trace: tuple[int, ...], start: int
) -> tuple[int, ...]:
    """The blocks of *segment* from ``trace[start]`` to the first block outside it."""
    inside = segment.block_ids
    end = start + 1
    while end < len(trace) and trace[end] in inside:
        end += 1
    return trace[start:end]
