"""Measurement database: observed execution times per program segment.

Each measurement is the cycle difference between a segment's entry and exit
instrumentation points during one run, keyed by the segment and by the
concrete path taken through the segment (so the tooling can tell whether every
path of a segment has been observed -- that is the coverage goal of the
test-data generator).  The WCET computation consumes the per-segment maxima.
The database keeps only the per-segment statistics and a count of the
observations, not the observations themselves.  An observation that occurred
several times is added once with its count
(``add(measurement, count)``); the statistics are the same as after *count*
single adds.
"""

from __future__ import annotations

from dataclasses import dataclass, field


#: A path through a segment, identified by the executed block-id sequence.
PathKey = tuple[int, ...]


@dataclass
class SegmentMeasurement:
    """One observed execution of a program segment."""

    segment_id: int
    path: PathKey
    cycles: int
    inputs: dict[str, int] = field(default_factory=dict)


@dataclass
class SegmentStatistics:
    """Aggregated observations of one segment."""

    segment_id: int
    observations: int = 0
    max_cycles: int = 0
    min_cycles: int | None = None
    total_cycles: int = 0
    paths: dict[PathKey, int] = field(default_factory=dict)
    worst_inputs: dict[str, int] = field(default_factory=dict)

    @property
    def observed_path_count(self) -> int:
        return len(self.paths)


class MeasurementDatabase:
    """Aggregates segment measurements across runs into per-segment statistics."""

    def __init__(self) -> None:
        #: segment observations added so far
        self._count = 0
        self._stats: dict[int, SegmentStatistics] = {}

    # ------------------------------------------------------------------ #
    def add(self, measurement: SegmentMeasurement, count: int = 1) -> None:
        """Record *measurement* as observed *count* times."""
        self._count += count
        stats = self._stats.setdefault(
            measurement.segment_id, SegmentStatistics(segment_id=measurement.segment_id)
        )
        stats.observations += count
        stats.total_cycles += measurement.cycles * count
        if measurement.cycles > stats.max_cycles:
            stats.max_cycles = measurement.cycles
            stats.worst_inputs = dict(measurement.inputs)
        if stats.min_cycles is None or measurement.cycles < stats.min_cycles:
            stats.min_cycles = measurement.cycles
        best = stats.paths.get(measurement.path, 0)
        stats.paths[measurement.path] = max(best, measurement.cycles)

    # ------------------------------------------------------------------ #
    def statistics(self, segment_id: int) -> SegmentStatistics | None:
        return self._stats.get(segment_id)

    def max_cycles(self, segment_id: int) -> int | None:
        """Worst observed execution time of a segment (``None`` if unmeasured)."""
        stats = self._stats.get(segment_id)
        return stats.max_cycles if stats is not None else None

    def observed_paths(self, segment_id: int) -> set[PathKey]:
        stats = self._stats.get(segment_id)
        return set(stats.paths) if stats is not None else set()

    def unmeasured_segments(self, segment_ids: list[int]) -> list[int]:
        return [sid for sid in segment_ids if sid not in self._stats]

    def __len__(self) -> int:
        """Number of segment observations added (not of board runs)."""
        return self._count
