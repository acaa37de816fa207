"""Measurement runs: execute test vectors and extract per-segment timings.

This is the "runtime measurements performed on the target host" part of the
paper's flow.  Every test vector runs on the simulated evaluation board; the
instrumentation points of the plan read the cycle counter when their trigger
block is entered (the run's ``stamps``), and a segment's ENTRY reading is
paired with the nearest later EXIT reading of the same segment.  The cycle
differences go into the
:class:`~repro.measurement.database.MeasurementDatabase` together with the
concrete path that was executed inside the segment.

A run's segment times depend only on its block trace, its stamps and its
final cycle count (which the end-of-function exit points read), not on the
vector that drove it.  :meth:`MeasurementRunner.run_vectors` therefore still
runs every vector on the board, but pairs the readings once per distinct run,
in one backward pass over the trace, and stores each distinct observation
once with the number of times it occurred.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..cfg.graph import ControlFlowGraph
from ..hw.board import EvaluationBoard
from ..hw.interpreter import RunResult
from ..resilience import InjectedFault
from ..partition.instrument import InstrumentationPlan, InstrumentationPoint, PointKind
from ..partition.segment import PartitionResult
from .database import MeasurementDatabase, PathKey, SegmentMeasurement

#: one observed segment execution: (segment id, path inside it, cycles)
Observation = tuple[int, PathKey, int]


def _backward(points: list[InstrumentationPoint]) -> list[tuple[bool, int]]:
    """``(is ENTRY, segment id)`` of *points* by descending point id: readings
    at one trace position are ordered by point id."""
    return [
        (point.kind is PointKind.ENTRY, point.segment_id)
        for point in sorted(points, key=lambda point: point.point_id, reverse=True)
    ]


@dataclass
class MeasurementCampaign:
    """Summary of one batch of measurement runs."""

    runs: int = 0
    measurements: int = 0
    end_to_end_max: int = 0
    end_to_end_worst_inputs: dict[str, int] = field(default_factory=dict)
    #: vectors whose run died on an injected fault (their observations are
    #: lost; the analyzer floors the bound at static estimates in response)
    faulted_runs: int = 0
    #: diagnostics of the injected faults that cost vectors
    fault_events: list[str] = field(default_factory=list)


class MeasurementRunner:
    """Drives measurement runs and fills the measurement database."""

    def __init__(
        self,
        board: EvaluationBoard,
        function_name: str,
        partition: PartitionResult,
        plan: InstrumentationPlan,
        cfg: ControlFlowGraph,
    ):
        self._board = board
        self._function = function_name
        self._partition = partition
        self._plan = plan
        self._cfg = cfg
        #: (is ENTRY, segment) of the points each block entry fires, and of
        #: the end-of-function points, in the order a backward pass meets them
        self._triggers = {
            block_id: _backward(points) for block_id, points in plan.triggers.items()
        }
        self._end_points = _backward(plan.end_of_function_points)
        self._inside = {
            segment.segment_id: segment.block_ids for segment in partition.segments
        }

    # ------------------------------------------------------------------ #
    def run_vectors(
        self,
        vectors: list[dict[str, int]],
        database: MeasurementDatabase,
    ) -> MeasurementCampaign:
        """Run every test vector and record all segment measurements.

        Each vector runs on the board once.  Runs with the same trace, stamps
        and final cycle count share one :meth:`segment_times` pass, and each
        distinct observation is added to *database* once, with its count and
        the first vector that produced it, in order of first occurrence; so
        the database ends up exactly as if every observation of every run
        had been added on its own.

        A run that dies on an injected fault loses that vector's
        observations but never the campaign: the loss is counted
        (``faulted_runs``) and the analyzer compensates by flooring every
        segment at its static pessimisation, so a fault can only ever
        *raise* the reported bound.
        """
        campaign = MeasurementCampaign()
        #: (trace, stamps, total cycles) of each distinct run -> its observations
        times: dict[tuple, tuple[Observation, ...]] = {}
        #: observation -> [times it occurred, first vector that produced it]
        counted: dict[Observation, list] = {}
        for vector in vectors:
            try:
                run = self._board.run(self._function, vector)
            except InjectedFault as fault:
                campaign.faulted_runs += 1
                campaign.fault_events.append(
                    f"measurement run lost to injected fault: {fault}"
                )
                continue
            key = (run.trace, run.stamps, run.total_cycles)
            observations = times.get(key)
            if observations is None:
                observations = times[key] = self.segment_times(run)
            for observation in observations:
                tally = counted.get(observation)
                if tally is None:
                    counted[observation] = [1, vector]
                else:
                    tally[0] += 1
            campaign.runs += 1
            campaign.measurements += len(observations)
            if run.total_cycles > campaign.end_to_end_max:
                campaign.end_to_end_max = run.total_cycles
                campaign.end_to_end_worst_inputs = dict(vector)
        for (segment_id, path, cycles), (count, vector) in counted.items():
            database.add(SegmentMeasurement(segment_id, path, cycles, vector), count)
        return campaign

    # ------------------------------------------------------------------ #
    def segment_times(self, run: RunResult) -> tuple[Observation, ...]:
        """The ``(segment, path, cycles)`` observations of one run.

        Every ENTRY reading (a trace position where the segment's entry block
        is entered) pairs with the nearest later EXIT reading of its segment;
        readings at one trace position are ordered by point id, and the
        end-of-function points read the final cycle count after the last
        position.  The path is the run's blocks inside the segment from the
        entry up to (not including) the exit.  One backward pass finds every
        pair; observations come in the order of their ENTRY readings.  An
        entry with no later exit is not an observation.
        """
        trace, stamps = run.trace, run.stamps
        triggers, inside = self._triggers, self._inside
        # segment -> (trace position, cycles) of its nearest later EXIT
        later_exit: dict[int, tuple[int, int]] = {}
        found: list[Observation] = []
        end = len(trace)
        for index in range(end, -1, -1):
            if index == end:
                points, cycles = self._end_points, run.total_cycles
            else:
                points = triggers.get(trace[index])
                if points is None:
                    continue
                cycles = stamps[index]
            for is_entry, segment_id in points:
                if not is_entry:
                    later_exit[segment_id] = (index, cycles)
                    continue
                exit_reading = later_exit.get(segment_id)
                if exit_reading is None:
                    continue
                stop, exit_cycles = exit_reading
                blocks = inside[segment_id]
                found.append((
                    segment_id,
                    tuple(block for block in trace[index:stop] if block in blocks),
                    exit_cycles - cycles,
                ))
        found.reverse()
        return tuple(found)

    # ------------------------------------------------------------------ #
    def coverage(self, database: MeasurementDatabase) -> dict[int, tuple[int, int]]:
        """Per-segment (observed paths, required paths) coverage summary."""
        report: dict[int, tuple[int, int]] = {}
        for segment in self._partition.segments:
            observed = len(database.observed_paths(segment.segment_id))
            report[segment.segment_id] = (observed, segment.path_count)
        return report

    def fully_covered(self, database: MeasurementDatabase) -> bool:
        """True when every segment has at least as many observed paths as required."""
        return all(
            observed >= required
            for observed, required in self.coverage(database).values()
        )
