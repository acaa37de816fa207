"""Measurement runs: execute test vectors and extract per-segment timings.

This is the "runtime measurements performed on the target host" part of the
paper's flow.  For every test vector the instrumented program runs on the
simulated evaluation board; the resulting instrumentation-point readings are
paired up (a segment's ENTRY reading with the next EXIT reading of the same
segment) and the cycle differences are stored in the
:class:`~repro.measurement.database.MeasurementDatabase` together with the
concrete path that was executed inside the segment.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..cfg.graph import ControlFlowGraph
from ..hw.board import EvaluationBoard, InstrumentedRun
from ..resilience import InjectedFault
from ..partition.instrument import InstrumentationPlan, PointKind
from ..partition.segment import PartitionResult
from .database import MeasurementDatabase, SegmentMeasurement


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
    """Drives instrumented runs and fills the measurement database."""

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

    # ------------------------------------------------------------------ #
    def run_vectors(
        self,
        vectors: list[dict[str, int]],
        database: MeasurementDatabase,
    ) -> MeasurementCampaign:
        """Run every test vector and record all segment measurements.

        A run that dies on an injected fault loses that vector's
        observations but never the campaign: the loss is counted
        (``faulted_runs``) and the analyzer compensates by flooring every
        segment at its static pessimisation, so a fault can only ever
        *raise* the reported bound.
        """
        campaign = MeasurementCampaign()
        for vector in vectors:
            try:
                instrumented = self._board.run_instrumented(
                    self._function, vector, self._plan
                )
            except InjectedFault as fault:
                campaign.faulted_runs += 1
                campaign.fault_events.append(
                    f"measurement run lost to injected fault: {fault}"
                )
                continue
            measurements = self.extract_measurements(instrumented, vector)
            database.extend(measurements)
            campaign.runs += 1
            campaign.measurements += len(measurements)
            if instrumented.run.total_cycles > campaign.end_to_end_max:
                campaign.end_to_end_max = instrumented.run.total_cycles
                campaign.end_to_end_worst_inputs = dict(vector)
        return campaign

    # ------------------------------------------------------------------ #
    def extract_measurements(
        self, instrumented: InstrumentedRun, inputs: dict[str, int]
    ) -> list[SegmentMeasurement]:
        """Pair entry/exit readings into per-segment execution times."""
        measurements: list[SegmentMeasurement] = []
        readings = instrumented.readings
        trace = instrumented.run.trace
        # one copy of the vector, shared by every measurement of this run
        inputs = dict(inputs)
        for index, reading in enumerate(readings):
            if reading.point.kind is not PointKind.ENTRY:
                continue
            segment_id = reading.point.segment_id
            segment = self._partition.segment(segment_id)
            # the matching exit is the first EXIT reading of the same segment
            # at or after this trace position
            exit_reading = None
            for candidate in readings[index + 1 :]:
                if (
                    candidate.point.segment_id == segment_id
                    and candidate.point.kind is PointKind.EXIT
                    and candidate.trace_index >= reading.trace_index
                ):
                    exit_reading = candidate
                    break
            if exit_reading is None:
                continue
            inside = segment.block_ids
            path_blocks = tuple(
                block_id
                for block_id in trace[reading.trace_index : exit_reading.trace_index]
                if block_id in inside
            )
            measurements.append(
                SegmentMeasurement(
                    segment_id=segment_id,
                    path=path_blocks,
                    cycles=exit_reading.cycles - reading.cycles,
                    inputs=inputs,
                )
            )
        return measurements

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
