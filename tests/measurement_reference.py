"""Per-vector segment-time extraction: the test oracle of the measurement runner.

:meth:`~repro.measurement.runner.MeasurementRunner.run_vectors` pairs the
instrumentation readings of each distinct run once and stores each distinct
observation once with its count.  This module keeps the extraction it
replaced as the reference it is compared against: every vector's run becomes
a list of point readings sorted by trace position and point id, every ENTRY
reading is paired with the first later EXIT reading of its segment by a
forward rescan, and every observation goes into the database with its own
``add``.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.hw.interpreter import RunResult
from repro.measurement import (
    MeasurementCampaign,
    MeasurementDatabase,
    MeasurementRunner,
    SegmentMeasurement,
)
from repro.partition.instrument import InstrumentationPoint, PointKind
from repro.resilience import InjectedFault


class PointReading(NamedTuple):
    """One cycle-counter reading at an instrumentation point."""

    point: InstrumentationPoint
    cycles: int
    #: index into the run's ``trace`` at which the point fired
    trace_index: int


def readings(run: RunResult, plan) -> list[PointReading]:
    """The readings of *plan*'s points in one run, by (trace index, point id).

    A point fires whenever its trigger block is entered; the end-of-function
    points fire after the last trace position with the final cycle count.
    """
    found: list[PointReading] = []
    for index, block_id in enumerate(run.trace):
        for point in plan.triggers.get(block_id, ()):
            found.append(PointReading(point, run.stamps[index], index))
    for point in plan.end_of_function_points:
        found.append(PointReading(point, run.total_cycles, len(run.trace)))
    found.sort(key=lambda reading: (reading.trace_index, reading.point.point_id))
    return found


def extract_measurements(
    run: RunResult, plan, partition, inputs: dict[str, int]
) -> list[SegmentMeasurement]:
    """Pair entry/exit readings of one run into per-segment execution times."""
    measurements: list[SegmentMeasurement] = []
    found = readings(run, plan)
    for index, reading in enumerate(found):
        if reading.point.kind is not PointKind.ENTRY:
            continue
        segment_id = reading.point.segment_id
        exit_reading = None
        for candidate in found[index + 1:]:
            if (
                candidate.point.segment_id == segment_id
                and candidate.point.kind is PointKind.EXIT
                and candidate.trace_index >= reading.trace_index
            ):
                exit_reading = candidate
                break
        if exit_reading is None:
            continue
        inside = partition.segment(segment_id).block_ids
        path = tuple(
            block_id
            for block_id in run.trace[reading.trace_index:exit_reading.trace_index]
            if block_id in inside
        )
        measurements.append(
            SegmentMeasurement(
                segment_id, path, exit_reading.cycles - reading.cycles, dict(inputs)
            )
        )
    return measurements


def run_vectors(
    runner: MeasurementRunner,
    vectors: list[dict[str, int]],
    database: MeasurementDatabase,
) -> MeasurementCampaign:
    """The campaign of *runner*, one extraction and one ``add`` per observation."""
    board, function = runner._board, runner._function
    campaign = MeasurementCampaign()
    for vector in vectors:
        try:
            run = board.run(function, vector)
        except InjectedFault as fault:
            campaign.faulted_runs += 1
            campaign.fault_events.append(
                f"measurement run lost to injected fault: {fault}"
            )
            continue
        measurements = extract_measurements(
            run, runner._plan, runner._partition, vector
        )
        for measurement in measurements:
            database.add(measurement)
        campaign.runs += 1
        campaign.measurements += len(measurements)
        if run.total_cycles > campaign.end_to_end_max:
            campaign.end_to_end_max = run.total_cycles
            campaign.end_to_end_worst_inputs = dict(vector)
    return campaign
