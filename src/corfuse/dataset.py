"""CSV wire format for event streams and ground truth.

Event files have the header

    time_s,kind,sensor_id,d0,d1,d2,d3,d4,d5,d6,d7,d8

where ``kind`` is ``imu`` (d0-d2 specific force, d3-d5 angular rate,
d6-d8 empty) or ``odom`` (d0-d2 position, d3-d5 quaternion x/y/z with a
non-negative scalar part reconstructed on read, d6-d8 velocity).  Floats
are written with shortest round-trip formatting, so write/read is exact
for every stored field.

Truth files carry the full nominal state per grid time:

    time_s,px,py,pz,qw,qx,qy,qz,vx,vy,vz
"""
from __future__ import annotations

import csv
import logging
import math
from pathlib import Path
from typing import Iterable, Union

import numpy as np

from .errors import DataError
from .eskf import TIME_TOLERANCE, Event, ImuSample, OdometrySample
from .sim import TruthTrajectory

log = logging.getLogger(__name__)

EVENT_HEADER = ["time_s", "kind", "sensor_id",
                "d0", "d1", "d2", "d3", "d4", "d5", "d6", "d7", "d8"]
TRUTH_HEADER = ["time_s", "px", "py", "pz", "qw", "qx", "qy", "qz", "vx", "vy", "vz"]


def _fmt(values) -> list[str]:
    """Shortest round-trip text of each float in ``values``."""
    return [repr(v) for v in np.asarray(values, dtype=float).tolist()]


def write_events(path: Union[str, Path], events: Iterable[Event]) -> None:
    """Write an event stream; quaternions are sign-normalized to qw >= 0."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(EVENT_HEADER)
        for event in events:
            if isinstance(event, ImuSample):
                row = [repr(float(event.time)), "imu", "imu"] + _fmt(event.accel)
                row += _fmt(event.gyro) + ["", "", ""]
            elif isinstance(event, OdometrySample):
                q = np.asarray(event.orientation, dtype=float)
                if q[0] < 0.0:
                    q = -q
                row = [repr(float(event.time)), "odom", event.sensor_id] + _fmt(event.position)
                row += _fmt(q[1:]) + _fmt(event.velocity)
            else:
                raise TypeError(f"unsupported event type {type(event)!r}")
            writer.writerow(row)


def _parse_floats(cells: list[str], row_num: int) -> list[float]:
    try:
        return [float(c) for c in cells]
    except ValueError as exc:
        raise DataError(f"malformed numeric field on row {row_num}: {exc}") from None


def ingest_dataset(path: Union[str, Path]) -> list[Event]:
    """Read an event stream, validating schema and time ordering.

    Raises DataError for a missing file, bad header, malformed rows,
    non-finite timestamps, or timestamps that run backwards by more than
    the 1 ms tolerance.  An empty body yields an empty stream with a
    warning.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"dataset file not found: {path}")
    events: list[Event] = []
    last_time = -math.inf
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"dataset file is empty (no header): {path}") from None
        if [h.strip() for h in header] != EVENT_HEADER:
            raise DataError(f"unexpected header in {path}: {header}")
        for row_num, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(EVENT_HEADER):
                raise DataError(f"row {row_num} has {len(row)} fields, expected "
                                f"{len(EVENT_HEADER)}")
            time = _parse_floats(row[0:1], row_num)[0]
            if not math.isfinite(time):
                raise DataError(f"non-finite timestamp on row {row_num}: {time}")
            if time < last_time - TIME_TOLERANCE:
                raise DataError(
                    f"timestamps run backwards at row {row_num}: {time} after {last_time}")
            last_time = max(last_time, time)
            kind, sensor_id = row[1], row[2]
            if kind == "imu":
                vals = _parse_floats(row[3:9], row_num)
                events.append(ImuSample(accel=np.array(vals[0:3]),
                                        gyro=np.array(vals[3:6]), time=time))
            elif kind == "odom":
                vals = _parse_floats(row[3:12], row_num)
                xyz = np.array(vals[3:6])
                norm2 = float(xyz @ xyz)
                if norm2 > 1.0 + 1e-6:
                    raise DataError(f"quaternion vector part exceeds unit norm "
                                    f"on row {row_num}")
                qw = math.sqrt(max(0.0, 1.0 - norm2))
                events.append(OdometrySample(
                    sensor_id=sensor_id, position=np.array(vals[0:3]),
                    orientation=np.concatenate([[qw], xyz]),
                    velocity=np.array(vals[6:9]), time=time))
            else:
                raise DataError(f"unknown event kind '{kind}' on row {row_num}")
    if not events:
        log.warning("dataset %s contains no events", path)
    return events


def write_truth(path: Union[str, Path], truth: TruthTrajectory) -> None:
    columns = np.column_stack([truth.times, truth.positions, truth.orientations,
                               truth.velocities])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRUTH_HEADER)
        for row in columns:
            writer.writerow(map(repr, row.tolist()))


def read_truth(path: Union[str, Path]) -> TruthTrajectory:
    """Read a truth file; DataError unless it has two or more rows and rising times."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"truth file not found: {path}")
    times, positions, orientations, velocities = [], [], [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != TRUTH_HEADER:
            raise DataError(f"unexpected truth header in {path}")
        for row_num, row in enumerate(reader, start=2):
            if not row:
                continue
            vals = _parse_floats(row, row_num)
            if times and not vals[0] > times[-1]:
                raise DataError(f"truth time {vals[0]} on row {row_num} does not follow "
                                f"{times[-1]}; truth times must strictly increase")
            times.append(vals[0])
            positions.append(vals[1:4])
            orientations.append(vals[4:8])
            velocities.append(vals[8:11])
    n = len(times)
    if n < 2:
        raise DataError(f"truth file {path} has {n} data rows, at least two are needed")
    return TruthTrajectory(
        times=np.array(times), positions=np.array(positions),
        velocities=np.array(velocities), orientations=np.array(orientations),
        accel_body=np.zeros((n - 1, 3)), gyro_body=np.zeros((n - 1, 3)))
