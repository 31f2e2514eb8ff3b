"""CSV wire format: the one writer and the one reader of corfuse's CSV files.

Event files have the header

    time_s,kind,sensor_id,d0,d1,d2,d3,d4,d5,d6,d7,d8

where ``kind`` is ``imu`` (d0-d2 specific force, d3-d5 angular rate,
d6-d8 empty) or ``odom`` (d0-d2 position, d3-d5 quaternion x/y/z with a
non-negative scalar part reconstructed on read, d6-d8 velocity).

Truth files carry the full nominal state per grid time:

    time_s,px,py,pz,qw,qx,qy,qz,vx,vy,vz

``estimates.csv`` adds the error covariance diagonal c0-c8 to those columns.
:func:`write_rows` writes all three files with CRLF line ends and floats in
shortest round-trip form, so write/read is exact for every stored field.
:func:`read_rows` checks a file's header and each row's field count.
"""
from __future__ import annotations

import csv
import logging
import math
from pathlib import Path
from typing import Iterable, Iterator, Union

import numpy as np

from .errors import DataError
from .eskf import TIME_TOLERANCE, Event, ImuSample, OdometrySample
from .sim import TruthTrajectory

log = logging.getLogger(__name__)

EVENT_HEADER = ["time_s", "kind", "sensor_id",
                "d0", "d1", "d2", "d3", "d4", "d5", "d6", "d7", "d8"]
TRUTH_HEADER = ["time_s", "px", "py", "pz", "qw", "qx", "qy", "qz", "vx", "vy", "vz"]
ESTIMATE_HEADER = TRUTH_HEADER + [f"c{i}" for i in range(9)]


def write_rows(path: Union[str, Path], header: list[str], rows: Iterable[Iterable]) -> None:
    """Write ``header`` then ``rows``; a float cell is written as its repr."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def read_rows(path: Union[str, Path], header: list[str]) -> Iterator[tuple[int, list[str]]]:
    """Yield the row number and fields of each non-blank row after ``header``.

    DataError for a missing file, another header or a row of another length.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"file not found: {path}")
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        first = next(reader, None)
        if first is None or [h.strip() for h in first] != header:
            raise DataError(f"{path} does not start with the header {','.join(header)}")
        for row_num, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise DataError(f"row {row_num} of {path} has {len(row)} fields, "
                                f"expected {len(header)}")
            yield row_num, row


def _floats(values) -> list[float]:
    return np.asarray(values, dtype=float).tolist()


def _event_row(event: Event) -> list:
    if isinstance(event, ImuSample):
        return [float(event.time), "imu", "imu", *_floats(event.accel),
                *_floats(event.gyro), "", "", ""]
    if isinstance(event, OdometrySample):
        q = np.asarray(event.orientation, dtype=float)
        if q[0] < 0.0:
            q = -q
        return [float(event.time), "odom", event.sensor_id, *_floats(event.position),
                *q[1:].tolist(), *_floats(event.velocity)]
    raise TypeError(f"unsupported event type {type(event)!r}")


def write_events(path: Union[str, Path], events: Iterable[Event]) -> None:
    """Write an event stream; quaternions are sign-normalized to qw >= 0."""
    write_rows(path, EVENT_HEADER, map(_event_row, events))


def _parse_floats(cells: list[str], row_num: int) -> list[float]:
    try:
        return [float(c) for c in cells]
    except ValueError as exc:
        raise DataError(f"malformed numeric field on row {row_num}: {exc}") from None


def ingest_dataset(path: Union[str, Path]) -> list[Event]:
    """Read an event stream, validating schema and time ordering.

    Raises DataError for what :func:`read_rows` refuses, malformed numbers,
    non-finite timestamps, or timestamps that run backwards by more than
    the 1 ms tolerance.  Non-finite data fields are read as they are: the
    engine drops such samples and counts them.  An empty body yields an
    empty stream with a warning.
    """
    events: list[Event] = []
    last_time = -math.inf
    for row_num, row in read_rows(path, EVENT_HEADER):
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
    write_rows(path, TRUTH_HEADER, (row.tolist() for row in columns))


def read_truth(path: Union[str, Path]) -> TruthTrajectory:
    """Read a truth file: two or more rows of finite values, times strictly rising."""
    rows: list[list[float]] = []
    for row_num, row in read_rows(path, TRUTH_HEADER):
        vals = _parse_floats(row, row_num)
        if not all(map(math.isfinite, vals)):
            raise DataError(f"non-finite value on truth row {row_num}")
        if rows and not vals[0] > rows[-1][0]:
            raise DataError(f"truth time {vals[0]} on row {row_num} does not follow "
                            f"{rows[-1][0]}; truth times must strictly increase")
        rows.append(vals)
    n = len(rows)
    if n < 2:
        raise DataError(f"truth file {path} has {n} data rows, at least two are needed")
    table = np.array(rows)
    return TruthTrajectory(
        times=table[:, 0], positions=table[:, 1:4], velocities=table[:, 8:11],
        orientations=table[:, 4:8], accel_body=np.zeros((n - 1, 3)),
        gyro_body=np.zeros((n - 1, 3)))
