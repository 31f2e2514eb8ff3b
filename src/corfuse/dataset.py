"""CSV wire format: the writers and readers of corfuse's CSV files.

Event files have the header

    time_s,kind,sensor_id,d0,d1,d2,d3,d4,d5,d6,d7,d8

where ``kind`` is ``imu`` (d0-d2 specific force, d3-d5 angular rate,
d6-d8 empty) or ``odom`` (d0-d2 position, d3-d5 quaternion x/y/z with a
non-negative scalar part reconstructed on read, d6-d8 velocity).

Truth files carry the full nominal state per grid time:

    time_s,px,py,pz,qw,qx,qy,qz,vx,vy,vz

``estimates.csv`` adds the error covariance diagonal c0-c8 to those columns.

Every file is written ``CHUNK`` rows at a time, each chunk formatted by one
``%`` template of ``%r`` cells over Python floats: CRLF line ends and
floats in shortest round-trip form (``repr``), the bytes the ``csv``
module's default writer gives, so write/read is exact for every stored
field.  :func:`write_table` writes rows of floats (truth and estimates);
:func:`write_events` an event stream, each kind's vectors stacked and each
sensor id quoted once, as ``csv`` quotes it.

:func:`read_chunks` splits a file with ``csv.reader``, checks its header
and each row's field count, and hands the rows on ``CHUNK`` at a time.
:func:`ingest_dataset` and :func:`read_truth` convert a chunk's numeric
cells in bulk, exactly as ``float()`` reads each, so they accept the same
number spellings, and run their checks over the chunk as array passes.
They report the first problem in file order, with the message and row
number a row-by-row reading gives.  Neither side holds a whole file as
text or as cells.
"""
from __future__ import annotations

import csv
import functools
import io
import logging
import math
from itertools import chain, compress, islice
from pathlib import Path
from typing import Callable, Iterable, Iterator, Union

import numpy as np

from .errors import DataError
from .eskf import TIME_TOLERANCE, Event, ImuSample, OdometrySample
from .sim import TruthTrajectory

log = logging.getLogger(__name__)

EVENT_HEADER = ["time_s", "kind", "sensor_id",
                "d0", "d1", "d2", "d3", "d4", "d5", "d6", "d7", "d8"]
TRUTH_HEADER = ["time_s", "px", "py", "pz", "qw", "qx", "qy", "qz", "vx", "vy", "vz"]
ESTIMATE_HEADER = TRUTH_HEADER + [f"c{i}" for i in range(9)]
# Rows formatted, or read, per pass.  A chunk's cells and text live while it
# is handled; chunks of 1,000 rows raised a 60 s replay's peak memory by
# about 1 MB, and 128 rows run as fast.
CHUNK = 128


def _cells(count: int) -> str:
    return ",".join(["%r"] * count)


_IMU_ROW = f"%r,imu,imu,{_cells(6)},,,\r\n"


@functools.lru_cache(maxsize=256)
def _odom_row(sensor_id: str) -> str:
    """The template of one sensor's odometry rows, its id quoted as ``csv`` quotes it."""
    text = io.StringIO()
    csv.writer(text).writerow([sensor_id, ""])
    quoted = text.getvalue()[:-len(",\r\n")].replace("%", "%%")
    return f"%r,odom,{quoted},{_cells(9)}\r\n"


def _write(path: Union[str, Path], header: list[str], items: Iterable,
           text: Callable[[list], str]) -> None:
    """Write ``header``, then ``text`` of each run of ``CHUNK`` items."""
    items = iter(items)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        while chunk := list(islice(items, CHUNK)):
            fh.write(text(chunk))


def write_table(path: Union[str, Path], header: list[str],
                rows: Iterable[list[float]]) -> None:
    """Write ``header`` then ``rows``, each a list of Python floats."""
    row = f"{_cells(len(header))}\r\n"
    _write(path, header, rows, lambda block: row * len(block) % tuple(chain.from_iterable(block)))


def _event_text(chunk: list[Event]) -> str:
    """The rows of ``chunk``, in order: each kind's vectors stacked, one template a row."""
    flags = [isinstance(event, ImuSample) for event in chunk]
    is_imu = np.array(flags, dtype=bool)
    imu = list(compress(chunk, flags))
    odom = [event for event, flag in zip(chunk, flags) if not flag]
    for event in odom:
        if not isinstance(event, OdometrySample):
            raise TypeError(f"unsupported event type {type(event)!r}")
    # An IMU row fills the time and six cells, an odometry row all ten.
    table = np.empty((len(chunk), 10))
    table[:, 0] = [event.time for event in chunk]
    if imu:
        table[is_imu, 1:4] = [event.accel for event in imu]
        table[is_imu, 4:7] = [event.gyro for event in imu]
    if odom:
        quats = np.array([event.orientation for event in odom], dtype=float)
        flip = quats[:, 0] < 0.0
        quats[flip] = -quats[flip]
        table[~is_imu, 1:4] = [event.position for event in odom]
        table[~is_imu, 4:7] = quats[:, 1:]
        table[~is_imu, 7:10] = [event.velocity for event in odom]
    used = np.ones(table.shape, dtype=bool)
    used[is_imu, 7:] = False
    templates = iter([_odom_row(event.sensor_id) for event in odom])
    text = "".join([_IMU_ROW if flag else next(templates) for flag in flags])
    return text % tuple(table[used].tolist())


def write_events(path: Union[str, Path], events: Iterable[Event]) -> None:
    """Write an event stream; quaternions are sign-normalized to qw >= 0."""
    _write(path, EVENT_HEADER, events, _event_text)


def write_truth(path: Union[str, Path], truth: TruthTrajectory) -> None:
    columns = np.column_stack([truth.times, truth.positions, truth.orientations,
                               truth.velocities])
    write_table(path, TRUTH_HEADER, map(np.ndarray.tolist, columns))


def read_chunks(path: Union[str, Path], header: list[str]
                ) -> Iterator[tuple[list[int], np.ndarray]]:
    """Yield the row numbers and cells (a 2-D object array of str) of the
    non-blank rows after ``header``, up to ``CHUNK`` rows at a time.

    DataError for a missing file, another header or a row of another
    length; the rows ahead of such a row are yielded first.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"file not found: {path}")
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        first = next(reader, None)
        if first is None or [h.strip() for h in first] != header:
            raise DataError(f"{path} does not start with the header {','.join(header)}")
        nums: list[int] = []
        rows: list[list[str]] = []
        for row_num, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                if rows:
                    yield nums, np.array(rows, dtype=object)
                raise DataError(f"row {row_num} of {path} has {len(row)} fields, "
                                f"expected {len(header)}")
            nums.append(row_num)
            rows.append(row)
            if len(rows) == CHUNK:
                yield nums, np.array(rows, dtype=object)
                nums, rows = [], []
        if rows:
            yield nums, np.array(rows, dtype=object)


def _floats(cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``cells`` read as ``float()`` reads each, and the mask of those it refuses (NaN)."""
    try:
        return cells.astype(float), np.zeros(cells.shape, dtype=bool)
    except ValueError:
        bad = np.vectorize(lambda cell: _malformed(cell) is not None, otypes=[bool])(cells)
        return np.where(bad, "nan", cells).astype(float), bad


def _malformed(cell: str) -> Union[str, None]:
    """``float()``'s complaint about ``cell``, or None if it reads it."""
    try:
        float(cell)
    except ValueError as exc:
        return str(exc)
    return None


def _malformed_row(row_num: int, cells: np.ndarray) -> str:
    """The message for the first cell of a row that ``float()`` refuses."""
    complaint = next(filter(None, map(_malformed, cells)))
    return f"malformed numeric field on row {row_num}: {complaint}"


def _raise_first(checks: list[tuple[np.ndarray, Callable[[int], str]]]) -> None:
    """DataError for the first row any check flags, from the first check flagging it.

    ``checks`` pairs a mask over a chunk's rows with the message for a row
    index, in the order a row is checked.  A check need only be right on
    rows that pass the checks ahead of it.
    """
    flags = np.array([mask for mask, _ in checks])
    failing = flags.any(axis=0)
    if failing.any():
        row = int(failing.argmax())
        raise DataError(checks[int(flags[:, row].argmax())][1](row))


def ingest_dataset(path: Union[str, Path]) -> list[Event]:
    """Read an event stream, validating schema and time ordering.

    Raises DataError for what :func:`read_chunks` refuses, malformed numbers,
    non-finite timestamps, or timestamps that run backwards by more than
    the 1 ms tolerance.  Non-finite data fields are read as they are: the
    engine drops such samples and counts them.  An empty body yields an
    empty stream with a warning.
    """
    events: list[Event] = []
    last_time = -math.inf
    for nums, cells in read_chunks(path, EVENT_HEADER):
        times, bad_time = _floats(cells[:, 0])
        kinds = cells[:, 1]
        is_imu, is_odom = kinds == "imu", kinds == "odom"
        imu, bad_imu = _floats(cells[is_imu, 3:9])
        odom, bad_odom = _floats(cells[is_odom, 3:12])
        bad_data = np.zeros(len(cells), dtype=bool)
        bad_data[is_imu] = bad_imu.any(axis=1)
        bad_data[is_odom] = bad_odom.any(axis=1)
        xyz = odom[:, 3:6]
        # xyz @ xyz row by row, through the same dot; a sum of squares can
        # differ from it in the last bit.
        norm2 = np.matmul(xyz[:, None, :], xyz[:, :, None])[:, 0, 0]
        bad_quat = np.zeros(len(cells), dtype=bool)
        bad_quat[is_odom] = norm2 > 1.0 + 1e-6
        # The latest time ahead of each row.  Of two equal times max() keeps
        # the first and np.maximum the second, so the message, which shows the
        # sign of a zero, takes max().
        latest = np.maximum.accumulate(np.concatenate([[last_time], times[:-1]]))
        time_list = times.tolist()
        _raise_first([
            (bad_time, lambda i: _malformed_row(nums[i], cells[i, :1])),
            (~np.isfinite(times), lambda i: f"non-finite timestamp on row {nums[i]}: "
                                            f"{time_list[i]}"),
            (times < latest - TIME_TOLERANCE,
             lambda i: f"timestamps run backwards at row {nums[i]}: {time_list[i]} "
                       f"after {max([last_time, *time_list[:i]])}"),
            (~(is_imu | is_odom), lambda i: f"unknown event kind '{kinds[i]}' on row {nums[i]}"),
            (bad_data, lambda i: _malformed_row(nums[i], cells[i, 3:9 if is_imu[i] else 12])),
            (bad_quat, lambda i: f"quaternion vector part exceeds unit norm on row {nums[i]}"),
        ])
        last_time = max([last_time, *time_list])
        # math.sqrt(max(0.0, 1.0 - norm2)): fmax, unlike maximum, reads a NaN as 0.
        quats = np.column_stack([np.sqrt(np.fmax(1.0 - norm2, 0.0)), xyz])
        imu_events = map(ImuSample, imu[:, 0:3], imu[:, 3:6], times[is_imu].tolist())
        odom_events = map(OdometrySample, cells[is_odom, 2].tolist(), odom[:, 0:3], quats,
                          odom[:, 6:9], times[is_odom].tolist())
        events.extend([next(imu_events) if flag else next(odom_events)
                       for flag in is_imu.tolist()])
    if not events:
        log.warning("dataset %s contains no events", path)
    return events


def read_truth(path: Union[str, Path]) -> TruthTrajectory:
    """Read a truth file: two or more rows of finite values, times strictly rising."""
    blocks: list[np.ndarray] = []
    last_time = -math.inf
    for nums, cells in read_chunks(path, TRUTH_HEADER):
        table, bad = _floats(cells)
        earlier = np.concatenate([[last_time], table[:-1, 0]]).tolist()
        times = table[:, 0].tolist()
        _raise_first([
            (bad.any(axis=1), lambda i: _malformed_row(nums[i], cells[i])),
            (~np.isfinite(table).all(axis=1),
             lambda i: f"non-finite value on truth row {nums[i]}"),
            (~(table[:, 0] > earlier),
             lambda i: f"truth time {times[i]} on row {nums[i]} does not follow "
                       f"{earlier[i]}; truth times must strictly increase"),
        ])
        last_time = times[-1]
        blocks.append(table)
    n = sum(map(len, blocks))
    if n < 2:
        raise DataError(f"truth file {path} has {n} data rows, at least two are needed")
    table = np.concatenate(blocks)
    return TruthTrajectory(
        times=table[:, 0], positions=table[:, 1:4], velocities=table[:, 8:11],
        orientations=table[:, 4:8], accel_body=np.zeros((n - 1, 3)),
        gyro_body=np.zeros((n - 1, 3)))
