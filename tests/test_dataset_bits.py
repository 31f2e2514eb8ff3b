"""The CSV writers and readers against the row-by-row ``csv`` forms, byte for byte.

The writers format chunks of rows through ``%r`` templates and the readers
convert a chunk's cells in bulk and check them as array passes.  Each must
give what the row-by-row forms copied below give: the same file bytes, the
same events and tables bit for bit, and the same ``DataError`` message,
row number included, for every file those refuse.
"""

import csv
import math
from pathlib import Path

import numpy as np
import pytest

from corfuse import dataset as dataset_io
from corfuse.errors import DataError
from corfuse.eskf import TIME_TOLERANCE, ImuSample, OdometrySample
from corfuse.experiments import RunConfig, build_scenario, run_experiment
from corfuse.sim import TruthTrajectory, generate_truth, sample_sensors

EVENT_HEADER = dataset_io.EVENT_HEADER
TRUTH_HEADER = dataset_io.TRUTH_HEADER
SPECIALS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 1e-300, 5e-324, 2.5e-310, 1e22,
            1.0 / 3.0, -1e100, 0.1]


# ---------------------------------------------------------------------------
# references: the row-by-row csv writers and readers the array passes replace


def ref_write_rows(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def ref_read_rows(path, header):
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


def _floats(values):
    return np.asarray(values, dtype=float).tolist()


def ref_event_row(event):
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


def ref_write_events(path, events):
    ref_write_rows(path, EVENT_HEADER, map(ref_event_row, events))


def ref_write_truth(path, truth):
    columns = np.column_stack([truth.times, truth.positions, truth.orientations,
                               truth.velocities])
    ref_write_rows(path, TRUTH_HEADER, (row.tolist() for row in columns))


def ref_parse_floats(cells, row_num):
    try:
        return [float(c) for c in cells]
    except ValueError as exc:
        raise DataError(f"malformed numeric field on row {row_num}: {exc}") from None


def ref_ingest_dataset(path):
    events = []
    last_time = -math.inf
    for row_num, row in ref_read_rows(path, EVENT_HEADER):
        time = ref_parse_floats(row[0:1], row_num)[0]
        if not math.isfinite(time):
            raise DataError(f"non-finite timestamp on row {row_num}: {time}")
        if time < last_time - TIME_TOLERANCE:
            raise DataError(
                f"timestamps run backwards at row {row_num}: {time} after {last_time}")
        last_time = max(last_time, time)
        kind, sensor_id = row[1], row[2]
        if kind == "imu":
            vals = ref_parse_floats(row[3:9], row_num)
            events.append(ImuSample(accel=np.array(vals[0:3]),
                                    gyro=np.array(vals[3:6]), time=time))
        elif kind == "odom":
            vals = ref_parse_floats(row[3:12], row_num)
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
    return events


def ref_read_truth(path):
    rows = []
    for row_num, row in ref_read_rows(path, TRUTH_HEADER):
        vals = ref_parse_floats(row, row_num)
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


# ---------------------------------------------------------------------------
# helpers


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_same_events(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert type(g) is type(w)
        assert type(g.time) is float and same_bits(g.time, w.time)
        if isinstance(w, ImuSample):
            assert same_bits(g.accel, w.accel) and same_bits(g.gyro, w.gyro)
        else:
            assert g.sensor_id == w.sensor_id
            for name in ("position", "orientation", "velocity"):
                assert same_bits(getattr(g, name), getattr(w, name)), name


def outcome(reader, path):
    """What ``reader`` makes of ``path``: ("ok", value) or ("error", its DataError's text)."""
    try:
        return "ok", reader(path)
    except DataError as exc:
        return "error", str(exc)


def assert_reads_alike(path, reader, ref_reader, compare):
    got, want = outcome(reader, path), outcome(ref_reader, path)
    assert got[0] == want[0], (got, want)
    if want[0] == "error":
        assert got[1] == want[1]
    else:
        compare(got[1], want[1])
    return want


def assert_same_truth(got, want):
    for name in ("times", "positions", "velocities", "orientations", "accel_body",
                 "gyro_body"):
        assert same_bits(getattr(got, name), getattr(want, name)), name


def ingest_alike(path):
    return assert_reads_alike(path, dataset_io.ingest_dataset, ref_ingest_dataset,
                              assert_same_events)


def truth_alike(path):
    return assert_reads_alike(path, dataset_io.read_truth, ref_read_truth, assert_same_truth)


def imu(time, values):
    return ImuSample(accel=np.array(values[0:3]), gyro=np.array(values[3:6]), time=time)


def odom(sensor_id, time, position, quat, velocity):
    return OdometrySample(sensor_id, np.array(position), np.array(quat),
                          np.array(velocity), time)


def write_both(tmp_path, writer, ref_writer, data):
    writer(tmp_path / "got.csv", data)
    ref_writer(tmp_path / "want.csv", data)
    got = (tmp_path / "got.csv").read_bytes()
    assert got == (tmp_path / "want.csv").read_bytes()
    return got


def simulated(duration, **settings):
    config = RunConfig(scenario="figure8", duration=duration, seed=5, **settings)
    truth = generate_truth(build_scenario(config))
    return truth, sample_sensors(truth, build_scenario(config))


EVENT_ROWS = "\r\n".join([",".join(EVENT_HEADER),
                          "0.01,imu,imu,0.1,0.2,0.3,0.4,0.5,0.6,,,",
                          "0.02,imu,imu,0.1,0.2,0.3,0.4,0.5,0.6,,,",
                          "0.1,odom,odom0,1,2,3,0.5,0.5,0.5,0.1,0.2,0.3",
                          "0.1,imu,imu,0.1,0.2,0.3,0.4,0.5,0.6,,,"]) + "\r\n"


def event_file(tmp_path, text, name="events.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


# ---------------------------------------------------------------------------
# writers


def test_event_writer_bytes_on_special_values_and_quoted_ids(tmp_path):
    events = []
    for k, value in enumerate(SPECIALS):
        others = SPECIALS[k + 1:] + SPECIALS[:k + 1]
        events.append(imu(float(k), [value] + others[:5]))
        events.append(odom("odom0", value, [value, 1.0, -0.0], [0.5, 0.5, -0.5, value],
                           others[:3]))
    for k, sensor_id in enumerate(["a,b", 'say "hi"', "100%", "%r%s%%", "", " lead", "tab\t",
                                   "line\nbreak", "cr\r", "semi;colon", "ünï"]):
        for qw in (-0.5, -0.0, 0.0, 0.5, math.nan, -math.inf):
            events.append(odom(sensor_id, 0.5 + k, [1.0, 2.0, 3.0], [qw, -0.5, 0.5, -0.0],
                               [-0.0, 1e22, 5e-324]))
    events.append(imu(7, [1, 2, 3, 4, 5, 6]))  # int time and vectors are written as floats
    text = write_both(tmp_path, dataset_io.write_events, ref_write_events, events)
    assert b'"a,b"' in text and b'"say ""hi"""' in text and b",100%," in text


def test_event_writer_bytes_on_an_empty_stream_a_generator_and_a_long_stream(tmp_path):
    assert write_both(tmp_path, dataset_io.write_events, ref_write_events, []) == (
        b"time_s,kind,sensor_id,d0,d1,d2,d3,d4,d5,d6,d7,d8\r\n")
    _, events = simulated(20.0, jump_probability=0.2, jump_magnitude=30.0, sensors=3)
    assert len(events) > 2 * dataset_io.CHUNK
    dataset_io.write_events(tmp_path / "gen.csv", (event for event in events))
    ref_write_events(tmp_path / "ref.csv", events)
    assert (tmp_path / "gen.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    # A chunk of only odometry and one of only IMU samples.
    odom_only = [e for e in events if isinstance(e, OdometrySample)]
    imu_only = [e for e in events if isinstance(e, ImuSample)]
    write_both(tmp_path, dataset_io.write_events, ref_write_events, odom_only)
    write_both(tmp_path, dataset_io.write_events, ref_write_events, imu_only)


def test_event_writer_refuses_an_unknown_event_type(tmp_path):
    with pytest.raises(TypeError, match="unsupported event type"):
        dataset_io.write_events(tmp_path / "x.csv", [imu(0.0, [0.0] * 6), object()])


def test_table_writers_bytes_on_special_values_and_long_tables(tmp_path):
    values = np.array(SPECIALS * 11).reshape(-1, 11)
    truth = TruthTrajectory(times=values[:, 0], positions=values[:, 1:4],
                            velocities=values[:, 8:11], orientations=values[:, 4:8],
                            accel_body=np.zeros((len(values) - 1, 3)),
                            gyro_body=np.zeros((len(values) - 1, 3)))
    write_both(tmp_path, dataset_io.write_truth, ref_write_truth, truth)
    long_truth, _ = simulated(25.0)
    assert len(long_truth.times) > 2 * dataset_io.CHUNK
    write_both(tmp_path, dataset_io.write_truth, ref_write_truth, long_truth)
    table = np.random.default_rng(3).standard_normal((dataset_io.CHUNK + 7, 20)) * 1e5
    table[5] = SPECIALS[:10] * 2
    for header, rows in ((dataset_io.ESTIMATE_HEADER, table.tolist()), (TRUTH_HEADER, [])):
        write_both(tmp_path, lambda p, r: dataset_io.write_table(p, header, iter(r)),
                   lambda p, r: ref_write_rows(p, header, r), rows)


def test_estimates_file_and_rows_are_the_reference_ones(tmp_path):
    result = run_experiment(RunConfig(scenario="figure8", duration=12.0, seed=2,
                                      filter="r-amcckf", out=str(tmp_path / "run")))
    assert type(result.estimates) is list and len(result.estimates) > dataset_io.CHUNK
    assert all(type(row) is list and len(row) == 20 for row in result.estimates)
    assert all(type(value) is float for value in result.estimates[0])
    state = result.engine.state
    assert result.estimates[-1] == ([state.time] + state.position.tolist()
                                    + state.orientation.tolist() + state.velocity.tolist()
                                    + result.engine.covariance.diagonal().tolist())
    ref_write_rows(tmp_path / "ref.csv", dataset_io.ESTIMATE_HEADER, result.estimates)
    assert ((tmp_path / "run" / "estimates.csv").read_bytes()
            == (tmp_path / "ref.csv").read_bytes())


# ---------------------------------------------------------------------------
# readers: accepted files


def test_readers_match_on_written_streams_across_chunks(tmp_path):
    truth, events = simulated(25.0, jump_probability=0.1, jump_magnitude=20.0, sensors=2)
    dataset_io.write_events(tmp_path / "events.csv", events)
    dataset_io.write_truth(tmp_path / "truth.csv", truth)
    assert ingest_alike(tmp_path / "events.csv")[0] == "ok"
    assert truth_alike(tmp_path / "truth.csv")[0] == "ok"


def test_readers_match_on_number_spellings_blank_rows_and_junk_in_imu_d6_d8(tmp_path):
    header = ",".join(EVENT_HEADER)
    rows = [" 1.5,imu,imu,1_000,infinity,-0.0,１２３,nan,-nan,junk,,x",
            "",
            "1.5,odom,\"a,b\",+.5,1e-320,\t2 ,0.6,-0.0,0.0,Infinity,-inf,NaN",
            "1.5,odom,s,0,0,0,nan,0,0,0,0,0",
            "1.5,odom,s,0,0,0,0.6,0.8,0,0,0,0",
            "1.5,odom,s,0,0,0,-0.6,-0.8,1e-7,0,0,0",
            "",
            "",
            "٣,imu,imu,0,0,0,0,0,0,1,2,3"]
    path = event_file(tmp_path, header + "\n" + "\n".join(rows) + "\n")
    status, events = ingest_alike(path)
    assert status == "ok" and len(events) == 6
    assert events[0].accel.tolist()[0:2] == [1000.0, math.inf]
    assert events[2].orientation[0] == 0.0  # NaN norm: qw is read as 0, like max(0, nan)

    truth_rows = ["0,1,2,3,1,0,0,0,4,5,6", "", " 1e-3 ,1_0,+2,3,1,0,0,0,4,5,6",
                  "１,1,2,3,1,0,0,0,4,5,-0.0"]
    truth = event_file(tmp_path, ",".join(TRUTH_HEADER) + "\r\n" + "\r\n".join(truth_rows),
                       "truth.csv")
    assert truth_alike(truth)[0] == "ok"


def test_norm_and_scalar_part_match_on_many_quaternions(tmp_path):
    rng = np.random.default_rng(11)
    q = rng.standard_normal((3000, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    q[::7, 1:] *= 1.0 + 1e-7  # just over unit norm, inside the 1e-6 allowance
    events = [odom("odom0", 0.01 * k, [0.0, 0.0, 0.0], row, [0.0, 0.0, 0.0])
              for k, row in enumerate(q)]
    dataset_io.write_events(tmp_path / "events.csv", events)
    assert ingest_alike(tmp_path / "events.csv")[0] == "ok"


# ---------------------------------------------------------------------------
# readers: refused files


def edit(text, row, cells):
    """``text`` with the cells of data row ``row`` (0-based, after the header) replaced."""
    lines = text.split("\r\n")
    fields = lines[row + 1].split(",")
    for index, value in cells.items():
        fields[index] = value
    lines[row + 1] = ",".join(fields)
    return "\r\n".join(lines)


@pytest.mark.parametrize("row,cells", [
    (1, {0: "x"}),                        # malformed time
    (1, {0: "nan"}),                      # non-finite time
    (1, {0: "-inf"}),
    (1, {0: "inf"}),
    (2, {0: "0.008"}),                    # backwards past the tolerance
    (2, {0: "0.0195"}),                   # backwards inside the tolerance: accepted
    (2, {1: "gps"}),                      # unknown kind
    (1, {3: "1..0"}),                     # malformed IMU field
    (1, {8: "y"}),
    (1, {9: "junk", 10: "1e", 11: "?"}),  # junk in an IMU row's d6-d8: accepted
    (2, {11: "z"}),                       # malformed odometry velocity
    (2, {6: "0.9", 7: "0.9"}),            # quaternion past unit norm
    (2, {6: "nan"}),                      # NaN quaternion: accepted, qw 0
    # two problems on one row: the first check wins
    (1, {0: "x", 1: "gps"}),
    (1, {0: "inf", 3: "bad"}),
    (2, {0: "0.001", 1: "gps"}),
    (2, {1: "gps", 3: "bad"}),
    (2, {3: "bad", 6: "0.99", 7: "0.99"}),
    (2, {5: "one", 4: "two"}),            # the first malformed cell names the message
])
def test_event_reader_errors_match(tmp_path, row, cells):
    ingest_alike(event_file(tmp_path, edit(EVENT_ROWS, row, cells)))


def test_event_reader_errors_match_with_blank_rows_and_problems_on_two_rows(tmp_path):
    text = edit(edit(EVENT_ROWS, 3, {1: "gps"}), 1, {5: "?"})
    ingest_alike(event_file(tmp_path, text))
    text = edit(edit(EVENT_ROWS, 1, {1: "gps"}), 3, {5: "?"})
    ingest_alike(event_file(tmp_path, text, "b.csv"))
    lines = EVENT_ROWS.split("\r\n")
    with_blanks = "\r\n".join(lines[:2] + ["", ""] + lines[2:3] + [""] + lines[3:])
    for line, cells in ((4, {0: "0.005"}), (6, {1: "x"}), (7, {8: "q"})):
        assert ingest_alike(event_file(tmp_path, edit(with_blanks, line - 1, cells),
                                       "c.csv"))[0] == "error"
    # A short row after a bad one, and a bad row after a short one.
    short = with_blanks.replace("0.1,imu,imu,0.1,0.2,0.3,0.4,0.5,0.6,,,",
                                "0.1,imu,imu,0.1,0.2")
    ingest_alike(event_file(tmp_path, short, "d.csv"))
    ingest_alike(event_file(tmp_path, edit(short, 5, {1: "gps"}), "e.csv"))
    ingest_alike(event_file(tmp_path, short + "0.3,gps,gps,1,2,3,4,5,6,,,\r\n", "f.csv"))


CHUNK = dataset_io.CHUNK
BAD_QUAT = {1: "odom", 2: "s", 6: "0.99", 7: "0.99", 9: "0", 10: "0", 11: "0"}


@pytest.mark.parametrize("times", [("-0.0", "0.0", "-0.5"), ("0.0", "-0.0", "-0.5"),
                                   ("1", "1.0005", "0.9995", "0.9994")])
def test_event_reader_names_the_latest_time_as_max_does(tmp_path, times):
    rows = [f"{t},imu,imu,0,0,0,0,0,0,,," for t in times]
    path = event_file(tmp_path, "\n".join([",".join(EVENT_HEADER), *rows]) + "\n")
    assert ingest_alike(path)[0] == "error"


@pytest.mark.parametrize("row,cells", [
    (10, {1: "gps"}), (CHUNK - 1, {0: "oops"}), (CHUNK, {0: "0.1"}), (CHUNK + 1, {5: "?"}),
    (3 * CHUNK - 1, BAD_QUAT), (3 * CHUNK, BAD_QUAT), (1998, {1: "tide"}), (1999, {0: "-1"})])
def test_event_reader_errors_match_past_the_first_chunk(tmp_path, row, cells):
    lines = [",".join(EVENT_HEADER)]
    for k in range(2000):
        if k % 5 == 4:
            lines.append(f"{0.01 * k!r},odom,odom0,1,2,3,0.1,0.2,0.3,4,5,6")
        else:
            lines.append(f"{0.01 * k!r},imu,imu,1,2,3,4,5,6,,,")
    text = "\r\n".join(lines) + "\r\n"
    status, message = ingest_alike(event_file(tmp_path, edit(text, row, cells)))
    assert status == "error" and f"row {row + 2}" in message


def test_event_reader_header_and_field_count_errors_match(tmp_path):
    for name, text in (("header", "a,b,c\n"), ("empty", ""),
                       ("short", ",".join(EVENT_HEADER) + "\n0.1,imu\n"),
                       ("spaced", " time_s , kind,sensor_id,d0,d1,d2,d3,d4,d5,d6,d7,d8\n"),
                       ("body", ",".join(EVENT_HEADER) + "\n\n\n")):
        ingest_alike(event_file(tmp_path, text, f"{name}.csv"))
    ingest_alike(tmp_path / "missing.csv")


TRUTH_ROWS = ["0.0,1,2,3,1,0,0,0,4,5,6", "0.1,1,2,3,1,0,0,0,4,5,6",
              "0.2,1,2,3,1,0,0,0,4,5,6", "0.3,1,2,3,1,0,0,0,4,5,6"]


@pytest.mark.parametrize("row,cells", [
    (1, {3: "x"}), (1, {10: "inf"}), (1, {0: "0.0"}), (2, {0: "0.05"}), (0, {0: "nan"}),
    (1, {3: "x", 0: "0.0"}), (2, {0: "0.05", 4: "nan"}), (2, {5: "b", 2: "a"}),
    (3, {0: "0.2"})])
def test_truth_reader_errors_match(tmp_path, row, cells):
    fields = [r.split(",") for r in TRUTH_ROWS]
    for index, value in cells.items():
        fields[row][index] = value
    body = ["", *(",".join(f) for f in fields[:2]), "", *(",".join(f) for f in fields[2:])]
    path = event_file(tmp_path, ",".join(TRUTH_HEADER) + "\n" + "\n".join(body) + "\n")
    assert truth_alike(path)[0] == "error"


def test_truth_reader_errors_match_on_short_files_and_past_the_first_chunk(tmp_path):
    header = ",".join(TRUTH_HEADER)
    for name, body in (("none", []), ("one", TRUTH_ROWS[:1]), ("blank", ["", ""]),
                       ("short", TRUTH_ROWS[:2] + ["0.4,1,2"])):
        truth_alike(event_file(tmp_path, "\n".join([header, *body]) + "\n", f"{name}.csv"))
    rows = [f"{0.01 * k!r},1,2,3,1,0,0,0,4,5,6" for k in range(2500)]
    for row, value in ((CHUNK, "0.0"), (CHUNK + 1, "bad"), (2 * CHUNK - 1, "1e-3"),
                       (2100, "inf")):
        edited = rows[:row] + [value + rows[row][rows[row].index(","):]] + rows[row + 1:]
        status, message = truth_alike(event_file(tmp_path, "\n".join([header, *edited]),
                                                 "long.csv"))
        assert status == "error" and f"row {row + 2}" in message
