"""Run configuration, experiment execution, and the dataset wire format."""

import dataclasses
import json
import math
import typing
from pathlib import Path

import numpy as np
import pytest

from corfuse import dataset as dataset_io
from corfuse import experiments
from corfuse.errors import ConfigError, DataError
from corfuse.eskf import EngineConfig, ImuSample, OdometrySample
from corfuse.experiments import (RunConfig, bench, build_engine, build_scenario,
                                 compare, load_stream, run_experiment)
from corfuse.sim import TruthTrajectory, generate_truth, sample_sensors


def quick_config(**overrides):
    base = dict(scenario="hover", duration=3.0, seed=1, sensors=1,
                filter="ekf", adapt_q=False)
    base.update(overrides)
    return RunConfig(**base)


# ---------------------------------------------------------------------------
# configuration validation


def test_validate_accepts_reasonable_config():
    quick_config().validate()


@pytest.mark.parametrize("field,value,fragment", [
    ("filter", "ukf", "filter"),
    ("window", 0, "window"),
    ("rho", 0.5, "rho"),
    ("beta", 0.0, "beta"),
    ("sigma_mode", "off", "sigma_mode"),
    ("sigma_static", -1.0, "sigma_static"),
    ("r0", 0.0, "noise"),
    ("p0", 0.0, "p0"),
    ("duration", -1.0, "positive"),
    ("sensors", 0, "sensor"),
    ("scenario", "spiral", "scenario"),
    ("faulty_sensor", "odom7", "faulty_sensor"),
    ("jump_probability", 1.5, "jump_probability"),
    ("jump_probability", -0.1, "jump_probability"),
    ("jump_duration", 0, "jump_duration"),
    ("noise_std", -0.02, "noise_std"),
    ("imu_accel_std", -1.0, "imu_accel_std"),
    ("imu_gyro_std", float("nan"), "imu_gyro_std"),
    ("sigma_static", math.inf, "sigma_static"),
    ("r0", math.nan, "noise"),
    ("r0_overrides", {"odom0": math.inf}, "noise"),
    ("q0", math.nan, "q0"),
    ("q0", math.inf, "q0"),
    ("p0", math.nan, "p0"),
    ("p0", math.inf, "p0"),
    ("duration", math.nan, "duration"),
    ("imu_rate", math.inf, "rates"),
    ("odom_rate", math.nan, "rates"),
    ("jump_magnitude", math.nan, "jump_magnitude"),
    ("drift_rate", math.nan, "drift_rate"),
    ("drift_start", math.inf, "drift_start"),
    ("drift_duration", math.nan, "drift_duration"),
    ("drift_duration", -1.0, "drift_duration"),
    ("seed", -1, "seed"),
    ("noise_std", math.inf, "noise_std"),
    ("imu_accel_std", math.inf, "imu_accel_std"),
    ("imu_gyro_std", math.inf, "imu_gyro_std"),
    ("sigma_static", 1e160, "2 sigma_static"),
    ("sigma_max", 1e200, "2 sigma_max"),
    ("window", 10_001, "window must lie in"),
    ("window", 100_000_000, "window"),
])
def test_validate_rejects_bad_values(field, value, fragment):
    config = quick_config(**{field: value})
    with pytest.raises(ConfigError, match=fragment):
        config.validate()


def test_validate_refuses_odometry_faster_than_the_imu():
    quick_config(imu_rate=100.0, odom_rate=100.0).validate()
    with pytest.raises(ConfigError, match="odom_rate 200.0 must not exceed imu_rate 100.0"):
        quick_config(imu_rate=100.0, odom_rate=200.0).validate()


def test_validate_accepts_an_endless_drift():
    quick_config(drift_rate=0.1, drift_duration=math.inf).validate()


def test_validate_requires_exactly_one_input_source():
    with pytest.raises(ConfigError, match="exactly one"):
        RunConfig(scenario=None, dataset=None).validate()
    with pytest.raises(ConfigError, match="exactly one"):
        RunConfig(scenario="hover", dataset="events.csv").validate()


@pytest.mark.parametrize("field,settings", [
    ("sigma_static", {"sigma_mode": "static", "sigma_static": 1e-200}),
    ("sigma_min", {"sigma_min": 1e-200}),
])
def test_validate_refuses_a_kernel_size_whose_square_is_zero(field, settings):
    """Such a size made 0/0 weights of an exact zero innovation, and then a NaN state."""
    config = RunConfig(scenario="hover", filter="mcckf", duration=1.0, noise_std=0.0,
                       imu_accel_std=0.0, imu_gyro_std=0.0, **settings)
    with pytest.raises(ConfigError, match=field):
        config.validate()
    assert dataclasses.replace(config, **{field: 1e-150}).validate() is None


def test_a_kernel_size_whose_scale_underflows_still_fuses_zero_innovations():
    """2 sigma^2 R_jj is 0 for sigma_static = 1e-161 and R_jj = 0.01, although sigma^2 > 0.

    Such a size made 0/0 weights of the noise-free hover run's zero
    innovations, and every correction was refused.
    """
    config = RunConfig(scenario="hover", filter="mcckf", duration=1.0, noise_std=0.0,
                       imu_accel_std=0.0, imu_gyro_std=0.0, sigma_mode="static",
                       sigma_static=1e-161)
    config.validate()
    metrics = run_experiment(config).metrics
    assert metrics.dropped == {"out_of_order": 0, "non_finite": 0, "rejected": 0}
    assert metrics.correction_count == 20


def test_validate_refuses_a_truth_file_without_a_dataset():
    RunConfig(dataset="events.csv", truth="truth.csv").validate()
    with pytest.raises(ConfigError, match="truth needs a dataset"):
        RunConfig(scenario="hover", truth="truth.csv").validate()


def test_validate_collects_multiple_problems():
    config = quick_config(filter="ukf", window=0)
    with pytest.raises(ConfigError, match="filter.*window|window.*filter"):
        config.validate()


def test_build_scenario_confines_faults_to_faulty_sensor():
    config = quick_config(sensors=3, jump_probability=0.2, jump_magnitude=30.0,
                          drift_rate=0.1, faulty_sensor="odom1")
    scenario = build_scenario(config)
    assert [s.sensor_id for s in scenario.sensors] == ["odom0", "odom1", "odom2"]
    for sensor in scenario.sensors:
        expect = 0.2 if sensor.sensor_id == "odom1" else 0.0
        assert sensor.noise.jump_probability == expect
        assert sensor.noise.drift_rate == (0.1 if sensor.sensor_id == "odom1" else 0.0)


def test_build_scenario_applies_faults_everywhere_by_default():
    scenario = build_scenario(quick_config(sensors=2, jump_probability=0.1,
                                           jump_magnitude=10.0))
    assert all(s.noise.jump_probability == 0.1 for s in scenario.sensors)


def test_every_engine_config_field_is_set_from_a_run_config_key():
    """A knob only tests could set would leave some EngineConfig field unchanged."""
    alternatives = {"filter": "ekf", "sigma_mode": "static"}
    hints = typing.get_type_hints(RunConfig)
    base = build_engine(RunConfig(), ["odom0"]).config
    reached = set()
    for name, hint in hints.items():
        value = getattr(RunConfig(), name)
        if name in alternatives:
            other = alternatives[name]
        elif hint is bool:
            other = not value
        elif hint is int:
            other = value + 1
        elif hint is float:
            other = 0.5 * value + 0.125 if math.isfinite(value) else 1.0
        else:
            continue
        engine = build_engine(RunConfig(**{name: other}), ["odom0"])
        reached |= {f.name for f in dataclasses.fields(EngineConfig)
                    if not np.array_equal(getattr(engine.config, f.name),
                                          getattr(base, f.name))}
    assert reached == {f.name for f in dataclasses.fields(EngineConfig)}


# ---------------------------------------------------------------------------
# experiment execution


def test_run_experiment_reports_metrics():
    result = run_experiment(quick_config())
    metrics = result.metrics
    assert metrics.variant == "ekf"
    assert metrics.correction_count == 30  # 3 s at 10 Hz, one sensor
    assert metrics.rmse_position_total is not None
    assert metrics.rmse_position_total < 0.05
    assert metrics.nees_mean is not None and metrics.nees_mean > 0.0
    assert set(metrics.r_trace) == {"odom0"}


@pytest.mark.parametrize("variant", ["ekf", "akf"])
def test_variants_without_a_kernel_report_no_bandwidth(variant):
    metrics = run_experiment(quick_config(filter=variant, duration=1.0)).metrics
    assert metrics.correction_count == 10
    assert metrics.kb_inverse == {}
    kernel = run_experiment(quick_config(filter="mcckf", duration=1.0)).metrics
    assert list(kernel.kb_inverse) == ["odom0"] and len(kernel.kb_inverse["odom0"]) == 10


def test_run_experiment_is_reproducible():
    first = run_experiment(quick_config(filter="vb-amcckf", adapt_q=True))
    second = run_experiment(quick_config(filter="vb-amcckf", adapt_q=True))
    assert first.estimates == second.estimates
    assert first.metrics.rmse_position_total == second.metrics.rmse_position_total


def test_run_experiment_writes_reproducible_outputs(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    run_experiment(quick_config(out=str(out_a)))
    run_experiment(quick_config(out=str(out_b)))
    assert (out_a / "estimates.csv").read_bytes() == (out_b / "estimates.csv").read_bytes()
    metrics = json.loads((out_a / "metrics.json").read_text())
    assert "timing_ns" not in metrics
    assert metrics["correction_count"] == 30
    assert (out_a / "metrics.json").read_bytes() == (out_b / "metrics.json").read_bytes()


def test_run_experiment_dataset_round_trip(tmp_path):
    config = quick_config(duration=2.0)
    scenario = build_scenario(config)
    truth = generate_truth(scenario)
    events = sample_sensors(truth, scenario)
    events_path = tmp_path / "events.csv"
    truth_path = tmp_path / "truth.csv"
    dataset_io.write_events(events_path, events)
    dataset_io.write_truth(truth_path, truth)

    from_dataset = run_experiment(RunConfig(
        dataset=str(events_path), truth=str(truth_path), filter="ekf",
        adapt_q=False, seed=1))
    assert from_dataset.metrics.correction_count == 20
    # initialization comes from the first odometry event, so the replayed
    # run tracks the same truth to similar accuracy
    assert from_dataset.metrics.rmse_position_total < 0.05


def test_run_experiment_dataset_requires_odometry(tmp_path):
    path = tmp_path / "imu_only.csv"
    config = quick_config(duration=1.0)
    scenario = build_scenario(config)
    truth = generate_truth(scenario)
    events = [e for e in sample_sensors(truth, scenario)
              if not hasattr(e, "sensor_id") or e.sensor_id == "imu"]
    imu_events = [e for e in events if e.__class__.__name__ == "ImuSample"]
    dataset_io.write_events(path, imu_events)
    with pytest.raises(DataError, match="odometry"):
        run_experiment(RunConfig(dataset=str(path), filter="ekf"))


def test_compare_runs_all_variants_on_one_stream(tmp_path):
    config = quick_config(out=str(tmp_path / "cmp"))
    results = compare(config, ["ekf", "mcckf"])
    assert set(results) == {"ekf", "mcckf"}
    for variant, result in results.items():
        assert result.metrics.variant == variant
        assert (tmp_path / "cmp" / variant / "metrics.json").exists()
    # identical streams: clean hover data gives near-identical accuracy
    a = results["ekf"].metrics.rmse_position_total
    b = results["mcckf"].metrics.rmse_position_total
    assert a == pytest.approx(b, rel=0.2)


def test_bench_produces_rows_per_variant_and_window():
    config = quick_config(duration=1.0)
    rows = bench(config, ["ekf", "vb-amcckf"], [5, 10], repeats=1)
    assert len(rows) == 4
    for row in rows:
        assert row["odometry_events"] > 0
        assert row["mean_ns"] > 0.0
    assert {(r["variant"], r["window"]) for r in rows} == {
        ("ekf", 5), ("ekf", 10), ("vb-amcckf", 5), ("vb-amcckf", 10)}


def test_bench_times_each_odometry_event_of_the_stream():
    config = quick_config(duration=1.0, sensors=2, odom_rate=10.0)
    odometry = [e for e in load_stream(config)[0] if isinstance(e, OdometrySample)]
    assert len(odometry) == 20
    rows = bench(config, ["r-amcckf", "vb-amcckf"], [5], repeats=2)
    assert [row["odometry_events"] for row in rows] == [20] * 4
    assert all(0.0 < row["mean_ns"] <= row["max_ns"] for row in rows)


def test_bench_synthesizes_the_stream_once(monkeypatch):
    calls = []

    def counted(scenario):
        calls.append(scenario)
        return generate_truth(scenario)

    monkeypatch.setattr(experiments, "generate_truth", counted)
    rows = bench(quick_config(duration=1.0), ["ekf", "vb-amcckf"], [5, 10], repeats=2)
    assert len(rows) == 8 and len(calls) == 1


# ---------------------------------------------------------------------------
# dataset wire format


def test_event_round_trip_is_exact(tmp_path):
    config = quick_config(duration=2.0, jump_probability=0.1, jump_magnitude=20.0)
    scenario = build_scenario(config)
    truth = generate_truth(scenario)
    events = sample_sensors(truth, scenario)
    path = tmp_path / "events.csv"
    dataset_io.write_events(path, events)
    back = dataset_io.ingest_dataset(path)
    assert len(back) == len(events)
    for orig, copy in zip(events, back):
        assert type(orig) is type(copy)
        assert copy.time == orig.time
        if hasattr(orig, "accel"):
            assert np.array_equal(copy.accel, orig.accel)
            assert np.array_equal(copy.gyro, orig.gyro)
        else:
            assert np.array_equal(copy.position, orig.position)
            assert np.array_equal(copy.velocity, orig.velocity)
            # orientation is exact up to the stored qw >= 0 sign convention
            q = orig.orientation if orig.orientation[0] >= 0 else -orig.orientation
            np.testing.assert_allclose(copy.orientation, q, atol=1e-12)


def test_truth_round_trip(tmp_path):
    truth = generate_truth(build_scenario(quick_config(duration=1.0)))
    path = tmp_path / "truth.csv"
    dataset_io.write_truth(path, truth)
    back = dataset_io.read_truth(path)
    assert np.array_equal(back.times, truth.times)
    assert np.array_equal(back.positions, truth.positions)
    assert np.array_equal(back.orientations, truth.orientations)


def test_writers_emit_crlf_lines_and_repr_floats(tmp_path):
    events = [ImuSample(accel=np.array([0.1, -0.0, 1e-300]),
                        gyro=np.array([1.0 / 3.0, 2.0, 1e22]), time=0.01),
              OdometrySample("odom0", position=np.array([1.5, 0.0, -2.25]),
                             orientation=np.array([-0.5, 0.5, 0.5, 0.5]),
                             velocity=np.array([0.1, 0.2, 0.3]), time=0.1)]
    dataset_io.write_events(tmp_path / "events.csv", events)
    assert (tmp_path / "events.csv").read_bytes() == (
        b"time_s,kind,sensor_id,d0,d1,d2,d3,d4,d5,d6,d7,d8\r\n"
        b"0.01,imu,imu,0.1,-0.0,1e-300,0.3333333333333333,2.0,1e+22,,,\r\n"
        b"0.1,odom,odom0,1.5,0.0,-2.25,-0.5,-0.5,-0.5,0.1,0.2,0.3\r\n")

    truth = TruthTrajectory(
        times=np.array([0.0, 0.1]), positions=np.array([[1.0, 2.0, 3.0], [0.1, 0.2, 0.3]]),
        velocities=np.array([[-1.0, 0.0, 1e-5], [2.5, 1e100, 7.0]]),
        orientations=np.array([[1.0, 0.0, 0.0, 0.0], [0.5, 0.5, -0.5, 0.5]]),
        accel_body=np.zeros((1, 3)), gyro_body=np.zeros((1, 3)))
    dataset_io.write_truth(tmp_path / "truth.csv", truth)
    assert (tmp_path / "truth.csv").read_bytes() == (
        b"time_s,px,py,pz,qw,qx,qy,qz,vx,vy,vz\r\n"
        b"0.0,1.0,2.0,3.0,1.0,0.0,0.0,0.0,-1.0,0.0,1e-05\r\n"
        b"0.1,0.1,0.2,0.3,0.5,0.5,-0.5,0.5,2.5,1e+100,7.0\r\n")

    result = run_experiment(quick_config(duration=0.5, out=str(tmp_path / "run")))
    lines = ["time_s,px,py,pz,qw,qx,qy,qz,vx,vy,vz,c0,c1,c2,c3,c4,c5,c6,c7,c8"]
    lines += [",".join(map(repr, row)) for row in result.estimates]
    assert (tmp_path / "run" / "estimates.csv").read_bytes() == (
        "".join(line + "\r\n" for line in lines).encode())


def test_readme_documents_every_csv_header():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    for header in (dataset_io.EVENT_HEADER, dataset_io.TRUTH_HEADER,
                   dataset_io.ESTIMATE_HEADER):
        assert ",".join(header) in readme


def test_ingest_rejects_malformed_files(tmp_path):
    missing = tmp_path / "nope.csv"
    with pytest.raises(DataError, match="not found"):
        dataset_io.ingest_dataset(missing)

    bad_header = tmp_path / "bad_header.csv"
    bad_header.write_text("a,b,c\n")
    with pytest.raises(DataError, match="header"):
        dataset_io.ingest_dataset(bad_header)

    header = ",".join(dataset_io.EVENT_HEADER)
    bad_field = tmp_path / "bad_field.csv"
    bad_field.write_text(header + "\n0.1,imu,imu,a,0,0,0,0,0,,,\n")
    with pytest.raises(DataError, match="row 2"):
        dataset_io.ingest_dataset(bad_field)

    bad_kind = tmp_path / "bad_kind.csv"
    bad_kind.write_text(header + "\n0.1,gps,gps,0,0,0,0,0,0,0,0,0\n")
    with pytest.raises(DataError, match="kind"):
        dataset_io.ingest_dataset(bad_kind)

    backwards = tmp_path / "backwards.csv"
    backwards.write_text(header + "\n"
                         "1.0,imu,imu,0,0,0,0,0,0,,,\n"
                         "0.5,imu,imu,0,0,0,0,0,0,,,\n")
    with pytest.raises(DataError, match="backwards"):
        dataset_io.ingest_dataset(backwards)

    for name in ("nan", "inf"):
        non_finite = tmp_path / f"{name}_time.csv"
        non_finite.write_text(header + "\n"
                              "0.1,imu,imu,0,0,0,0,0,0,,,\n"
                              f"{name},imu,imu,0,0,0,0,0,0,,,\n")
        with pytest.raises(DataError, match="non-finite timestamp on row 3"):
            dataset_io.ingest_dataset(non_finite)

    bad_quat = tmp_path / "bad_quat.csv"
    bad_quat.write_text(header + "\n0.1,odom,odo0,0,0,0,1.5,0,0,0,0,0\n")
    with pytest.raises(DataError, match="quaternion"):
        dataset_io.ingest_dataset(bad_quat)


def test_ingest_tolerates_blank_lines_and_empty_body(tmp_path):
    header = ",".join(dataset_io.EVENT_HEADER)
    sparse = tmp_path / "sparse.csv"
    sparse.write_text(header + "\n\n0.1,imu,imu,0,0,0,0,0,0,,,\n\n")
    events = dataset_io.ingest_dataset(sparse)
    assert len(events) == 1

    empty = tmp_path / "empty.csv"
    empty.write_text(header + "\n")
    assert dataset_io.ingest_dataset(empty) == []
