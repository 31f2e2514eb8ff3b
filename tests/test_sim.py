"""Synthetic truth generation and sensor corruption."""

import gc
import math

import numpy as np
import pytest

from corfuse import sim
from corfuse.eskf import GRAVITY, ImuSample, OdometrySample, propagate_nominal
from corfuse.sim import (NoiseSpec, ScenarioSpec, SensorSpec, TruthTrajectory,
                         generate_truth, sample_sensors, scenario_problems)
from corfuse.so3 import (quat_conjugate, quat_from_rotvec, quat_multiply, quat_to_rotmat,
                         quat_to_rotvec, rotation_angle)


def scenario(kind="hover", duration=5.0, imu_rate=100.0, sensors=None, **noise):
    specs = sensors or [SensorSpec("odo0", rate=10.0, noise=NoiseSpec(**noise))]
    return ScenarioSpec(kind=kind, duration=duration, imu_rate=imu_rate,
                        sensors=specs)


def test_truth_grid_shape_and_spacing():
    truth = generate_truth(scenario(duration=2.0, imu_rate=50.0))
    assert len(truth) == 101
    assert truth.dt == pytest.approx(0.02)
    assert truth.positions.shape == (101, 3)
    assert truth.accel_body.shape == (100, 3)
    assert truth.index_at(1.0) == 50
    with pytest.raises(ValueError):
        truth.index_at(1.004)


def test_index_at_finds_the_nearest_row_on_an_uneven_grid():
    times = np.array([0.0, 0.1, 0.25, 0.3, 1.0])
    truth = TruthTrajectory(times, np.zeros((5, 3)), np.zeros((5, 3)),
                            np.tile([1.0, 0.0, 0.0, 0.0], (5, 1)),
                            np.zeros((4, 3)), np.zeros((4, 3)))
    assert [truth.index_at(t) for t in times] == [0, 1, 2, 3, 4]
    assert truth.index_at(0.25 + 5e-7) == 2
    assert truth.index_at(1.0 - 5e-7) == 4
    for time in (-0.01, 0.2, 0.5, 1.01, -math.inf, math.inf, math.nan):
        with pytest.raises(ValueError, match="not on the truth grid"):
            truth.index_at(time)


def test_unknown_trajectory_kind_rejected():
    with pytest.raises(ValueError, match="hover"):
        generate_truth(scenario(kind="spiral"))


@pytest.mark.parametrize("kind", ["hover", "figure8", "waypoints"])
def test_noise_free_imu_channels_close_the_loop(kind):
    """Integrating the exact IMU channels must reproduce the truth states."""
    spec = scenario(kind=kind, duration=10.0)
    truth = generate_truth(spec)
    state = truth.state(0)
    worst_pos = worst_angle = 0.0
    for k in range(len(truth) - 1):
        imu = ImuSample(truth.accel_body[k], truth.gyro_body[k],
                        float(truth.times[k]))
        state = propagate_nominal(state, imu, truth.dt)
        worst_pos = max(worst_pos, float(np.linalg.norm(
            state.position - truth.positions[k + 1])))
        q_err = quat_multiply(quat_conjugate(state.orientation),
                              truth.orientations[k + 1])
        worst_angle = max(worst_angle, rotation_angle(q_err))
    assert worst_pos < 1e-2
    assert worst_angle < 1e-9


def test_waypoint_trajectory_hits_endpoints_at_rest():
    spec = scenario(kind="waypoints", duration=12.0)
    truth = generate_truth(spec)
    np.testing.assert_allclose(truth.positions[0], [0.0, 0.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(truth.positions[-1], [0.0, 2.0, 1.5], atol=1e-9)
    np.testing.assert_allclose(truth.velocities[0], np.zeros(3), atol=1e-9)
    np.testing.assert_allclose(truth.velocities[-1], np.zeros(3), atol=1e-6)


def test_waypoints_need_two_points():
    spec = scenario(kind="waypoints")
    spec.waypoints = np.array([[0.0, 0.0, 1.0]])
    with pytest.raises(ValueError, match="two waypoints"):
        generate_truth(spec)


@pytest.mark.parametrize("field,value", [
    ("waypoints", np.zeros((2, 2))),
    ("waypoints", np.array([[0.0, 0.0, 1.0], [2.0, 0.0, 1.5]]).T),
    ("waypoints", np.zeros(3)),
    ("waypoints", np.array([[0.0, 0.0, 1.0], [1.0, math.nan, 1.0]])),
    ("waypoints", np.array([[0.0, 0.0, 1.0], [1.0, math.inf, 1.0]])),
    ("imu_rate", 0.0),
    ("imu_rate", -100.0),
    ("imu_rate", math.inf),
    ("imu_rate", math.nan),
    ("duration", 0.0),
    ("duration", -1.0),
    ("duration", math.inf),
    ("duration", math.nan),
    ("imu_rate", 1e308),    # duration * imu_rate overflows
    ("duration", 1e12),     # more steps than MAX_IMU_STEPS
    ("duration", 1e-3),     # under half an IMU step: no step at all
], ids=["2x2", "transposed", "flat", "nan-waypoint", "inf-waypoint",
        "zero-rate", "negative-rate", "infinite-rate", "nan-rate",
        "zero-duration", "negative-duration", "infinite-duration", "nan-duration",
        "overflowing-steps", "too-many-steps", "no-step"])
def test_generate_truth_refuses_bad_scenario_fields(field, value):
    spec = scenario(kind="waypoints", duration=2.0)
    setattr(spec, field, value)
    with pytest.raises(ValueError, match=field):
        generate_truth(spec)


def test_sampler_is_bitwise_deterministic():
    spec = scenario(duration=3.0, gaussian_std=0.05, jump_probability=0.1,
                    jump_magnitude=10.0)
    truth = generate_truth(spec)
    first = sample_sensors(truth, spec)
    assert any(isinstance(e, OdometrySample) for e in first)
    assert_same_stream(first, sample_sensors(truth, spec))


def test_event_stream_is_time_sorted_with_imu_first():
    spec = scenario(duration=2.0)
    truth = generate_truth(spec)
    events = sample_sensors(truth, spec)
    times = [e.time for e in events]
    assert times == sorted(times)
    # at a shared timestamp the IMU sample precedes the odometry sample
    at_one = [e for e in events if abs(e.time - 1.0) < 1e-12]
    assert isinstance(at_one[0], ImuSample)
    assert isinstance(at_one[-1], OdometrySample)


def test_odometry_rate_and_noise_level():
    spec = scenario(duration=20.0, gaussian_std=0.05)
    truth = generate_truth(spec)
    odo = [e for e in sample_sensors(truth, spec) if isinstance(e, OdometrySample)]
    assert len(odo) == 200
    errors = np.stack([e.position - truth.positions[truth.index_at(e.time)]
                       for e in odo])
    assert np.std(errors) == pytest.approx(0.05, rel=0.15)


@pytest.mark.parametrize("rate", [200.0, 100.000001, 0.0, -20.0, math.nan])
def test_odometry_lands_on_the_imu_grid_and_is_never_faster(rate):
    """Every round(imu_rate / rate) steps: 30 Hz on 100 Hz gives 100 events in 3 s.

    A rate above the IMU's, or one that is not positive, is refused rather
    than sampled at the IMU rate (or divided by).
    """
    spec = scenario(duration=3.0, sensors=[SensorSpec("odo0", rate=30.0)])
    truth = generate_truth(spec)
    spec.sensors.append(SensorSpec("bad", rate=rate))
    message = (f"odom_rate {rate} must not exceed imu_rate 100.0: odometry lands on the IMU grid"
               if rate > 0.0 else f"odom_rate must be positive, got {rate}")
    assert refusal(spec, truth) == message
    spec.sensors.pop()
    odo = [e for e in sample_sensors(truth, spec) if isinstance(e, OdometrySample)]
    assert len(odo) == 100
    assert [truth.index_at(e.time) for e in odo] == list(range(3, 301, 3))


@pytest.mark.parametrize("rate", [1e-17, 1e-320])
def test_a_stride_past_the_grid_samples_no_odometry(rate):
    """round(100 / 1e-17) overflows an int64 index and 100 / 1e-320 is infinite.

    Either stride lies past the grid's end, as that of 1e-5 Hz does: no sample.
    """
    spec = scenario(duration=1.0, sensors=[SensorSpec("odo0", rate=rate)])
    events = sample_sensors(generate_truth(spec), spec)
    assert len(events) == 100 and all(isinstance(e, ImuSample) for e in events)


def test_jump_frequency_matches_probability():
    spec = scenario(duration=100.0, gaussian_std=0.01, jump_probability=0.05,
                    jump_magnitude=50.0, jump_duration=1)
    truth = generate_truth(spec)
    odo = [e for e in sample_sensors(truth, spec) if isinstance(e, OdometrySample)]
    offsets = np.stack([e.position - truth.positions[truth.index_at(e.time)]
                        for e in odo])
    outliers = np.sum(np.max(np.abs(offsets), axis=1) > 0.25)
    # 1000 draws at p=0.05: expect about 50, allow 4 sigma around binomial
    assert 22 <= outliers <= 78


def test_drift_is_confined_to_its_window():
    spec = scenario(duration=30.0, gaussian_std=1e-4)
    spec.sensors[0].noise.drift_rate = 0.1
    spec.sensors[0].noise.drift_start = 10.0
    spec.sensors[0].noise.drift_duration = 10.0
    truth = generate_truth(spec)
    odo = [e for e in sample_sensors(truth, spec) if isinstance(e, OdometrySample)]
    def offset(e):
        return np.linalg.norm(e.position - truth.positions[truth.index_at(e.time)])
    before = [offset(e) for e in odo if e.time < 10.0]
    during = [offset(e) for e in odo if 10.0 <= e.time < 20.0]
    after = [offset(e) for e in odo if e.time >= 20.0]
    assert max(before) < 0.01
    assert during[-1] == pytest.approx(0.1 * 10.0 * np.sqrt(3), rel=0.05)
    # drift holds at its final value once the window closes
    assert min(after) > 1.5


def test_per_sensor_streams_are_independent():
    spec = ScenarioSpec(kind="hover", duration=5.0, sensors=[
        SensorSpec("odo0", rate=10.0, noise=NoiseSpec(gaussian_std=0.05)),
        SensorSpec("odo1", rate=10.0, noise=NoiseSpec(gaussian_std=0.05)),
    ])
    truth = generate_truth(spec)
    events = sample_sensors(truth, spec)
    by_sensor = {}
    for e in events:
        if isinstance(e, OdometrySample):
            by_sensor.setdefault(e.sensor_id, []).append(e.position)
    a = np.stack(by_sensor["odo0"])
    b = np.stack(by_sensor["odo1"])
    assert a.shape == b.shape
    assert not np.allclose(a, b)


def refusal(spec, truth):
    """The message that both generate_truth(spec) and sample_sensors(truth, spec) raise."""
    with pytest.raises(ValueError) as from_truth:
        generate_truth(spec)
    with pytest.raises(ValueError) as from_sampler:
        sample_sensors(truth, spec)
    assert str(from_truth.value) == str(from_sampler.value)
    return str(from_truth.value)


def test_noise_spec_validation():
    """Each noise field is one number for every channel; a negative drift is a direction."""
    spec = scenario(gaussian_std=0.2, drift_rate=-0.1, drift_start=1.0, drift_duration=0.0)
    assert scenario_problems(spec) == []
    spec.sensors[0].noise.jump_duration = 0
    assert refusal(spec, generate_truth(scenario())) == "jump_duration must be >= 1, got 0"


@pytest.mark.parametrize("std", [-0.1, math.inf, math.nan, -5e-324])
def test_noise_spec_refuses_a_negative_or_non_finite_std(std):
    assert refusal(scenario(gaussian_std=std), generate_truth(scenario())) == (
        f"noise_std must be non-negative and finite, got {std}")


@pytest.mark.parametrize("rate", [math.inf, -math.inf, math.nan])
def test_noise_spec_refuses_a_non_finite_drift(rate):
    assert refusal(scenario(drift_rate=rate), generate_truth(scenario())) == (
        f"drift_rate must be finite, got {rate}")


def test_sensors_with_one_problem_share_its_message():
    spec = scenario(sensors=[SensorSpec(f"odo{i}", rate=10.0, noise=NoiseSpec(
        gaussian_std=-1.0, jump_probability=2.0 if i else 0.5)) for i in range(3)])
    assert scenario_problems(spec) == ["jump_probability must lie in [0, 1], got 2.0",
                                       "noise_std must be non-negative and finite, got -1.0"]


def test_scenario_problems_lists_every_problem():
    spec = ScenarioSpec(kind="spiral", duration=-1.0, imu_gyro_std=math.nan, seed=-2,
                        sensors=[SensorSpec("odo0", rate=0.0)])
    assert scenario_problems(spec) == [
        "scenario must be one of ('hover', 'waypoints', 'figure8'), got 'spiral'",
        "duration must be positive and finite, got -1.0",
        "seed must be non-negative, got -2",
        "odom_rate must be positive, got 0.0",
        "imu_gyro_std must be non-negative and finite, got nan"]


# -- reference: the per-point and per-sample evaluation that generate_truth and
#    sample_sensors replaced by array passes, kept here to pin their output bit
#    for bit --

def reference_trajectory(spec):
    """(pos, vel, acc, quat) functions of one time point, for each kind."""
    if spec.kind == "hover":
        origin, zero, identity = np.array([0.0, 0.0, 1.0]), np.zeros(3), np.array([1.0, 0, 0, 0])
        return lambda t: origin, lambda t: zero, lambda t: zero, lambda t: identity
    if spec.kind == "figure8":
        amp, center = np.array([1.0, 0.5, 0.2]), np.array([0.0, 0.0, 1.0])
        omega = 2.0 * math.pi / 20.0
        return (
            lambda t: center + amp * np.array(
                [math.sin(omega * t), math.sin(2 * omega * t), math.sin(omega * t)]),
            lambda t: amp * np.array([omega * math.cos(omega * t),
                                      2 * omega * math.cos(2 * omega * t),
                                      omega * math.cos(omega * t)]),
            lambda t: -amp * np.array([omega ** 2 * math.sin(omega * t),
                                       4 * omega ** 2 * math.sin(2 * omega * t),
                                       omega ** 2 * math.sin(omega * t)]),
            lambda t: quat_from_rotvec(np.array([0.0, 0.0, 0.5 * math.sin(omega * t)])))
    points = np.asarray(spec.waypoints if spec.waypoints is not None else
                        [[0.0, 0.0, 1.0], [2.0, 0.0, 1.5], [2.0, 2.0, 1.0], [0.0, 2.0, 1.5]],
                        dtype=float)
    segments = points.shape[0] - 1
    seg_time = spec.duration / segments

    def locate(t):
        idx = min(int(t / seg_time), segments - 1)
        return idx, (t - idx * seg_time) / seg_time, points[idx + 1] - points[idx]

    def pos(t):
        idx, tau, span = locate(t)
        return points[idx] + span * (10 * tau ** 3 - 15 * tau ** 4 + 6 * tau ** 5)

    def vel(t):
        _, tau, span = locate(t)
        return span * ((30 * tau ** 2 - 60 * tau ** 3 + 30 * tau ** 4) / seg_time)

    def acc(t):
        _, tau, span = locate(t)
        return span * ((60 * tau - 180 * tau ** 2 + 120 * tau ** 3) / seg_time ** 2)

    identity = np.array([1.0, 0.0, 0.0, 0.0])
    return pos, vel, acc, lambda t: identity


def reference_truth(spec):
    pos, vel, acc, quat = reference_trajectory(spec)
    dt = 1.0 / spec.imu_rate
    steps = int(round(spec.duration * spec.imu_rate))
    times = np.arange(steps + 1) * dt
    orientations = np.stack([quat(t) for t in times])
    accel_body, gyro_body = np.zeros((steps, 3)), np.zeros((steps, 3))
    for k in range(steps):
        delta = quat_multiply(quat_conjugate(orientations[k]), orientations[k + 1])
        gyro_body[k] = quat_to_rotvec(delta) / dt
        accel_body[k] = quat_to_rotmat(orientations[k]).T @ (acc(times[k] + 0.5 * dt) - GRAVITY)
    return TruthTrajectory(times, np.stack([pos(t) for t in times]),
                           np.stack([vel(t) for t in times]), orientations,
                           accel_body, gyro_body)


def reference_odometry(truth, sensor, imu_rate, rng):
    stride = max(1, int(round(imu_rate / sensor.rate)))
    indices = np.arange(stride, len(truth), stride)
    noise = sensor.noise
    std = np.full(9, noise.gaussian_std)
    drift_rate = np.full(3, noise.drift_rate)
    dt_odom = stride * truth.dt

    triggers = rng.random(len(indices)) < noise.jump_probability
    samples = []
    hold = 0
    jump = np.zeros(6)  # position(3) + velocity(3) jump
    drift = np.zeros(3)
    for i, grid_idx in enumerate(indices):
        t = float(truth.times[grid_idx])
        if triggers[i]:
            signs = rng.integers(0, 2, size=6) * 2 - 1
            jump = noise.jump_magnitude * np.concatenate([std[0:3], std[6:9]]) * signs
            hold = noise.jump_duration
        offset = jump if hold > 0 else np.zeros(6)
        if hold > 0:
            hold -= 1
        if noise.drift_start <= t < noise.drift_start + noise.drift_duration:
            drift = drift + drift_rate * dt_odom
        gauss = rng.standard_normal(9) * std
        position = truth.positions[grid_idx] + gauss[0:3] + offset[0:3] + drift
        orientation = quat_multiply(truth.orientations[grid_idx],
                                    quat_from_rotvec(gauss[3:6]))
        velocity = truth.velocities[grid_idx] + gauss[6:9] + offset[3:6]
        samples.append(OdometrySample(
            sensor_id=sensor.sensor_id, position=position,
            orientation=orientation, velocity=velocity, time=t))
    return samples


def reference_events(truth, spec):
    rng = np.random.default_rng([spec.seed, 0])
    events = []
    for k in range(len(truth) - 1):
        accel = truth.accel_body[k] + rng.standard_normal(3) * spec.imu_accel_std
        gyro = truth.gyro_body[k] + rng.standard_normal(3) * spec.imu_gyro_std
        events.append(ImuSample(accel=accel, gyro=gyro, time=float(truth.times[k + 1])))
    for index, sensor in enumerate(spec.sensors):
        events += reference_odometry(truth, sensor, spec.imu_rate,
                                     np.random.default_rng([spec.seed, index + 1]))
    events.sort(key=lambda e: (e.time, isinstance(e, OdometrySample),
                               getattr(e, "sensor_id", "")))
    return events


def assert_same_bits(actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    assert np.array_equal(actual, expected)
    assert actual.tobytes() == expected.tobytes()  # signed zeros too


def assert_same_stream(events, expected):
    """Same event types, times, sensor ids and vectors, bit for bit, in the same order."""
    assert len(events) == len(expected)
    for event, reference in zip(events, expected):
        assert type(event) is type(reference)
        assert_same_bits(event.time, reference.time)
        if isinstance(event, OdometrySample):
            assert_same_bits(event.sensor_id, reference.sensor_id)
            fields = ("position", "orientation", "velocity")
        else:
            fields = ("accel", "gyro")
        for name in fields:
            assert_same_bits(getattr(event, name), getattr(reference, name))


THREE_WAYPOINTS = np.array([[0.0, 0.0, 1.0], [1.5, -2.0, 0.5], [3.0, 1.0, 2.0]])


# The last case's segments end on the grid: the phase is exactly 0 at each
# interior waypoint, and the clamped last row has phase 1.
@pytest.mark.parametrize("kind,waypoints,duration", [("hover", None, 7.3),
                                                     ("figure8", None, 7.3),
                                                     ("waypoints", None, 7.3),
                                                     ("waypoints", THREE_WAYPOINTS, 7.3),
                                                     ("waypoints", None, 6.0)],
                         ids=["hover", "figure8", "waypoints", "three-waypoints",
                              "waypoints-ending-on-the-grid"])
@pytest.mark.parametrize("imu_rate", [50.0, 400.0])
def test_grid_evaluation_is_bitwise_equal_to_the_per_point_loop(kind, waypoints, duration,
                                                                 imu_rate):
    spec = ScenarioSpec(kind=kind, duration=duration, imu_rate=imu_rate, seed=4,
                        waypoints=waypoints, sensors=[
                            SensorSpec("odo0", rate=10.0, noise=NoiseSpec(gaussian_std=0.05)),
                            SensorSpec("odo1", rate=20.0, noise=NoiseSpec(
                                gaussian_std=0.02, jump_probability=0.1, jump_magnitude=10.0,
                                drift_rate=0.05, drift_start=2.0)),
                        ])
    truth, expected = generate_truth(spec), reference_truth(spec)
    for name in ("times", "positions", "velocities", "orientations", "accel_body",
                 "gyro_body"):
        assert_same_bits(getattr(truth, name), getattr(expected, name))

    events = sample_sensors(truth, spec)
    assert sum(isinstance(e, ImuSample) for e in events) == len(truth) - 1
    assert_same_stream(events, reference_events(expected, spec))


def first_and_last_trigger_seed(probability, samples):
    """A seed whose first sensor's triggers fire on its first and last sample, not on all."""
    for seed in range(1000):
        fired = np.random.default_rng([seed, 1]).random(samples) < probability
        if fired[0] and fired[-1] and not fired.all():
            return seed
    raise AssertionError("no such seed")


@pytest.mark.parametrize("noise", [
    NoiseSpec(gaussian_std=0.05, jump_probability=0.4, jump_magnitude=10.0, jump_duration=4),
    NoiseSpec(gaussian_std=0.05, jump_probability=1.0, jump_magnitude=5.0, jump_duration=2),
    NoiseSpec(gaussian_std=0.0, jump_probability=0.2, jump_magnitude=3.0),
    # Rotation noise of about 1e-10 rad takes the series branch below SMALL_ANGLE.
    NoiseSpec(gaussian_std=1e-10, jump_probability=0.2, jump_magnitude=4.0, jump_duration=3),
    NoiseSpec(gaussian_std=0.02, drift_rate=0.1),
    NoiseSpec(gaussian_std=0.02, drift_rate=-0.3, drift_start=1.05, drift_duration=0.6),
], ids=["overlapping-holds", "always-jumping", "noise-free", "series-branch-rotation-noise",
        "drift-from-zero-forever", "drift-window"])
def test_odometry_sampler_is_bitwise_equal_to_the_per_sample_loop(noise):
    spec = ScenarioSpec(kind="figure8", duration=4.0, seed=3,
                        sensors=[SensorSpec("odo0", rate=20.0, noise=noise)])
    truth = generate_truth(spec)
    assert_same_stream(sample_sensors(truth, spec), reference_events(truth, spec))


def test_orientation_noise_whose_norm_overflows_is_refused_as_by_the_loop():
    """The std bound refuses what would overflow the loop's rotation-vector norm."""
    spec = ScenarioSpec(kind="hover", duration=1.0, sensors=[
        SensorSpec("odo0", rate=10.0, noise=NoiseSpec(gaussian_std=1e200))])
    truth = generate_truth(ScenarioSpec(kind="hover", duration=1.0))
    assert refusal(spec, truth) == "noise_std must be at most 1e+150, got 1e+200"
    with (pytest.raises(ValueError, match="math domain error"),
          pytest.warns(RuntimeWarning, match="overflow encountered in dot")):
        reference_events(truth, spec)
    spec.sensors[0].noise.gaussian_std = 1e150  # the largest std allowed samples
    assert all(np.isfinite(e.orientation).all() for e in sample_sensors(truth, spec)
               if isinstance(e, OdometrySample))


def test_a_raise_with_the_collector_paused_restores_it(monkeypatch):
    def fail(*args):
        assert not gc.isenabled()
        raise RuntimeError("sampling failed")

    monkeypatch.setattr(sim, "_sample_odometry", fail)
    spec = scenario(duration=1.0)
    with pytest.raises(RuntimeError, match="sampling failed"):
        sample_sensors(generate_truth(spec), spec)
    assert gc.isenabled()


def test_waypoint_segments_ending_on_the_grid_reach_each_waypoint_at_rest():
    spec = scenario(kind="waypoints", duration=6.0, imu_rate=50.0)
    truth = generate_truth(spec)
    rows = [0, 100, 200, 300]
    assert truth.times[rows].tolist() == [0.0, 2.0, 4.0, 6.0]
    assert_same_bits(truth.positions[rows], np.array(
        [[0.0, 0.0, 1.0], [2.0, 0.0, 1.5], [2.0, 2.0, 1.0], [0.0, 2.0, 1.5]]))
    assert not truth.velocities[rows].any()


def test_sample_sensors_runs_no_collection_and_leaves_the_collector_enabled():
    spec = scenario(kind="figure8", duration=10.0, imu_rate=400.0, gaussian_std=0.05)
    truth = generate_truth(spec)
    collections = []

    def record(phase, info):
        if phase == "start":
            collections.append(info["generation"])

    assert gc.isenabled()
    gc.callbacks.append(record)
    try:
        sample_sensors(truth, spec)
    finally:
        gc.callbacks.remove(record)
    assert collections == []
    assert gc.isenabled()


def test_sample_sensors_leaves_a_disabled_collector_disabled():
    spec = scenario(duration=2.0)
    truth = generate_truth(spec)
    gc.disable()
    try:
        sample_sensors(truth, spec)
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_triggers_on_the_first_and_last_sample_match_the_per_sample_loop():
    noise = NoiseSpec(gaussian_std=0.05, jump_probability=0.3, jump_magnitude=8.0,
                      jump_duration=3)
    spec = ScenarioSpec(kind="figure8", duration=3.0, sensors=[SensorSpec("odo0", 10.0, noise)],
                        seed=first_and_last_trigger_seed(0.3, 30))
    truth = generate_truth(spec)
    events = sample_sensors(truth, spec)
    odometry = [e for e in events if isinstance(e, OdometrySample)]
    moved = [np.linalg.norm(e.position - truth.positions[truth.index_at(e.time)]) > 0.2
             for e in odometry]
    assert len(odometry) == 30 and moved[0] and moved[-1]
    assert_same_stream(events, reference_events(truth, spec))


def test_eleven_sensors_at_a_shared_instant_come_in_sensor_id_order():
    ids = [f"odom{i}" for i in range(12)]
    spec = ScenarioSpec(kind="hover", duration=1.0, seed=9, sensors=[
        SensorSpec(sensor_id, rate=10.0, noise=NoiseSpec(gaussian_std=0.01 * (i + 1)))
        for i, sensor_id in enumerate(ids)])
    truth = generate_truth(spec)
    events = sample_sensors(truth, spec)
    at_half = [e for e in events if e.time == truth.times[50]]
    assert isinstance(at_half[0], ImuSample)
    assert [e.sensor_id for e in at_half[1:]] == sorted(ids)
    assert [e.sensor_id for e in at_half[1:4]] == ["odom0", "odom1", "odom10"]
    assert_same_stream(events, reference_events(truth, spec))


def test_two_sensors_with_one_id_keep_their_list_order():
    spec = ScenarioSpec(kind="figure8", duration=2.0, seed=5, sensors=[
        SensorSpec("b", rate=10.0, noise=NoiseSpec(gaussian_std=0.01)),
        SensorSpec("a", rate=20.0, noise=NoiseSpec(gaussian_std=0.02)),
        SensorSpec("b", rate=10.0, noise=NoiseSpec(gaussian_std=1.0))])
    truth = generate_truth(spec)
    events = sample_sensors(truth, spec)
    at_one = [e for e in events if e.time == truth.times[100]]
    assert [getattr(e, "sensor_id", None) for e in at_one] == [None, "a", "b", "b"]
    errors = [np.linalg.norm(e.position - truth.positions[100]) for e in at_one[2:]]
    assert errors[0] < 0.1 < errors[1]  # the quiet "b" first, as listed
    assert_same_stream(events, reference_events(truth, spec))
