"""Synthetic truth generation and sensor corruption."""

import math

import numpy as np
import pytest

from corfuse.eskf import GRAVITY, ImuSample, OdometrySample, propagate_nominal
from corfuse.sim import (NoiseSpec, ScenarioSpec, SensorSpec, TruthTrajectory,
                         _sample_odometry, generate_truth, sample_sensors)
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
    for time in (-0.01, 0.2, 0.5, 1.01):
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


def test_sampler_is_bitwise_deterministic():
    spec = scenario(duration=3.0, gaussian_std=0.05, jump_probability=0.1,
                    jump_magnitude=10.0)
    truth = generate_truth(spec)
    first = sample_sensors(truth, spec)
    second = sample_sensors(truth, spec)
    assert len(first) == len(second)
    for a, b in zip(first, second):
        assert type(a) is type(b)
        if isinstance(a, ImuSample):
            assert np.array_equal(a.accel, b.accel)
            assert np.array_equal(a.gyro, b.gyro)
        else:
            assert np.array_equal(a.position, b.position)
            assert np.array_equal(a.orientation, b.orientation)


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
    spec = scenario(duration=3.0, sensors=[SensorSpec("odo0", rate=30.0),
                                           SensorSpec("bad", rate=rate)])
    truth = generate_truth(spec)
    with pytest.raises(ValueError, match=f"'bad' rate {rate} Hz must be positive and at most "
                                         "the IMU rate 100.0 Hz"):
        sample_sensors(truth, spec)
    spec.sensors.pop()
    odo = [e for e in sample_sensors(truth, spec) if isinstance(e, OdometrySample)]
    assert len(odo) == 100
    assert [truth.index_at(e.time) for e in odo] == list(range(3, 301, 3))


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


def test_noise_spec_validation():
    with pytest.raises(ValueError, match="length-9"):
        NoiseSpec(gaussian_std=np.ones(4)).std_vector()
    with pytest.raises(ValueError, match="length-3"):
        NoiseSpec(drift_rate=np.ones(2)).drift_vector()
    np.testing.assert_allclose(NoiseSpec(gaussian_std=0.2).std_vector(),
                               np.full(9, 0.2))


# -- reference: the per-point evaluation that generate_truth and sample_sensors
#    replaced by whole-grid arrays, kept here to pin their output bit for bit --

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


def reference_events(truth, spec):
    rng = np.random.default_rng([spec.seed, 0])
    events = []
    for k in range(len(truth) - 1):
        accel = truth.accel_body[k] + rng.standard_normal(3) * spec.imu_accel_std
        gyro = truth.gyro_body[k] + rng.standard_normal(3) * spec.imu_gyro_std
        events.append(ImuSample(accel=accel, gyro=gyro, time=float(truth.times[k + 1])))
    for index, sensor in enumerate(spec.sensors):
        events += _sample_odometry(truth, sensor, spec.imu_rate,
                                   np.random.default_rng([spec.seed, index + 1]))
    events.sort(key=lambda e: (e.time, isinstance(e, OdometrySample),
                               getattr(e, "sensor_id", "")))
    return events


def assert_same_bits(actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    assert np.array_equal(actual, expected)
    assert actual.tobytes() == expected.tobytes()  # signed zeros too


THREE_WAYPOINTS = np.array([[0.0, 0.0, 1.0], [1.5, -2.0, 0.5], [3.0, 1.0, 2.0]])


@pytest.mark.parametrize("kind,waypoints", [("hover", None), ("figure8", None),
                                            ("waypoints", None),
                                            ("waypoints", THREE_WAYPOINTS)],
                         ids=["hover", "figure8", "waypoints", "three-waypoints"])
@pytest.mark.parametrize("imu_rate", [50.0, 400.0])
def test_grid_evaluation_is_bitwise_equal_to_the_per_point_loop(kind, waypoints, imu_rate):
    spec = ScenarioSpec(kind=kind, duration=7.3, imu_rate=imu_rate, seed=4,
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

    events, expected_events = sample_sensors(truth, spec), reference_events(expected, spec)
    assert len(events) == len(expected_events)
    assert sum(isinstance(e, ImuSample) for e in events) == len(truth) - 1
    for event, reference in zip(events, expected_events):
        assert type(event) is type(reference)
        assert_same_bits(event.time, reference.time)
        if isinstance(event, OdometrySample):
            assert event.sensor_id == reference.sensor_id
            fields = ("position", "orientation", "velocity")
        else:
            fields = ("accel", "gyro")
        for name in fields:
            assert_same_bits(getattr(event, name), getattr(reference, name))
