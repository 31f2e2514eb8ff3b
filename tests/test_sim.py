"""Synthetic truth generation and sensor corruption."""

import numpy as np
import pytest

from corfuse.eskf import GRAVITY, ImuSample, NominalState, OdometrySample, propagate_nominal
from corfuse.sim import (NoiseSpec, ScenarioSpec, SensorSpec, TruthTrajectory,
                         generate_truth, sample_sensors)
from corfuse.so3 import quat_conjugate, quat_multiply, rotation_angle


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
