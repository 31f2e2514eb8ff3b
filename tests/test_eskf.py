"""Error-state propagation, injection, and the fusion engine.

The transition Jacobian is checked against central finite differences of
the exact error propagation (propagate a perturbed true state and the
nominal side by side, re-extract the error). All three blocks of the
first-order model are exact derivatives at zero error, so the comparison
is tight.
"""

import numpy as np
import pytest

from corfuse.adapt_residual import check_identity_gamma
from corfuse.errors import MeasurementRejected
from corfuse.eskf import (GRAVITY, STATE_DIM, VARIANTS, EngineConfig, FusionEngine,
                          ImuSample, NominalState, OdometrySample,
                          error_transition, inject_and_reset,
                          observation_residual, propagate_nominal)
from corfuse.so3 import (quat_conjugate, quat_from_rotvec, quat_multiply,
                         quat_normalize, quat_to_rotvec)


def make_state(rng=None, time=0.0):
    if rng is None:
        return NominalState(np.zeros(3), np.zeros(3),
                            np.array([1.0, 0.0, 0.0, 0.0]), time)
    return NominalState(rng.standard_normal(3), rng.standard_normal(3),
                        quat_normalize(rng.standard_normal(4)), time)


def hover_imu(time):
    return ImuSample(accel=np.array([0.0, 0.0, 9.81]), gyro=np.zeros(3),
                     time=time)


def apply_error(state, delta):
    """True state implied by a nominal state and an error vector."""
    return NominalState(
        state.position + delta[0:3], state.velocity + delta[3:6],
        quat_normalize(quat_multiply(state.orientation,
                                     quat_from_rotvec(delta[6:9]))),
        state.time)


def extract_error(nominal, true_state):
    q_rel = quat_multiply(quat_conjugate(nominal.orientation),
                          true_state.orientation)
    return np.concatenate([
        true_state.position - nominal.position,
        true_state.velocity - nominal.velocity,
        quat_to_rotvec(q_rel),
    ])


# ---------------------------------------------------------------------------
# nominal propagation


def test_hover_propagation_is_stationary():
    state = make_state()
    for k in range(100):
        state = propagate_nominal(state, hover_imu(k * 0.01), 0.01)
    np.testing.assert_allclose(state.position, np.zeros(3), atol=1e-12)
    np.testing.assert_allclose(state.velocity, np.zeros(3), atol=1e-12)
    assert state.time == pytest.approx(1.0)


def test_constant_acceleration_kinematics():
    state = make_state()
    # 1 m/s^2 along x on top of gravity compensation, level attitude
    imu = ImuSample(accel=np.array([1.0, 0.0, 9.81]), gyro=np.zeros(3), time=0.0)
    dt = 0.001
    for _ in range(1000):
        state = propagate_nominal(state, imu, dt)
    assert state.velocity[0] == pytest.approx(1.0, rel=1e-9)
    # first-order integrator: p lags the exact 0.5 a t^2 by one half step
    assert state.position[0] == pytest.approx(0.5, rel=2e-3)


def test_pure_rotation_integrates_angle():
    state = make_state()
    rate = np.array([0.0, 0.0, 0.5])
    imu = ImuSample(accel=np.array([0.0, 0.0, 9.81]), gyro=rate, time=0.0)
    for _ in range(200):
        state = propagate_nominal(state, imu, 0.01)
    np.testing.assert_allclose(quat_to_rotvec(state.orientation),
                               rate * 2.0, atol=1e-9)


def test_propagation_rejects_non_finite_imu():
    bad = ImuSample(accel=np.array([np.nan, 0.0, 9.81]), gyro=np.zeros(3),
                    time=0.0)
    with pytest.raises(MeasurementRejected):
        propagate_nominal(make_state(), bad, 0.01)


def test_quaternion_norm_stays_unit_over_long_runs():
    rng = np.random.default_rng(9)
    state = make_state(rng)
    worst = 0.0
    for k in range(10_000):
        imu = ImuSample(accel=rng.standard_normal(3),
                        gyro=0.2 * rng.standard_normal(3), time=k * 0.01)
        state = propagate_nominal(state, imu, 0.01)
        worst = max(worst, abs(np.linalg.norm(state.orientation) - 1.0))
    assert worst < 1e-9


# ---------------------------------------------------------------------------
# error transition Jacobian


def test_error_transition_matches_finite_differences():
    rng = np.random.default_rng(12)
    dt, eps = 0.01, 1e-5
    for _ in range(20):
        state = make_state(rng)
        imu = ImuSample(accel=3.0 * rng.standard_normal(3),
                        gyro=rng.standard_normal(3), time=0.0)
        model = error_transition(state, imu, dt)
        nominal_next = propagate_nominal(state, imu, dt)
        numeric = np.zeros((STATE_DIM, STATE_DIM))
        for j in range(STATE_DIM):
            step = np.zeros(STATE_DIM)
            step[j] = eps
            plus = propagate_nominal(apply_error(state, step), imu, dt)
            minus = propagate_nominal(apply_error(state, -step), imu, dt)
            numeric[:, j] = (extract_error(nominal_next, plus)
                             - extract_error(nominal_next, minus)) / (2 * eps)
        assert np.max(np.abs(numeric - model)) < 1e-6


def test_error_transition_blocks():
    state = make_state()
    imu = ImuSample(accel=np.array([0.0, 0.0, 9.81]), gyro=np.zeros(3), time=0.0)
    trans = error_transition(state, imu, 0.1)
    np.testing.assert_allclose(trans[0:3, 3:6], 0.1 * np.eye(3))
    np.testing.assert_allclose(trans[6:9, 6:9], np.eye(3))
    # level hover couples attitude error into horizontal velocity error
    assert trans[3, 7] == pytest.approx(0.981)
    assert trans[4, 6] == pytest.approx(-0.981)


# ---------------------------------------------------------------------------
# residual and injection


def test_observation_residual_recovers_small_errors():
    rng = np.random.default_rng(13)
    for _ in range(50):
        state = make_state(rng)
        delta = 1e-3 * rng.standard_normal(STATE_DIM)
        true_state = apply_error(state, delta)
        z = OdometrySample("odo", true_state.position, true_state.orientation,
                           true_state.velocity, time=0.0)
        y, obs_jac = observation_residual(state, z)
        np.testing.assert_allclose(y, delta, atol=1e-12)
        np.testing.assert_allclose(obs_jac, np.eye(STATE_DIM))


def test_observation_residual_component_order():
    state = make_state()
    z = OdometrySample("odo", position=np.array([1.0, 2.0, 3.0]),
                       orientation=np.array([1.0, 0.0, 0.0, 0.0]),
                       velocity=np.array([4.0, 5.0, 6.0]), time=0.0)
    y, _ = observation_residual(state, z)
    np.testing.assert_allclose(y[0:3], [1.0, 2.0, 3.0])
    np.testing.assert_allclose(y[3:6], [4.0, 5.0, 6.0])
    np.testing.assert_allclose(y[6:9], np.zeros(3), atol=1e-15)


def test_inject_and_reset_round_trip():
    rng = np.random.default_rng(14)
    state = make_state(rng)
    delta = 0.1 * rng.standard_normal(STATE_DIM)
    updated = inject_and_reset(state, delta)
    np.testing.assert_allclose(extract_error(state, updated), delta,
                               atol=1e-12)
    assert updated.time == state.time


def test_inject_rejects_half_turn_corrections():
    delta = np.zeros(STATE_DIM)
    delta[6:9] = [np.pi, 0.0, 0.0]
    with pytest.raises(ValueError):
        inject_and_reset(make_state(), delta)


# ---------------------------------------------------------------------------
# fusion engine


def hover_events(duration=2.0, imu_rate=100.0, odom_rate=10.0, noise=0.0,
                 seed=0, sensors=("odo0",)):
    rng = np.random.default_rng(seed)
    events = []
    n_imu = int(duration * imu_rate)
    for k in range(1, n_imu + 1):
        events.append(hover_imu(k / imu_rate))
    n_odo = int(duration * odom_rate)
    for sensor in sensors:
        for k in range(1, n_odo + 1):
            t = k / odom_rate
            events.append(OdometrySample(
                sensor, position=noise * rng.standard_normal(3),
                orientation=quat_normalize(
                    np.concatenate(([1.0], noise * rng.standard_normal(3)))),
                velocity=noise * rng.standard_normal(3), time=t))
    events.sort(key=lambda e: e.time)
    return events


def run_engine(config, events, noise=0.01):
    engine = FusionEngine(config, {s: noise for s in {e.sensor_id for e in events
                                                      if isinstance(e, OdometrySample)}})
    engine.initialize(make_state(), 1e-4)
    results = [r for e in events if (r := engine.process(e)) is not None]
    return engine, results


def test_engine_validates_construction():
    with pytest.raises(ValueError, match="variant"):
        FusionEngine(EngineConfig(variant="ukf"), {"odo0": 0.01})
    with pytest.raises(ValueError, match="sensor"):
        FusionEngine(EngineConfig(), {})


def test_engine_requires_initialization():
    engine = FusionEngine(EngineConfig(variant="ekf"), {"odo0": 0.01})
    with pytest.raises(RuntimeError):
        engine.process(hover_imu(0.01))


def test_engine_tracks_hover_with_noisy_odometry():
    config = EngineConfig(variant="ekf", adapt_q=False)
    engine, results = run_engine(config, hover_events(noise=0.005, seed=3))
    assert len(results) == 20
    assert np.linalg.norm(engine.state.position) < 0.02
    assert np.min(np.linalg.eigvalsh(engine.covariance)) >= -1e-12


def test_engine_is_deterministic():
    config = EngineConfig(variant="vb-amcckf")
    _, first = run_engine(config, hover_events(noise=0.005, seed=7))
    _, second = run_engine(config, hover_events(noise=0.005, seed=7))
    assert np.array_equal(first[-1].state.position, second[-1].state.position)
    assert np.array_equal(first[-1].record.cov_post, second[-1].record.cov_post)
    assert first[-1].noise_trace == second[-1].noise_trace


def test_engine_drops_bad_events_and_counts_them():
    config = EngineConfig(variant="ekf")
    engine = FusionEngine(config, {"odo0": 0.01})
    engine.initialize(make_state())
    engine.process(hover_imu(0.01))
    assert engine.process(ImuSample(np.array([np.nan, 0, 0]), np.zeros(3),
                                    0.02)) is None
    assert engine.process(OdometrySample(
        "odo0", np.array([np.inf, 0, 0]), np.array([1.0, 0, 0, 0]),
        np.zeros(3), 0.03)) is None
    assert engine.process(hover_imu(-5.0)) is None
    assert engine.dropped == {"out_of_order": 1, "non_finite": 2, "rejected": 0}
    with pytest.raises(ValueError, match="unknown sensor"):
        engine.process(OdometrySample("ghost", np.zeros(3),
                                      np.array([1.0, 0, 0, 0]), np.zeros(3), 0.04))


def test_engine_drops_non_finite_timestamps_and_counts_them():
    engine = FusionEngine(EngineConfig(variant="ekf"), {"odo0": 0.01})
    engine.initialize(make_state())
    engine.process(hover_imu(0.01))
    for time in (np.nan, np.inf):
        assert engine.process(OdometrySample(
            "odo0", np.zeros(3), np.array([1.0, 0, 0, 0]), np.zeros(3), time)) is None
        assert engine.process(hover_imu(time)) is None
    assert engine.dropped == {"out_of_order": 0, "non_finite": 4, "rejected": 0}
    # the clock is untouched, so later events still propagate the filter
    engine.process(hover_imu(0.02))
    assert engine.state.time == pytest.approx(0.02)
    result = engine.process(OdometrySample(
        "odo0", np.zeros(3), np.array([1.0, 0, 0, 0]), np.zeros(3), 0.03))
    assert result is not None and result.time == 0.03


@pytest.mark.parametrize("variant,position,orientation", [
    # The engine refuses a zero quaternion before it computes a residual.
    *[pytest.param(v, 0.0, np.zeros(4), id=f"{v}-zero-quaternion") for v in VARIANTS],
    # The reset refuses the half-turn attitude correction of a 1 km jump.
    pytest.param("akf", 1000.0, np.array([1.0, 0.0, 0.0, 0.0]), id="akf-1km-jump"),
])
def test_refused_correction_is_counted_and_leaves_the_filter_untouched(
        variant, position, orientation):
    events = hover_events(duration=2.0, noise=0.005, seed=5, sensors=("odo0", "odo1"))
    cut = max(k for k, e in enumerate(events) if e.time <= 1.0) + 1
    bad = OdometrySample("odo0", np.array([position, 0.0, 0.0]), orientation,
                         np.zeros(3), 1.0)
    finals = []
    for stream in (events, events[:cut] + [bad] + events[cut:]):
        engine = FusionEngine(EngineConfig(variant=variant), {"odo0": 0.01, "odo1": 0.01})
        engine.initialize(make_state(), 1e-4)
        results = [engine.process(event) for event in stream]
        finals.append((engine, results))
    (clean, clean_results), (engine, results) = finals
    assert results[cut] is None
    assert engine.dropped == {"out_of_order": 0, "non_finite": 0, "rejected": 1}
    # Every later output matches the stream without the refused sample, bit for bit.
    assert [r is None for r in results[cut + 1:]] == [r is None for r in clean_results[cut:]]
    for ours, theirs in zip(results[cut + 1:], clean_results[cut:]):
        if ours is not None:
            assert np.array_equal(ours.state.position, theirs.state.position)
            assert ours.noise_trace == theirs.noise_trace
    assert np.array_equal(engine.covariance, clean.covariance)
    assert np.array_equal(engine.process_noise, clean.process_noise)


def test_engine_scalar_noise_becomes_diagonal_matrix():
    engine = FusionEngine(EngineConfig(variant="ekf"), {"odo0": 0.04})
    np.testing.assert_allclose(engine.measurement_noise("odo0"),
                               0.04 * np.eye(9))
    assert engine.sensor_ids() == ["odo0"]


def test_static_bandwidth_is_reported_constant():
    config = EngineConfig(variant="mcckf", sigma_mode="static",
                          sigma_static=2.5, adapt_q=False)
    _, results = run_engine(config, hover_events(noise=0.005, seed=1))
    for result in results:
        np.testing.assert_allclose(result.bandwidth, 2.5)


def test_self_check_identity_on_plain_corrections():
    config = EngineConfig(variant="ekf", adapt_q=False)
    engine, results = run_engine(config, hover_events(noise=0.005, seed=2))
    assert results
    for result in results:
        assert check_identity_gamma(result.record, engine.measurement_noise("odo0")) < 1e-8


def test_adaptive_noise_grows_under_inflated_residuals():
    """Start R at 1e-4 against odometry noise of std 0.1 per axis."""
    events = hover_events(duration=3.0, noise=0.1, seed=11)
    for variant in ("akf", "vb-amcckf", "r-amcckf"):
        config = EngineConfig(variant=variant, adapt_q=False)
        engine, results = run_engine(config, events, noise=1e-4)
        configured_trace = 9 * 1e-4
        assert results[-1].noise_trace > 10 * configured_trace, variant


def test_two_sensor_noise_is_tracked_separately():
    events = hover_events(duration=3.0, noise=0.005, seed=5,
                          sensors=("odo0", "odo1"))
    config = EngineConfig(variant="vb-amcckf", adapt_q=False)
    engine = FusionEngine(config, {"odo0": 0.01, "odo1": 0.01})
    engine.initialize(make_state())
    for event in events:
        if isinstance(event, OdometrySample) and event.sensor_id == "odo1":
            event.position = event.position + np.array([0.0, 0.0, 0.3])
        engine.process(event)
    # the biased sensor must end up with the larger estimated noise
    assert (np.trace(engine.measurement_noise("odo1"))
            > np.trace(engine.measurement_noise("odo0")))


def test_imu_period_is_measured_between_imu_samples():
    """Odometry at 3 ms before IMU at 10 ms, 20 ms, ...: each IMU step gets one Q.

    Measuring the period from the odometry sample would read 7 ms and
    inflate every later step's process noise by 10/7.
    """
    q0 = 1e-5
    config = EngineConfig(variant="ekf", adapt_q=False,
                          process_noise=q0 * np.eye(STATE_DIM))
    engine = FusionEngine(config, {"odo0": 0.01})
    engine.initialize(make_state(), 1e-4)
    engine.process(OdometrySample("odo0", np.zeros(3), np.array([1.0, 0.0, 0.0, 0.0]),
                                  np.zeros(3), 0.003))
    for t in (0.01, 0.02):
        engine.process(hover_imu(t))
    before, cov = engine.state.copy(), engine.covariance.copy()
    imu = hover_imu(0.03)
    engine.process(imu)
    trans = error_transition(before, imu, imu.time - before.time)
    expected = trans @ cov @ trans.T + q0 * np.eye(STATE_DIM)
    np.testing.assert_allclose(engine.covariance, 0.5 * (expected + expected.T),
                               rtol=1e-9, atol=0.0)


def test_slightly_late_odometry_is_fused_at_the_current_time():
    """Odometry 0.5 ms behind the clock neither moves it back nor stretches the next step."""
    q0 = 1e-5
    config = EngineConfig(variant="ekf", process_noise=q0 * np.eye(STATE_DIM))
    engine = FusionEngine(config, {"odo0": 0.01})
    engine.initialize(make_state(), 1e-4)
    for t in (0.01, 0.02):
        engine.process(hover_imu(t))
    result = engine.process(OdometrySample("odo0", np.zeros(3), np.array([1.0, 0.0, 0.0, 0.0]),
                                           np.zeros(3), 0.0195))
    assert result is not None and result.time == engine.state.time == pytest.approx(0.02)
    assert engine.dropped == {"out_of_order": 0, "non_finite": 0, "rejected": 0}
    before, cov = engine.state.copy(), engine.covariance.copy()
    imu = hover_imu(0.03)
    engine.process(imu)
    assert engine.state.time == pytest.approx(0.03, abs=1e-15)
    trans = error_transition(before, imu, 0.01)
    expected = trans @ cov @ trans.T + q0 * np.eye(STATE_DIM)
    np.testing.assert_allclose(engine.covariance, 0.5 * (expected + expected.T),
                               rtol=1e-9, atol=0.0)


def test_residual_q_split_uses_the_q_sensor_interval():
    """Q per interval is divided by the first sensor's 20 IMU steps, not another's 5."""
    events = hover_events(duration=2.0, imu_rate=100.0, odom_rate=20.0, noise=0.005,
                          seed=4, sensors=("fast",))
    events += [e for e in hover_events(duration=2.0, imu_rate=100.0, odom_rate=5.0,
                                       noise=0.005, seed=6, sensors=("slow",))
               if isinstance(e, OdometrySample)]
    events.sort(key=lambda e: e.time)
    config = EngineConfig(variant="r-amcckf")
    engine = FusionEngine(config, {"slow": 0.01, "fast": 0.01})
    engine.initialize(make_state(), 1e-4)
    interval_steps = []
    set_process_noise = engine._set_process_noise

    def spy(q_interval, steps):
        interval_steps.append(steps)
        set_process_noise(q_interval, steps)

    engine._set_process_noise = spy
    for event in events:
        engine.process(event)
    assert len(interval_steps) == 10
    assert interval_steps == pytest.approx([20.0] * 10)
