"""Error-state propagation, injection, and the fusion engine.

The transition Jacobian is checked against central finite differences of
the exact error propagation (propagate a perturbed true state and the
nominal side by side, re-extract the error). All three blocks of the
first-order model are exact derivatives at zero error, so the comparison
is tight.
"""

import logging
import math
from typing import NamedTuple

import numpy as np
import pytest
from general_h import check_identity_gamma

from corfuse.adapt_residual import DIAG_FLOOR, _mean
from corfuse.adapt_vb import backward_smooth, window_statistics
from corfuse.errors import MeasurementRejected, PropagationError
from corfuse.eskf import (GRAVITY, KERNEL_VARIANTS, QUAT_NORM_TOLERANCE, STATE_DIM, VARIANTS,
                          EngineConfig, FusionEngine, ImuSample, NominalState, OdometrySample,
                          error_transition, inject_and_reset,
                          observation_residual, propagate_nominal)
from corfuse.experiments import RunConfig, build_engine, build_scenario
from corfuse.filter_core import InnovationRecord
from corfuse.kernel_bandwidth import BandwidthState, adapt_bandwidth
from corfuse.linalg import floor_diagonal, psd_project
from corfuse.sim import generate_truth, sample_sensors
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
        y = observation_residual(state, z)
        np.testing.assert_allclose(y, delta, atol=1e-12)
        assert y.shape == (STATE_DIM,)  # the whole error state: H is the identity


def test_observation_residual_component_order():
    state = make_state()
    z = OdometrySample("odo", position=np.array([1.0, 2.0, 3.0]),
                       orientation=np.array([1.0, 0.0, 0.0, 0.0]),
                       velocity=np.array([4.0, 5.0, 6.0]), time=0.0)
    y = observation_residual(state, z)
    np.testing.assert_allclose(y[0:3], [1.0, 2.0, 3.0])
    np.testing.assert_allclose(y[3:6], [4.0, 5.0, 6.0])
    np.testing.assert_allclose(y[6:9], np.zeros(3), atol=1e-15)


@pytest.mark.parametrize("short_of_half_turn,warns", [(5e-11, True), (1e-6, False)])
def test_antipodal_residual_warning_names_the_sensor(caplog, short_of_half_turn, warns):
    """A relative rotation within 1e-9 rad of a half turn logs its sensor; y is the log map."""
    angle = np.pi - short_of_half_turn
    z = OdometrySample("cam7", np.zeros(3), np.array([np.cos(angle / 2), np.sin(angle / 2), 0, 0]),
                       np.zeros(3), time=1.5)
    with caplog.at_level(logging.WARNING, logger="corfuse.eskf"):
        y = observation_residual(make_state(), z)
    np.testing.assert_array_equal(y[6:9], quat_to_rotvec(z.orientation))
    assert y[6] == pytest.approx(angle, rel=1e-12)
    messages = [r.getMessage() for r in caplog.records]
    assert messages == (["antipodal orientation residual from sensor 'cam7' at t=1.500000"]
                        if warns else [])


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


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("index", [0, 4, 7])
def test_inject_refuses_a_non_finite_correction(index, value):
    delta = np.zeros(STATE_DIM)
    delta[index] = value
    with pytest.raises(ValueError, match="non-finite correction"):
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


class Fused(NamedTuple):
    """A correction the engine fused: its sensor and record, the state after it and R's trace."""

    sensor_id: str
    record: InnovationRecord
    state: NominalState
    noise_trace: float


def step(engine, event):
    """Process ``event``; a ``Fused`` for a correction, else None.

    The engine replaces its nominal state rather than changing it, so the
    state kept here stays the one the correction left.
    """
    record = engine.process(event)
    if record is None:
        return None
    return Fused(event.sensor_id, record, engine.state,
                 float(np.trace(engine.measurement_noise(event.sensor_id))))


def run_engine(config, events, noise=0.01):
    engine = FusionEngine(config, {s: noise for s in {e.sensor_id for e in events
                                                      if isinstance(e, OdometrySample)}})
    engine.initialize(make_state(), 1e-4)
    results = [r for e in events if (r := step(engine, e)) is not None]
    return engine, results


def test_engine_validates_construction():
    with pytest.raises(ValueError, match="variant"):
        FusionEngine(EngineConfig(variant="ukf"), {"odo0": 0.01})
    with pytest.raises(ValueError, match="sensor"):
        FusionEngine(EngineConfig(), {})
    with pytest.raises(ValueError, match="sigma_mode"):
        FusionEngine(EngineConfig(variant="mcckf", sigma_mode="Adaptive"), {"odo0": 0.01})


@pytest.mark.parametrize("field,settings", [
    ("sigma_static", {"sigma_static": 0.0}),
    ("sigma_static", {"sigma_static": np.nan}),
    ("sigma_static", {"sigma_static": -1.0}),
    ("sigma_static", {"sigma_static": np.inf}),
    ("sigma_min", {"sigma_min": 0.0}),
    ("sigma_min", {"sigma_min": np.nan}),
    ("sigma_max", {"sigma_max": np.nan}),
    ("sigma_max", {"sigma_min": 2.0, "sigma_max": 1.0}),
    ("sigma_static", {"sigma_static": 1e-200}),
    ("sigma_min", {"sigma_min": 1e-200}),
    ("sigma_static", {"sigma_static": 1e160}),
    ("sigma_max", {"sigma_max": 1e200}),
], ids=["static-zero", "static-nan", "static-negative", "static-inf", "min-zero", "min-nan",
        "max-nan", "min-above-max", "static-square-zero", "min-square-zero",
        "static-scale-overflow", "max-scale-overflow"])
def test_engine_refuses_bandwidths_that_poison_the_weights(field, settings):
    """A zero or NaN kernel size would make the first correction's state non-finite.

    One whose 2 sigma^2 overflows would warn in every kernel weight.
    """
    config = EngineConfig(variant="mcckf", sigma_mode="static", **settings)
    with pytest.raises(ValueError, match=field):
        FusionEngine(config, {"odo0": 0.01})


def test_initialize_keeps_the_symmetric_part_of_the_covariance():
    engine = FusionEngine(EngineConfig(variant="ekf"), {"odo0": 0.01})
    engine.initialize(make_state(), 1e-4)
    np.testing.assert_array_equal(engine.covariance, 1e-4 * np.eye(STATE_DIM))
    lopsided = np.eye(STATE_DIM)
    lopsided[0, 1] = 0.2
    engine.initialize(make_state(), lopsided)
    assert engine.covariance[0, 1] == engine.covariance[1, 0] == 0.1
    assert lopsided[0, 1] == 0.2  # the caller's matrix is left alone


@pytest.mark.parametrize("cov", [np.nan, np.inf, np.diag([1e-4] * 8 + [np.nan]),
                                 1e-4 * np.eye(8), np.ones(9)],
                         ids=["nan", "inf", "nan-entry", "8x8", "vector"])
def test_initialize_rejects_a_non_finite_or_misshapen_covariance(cov):
    engine = FusionEngine(EngineConfig(variant="ekf"), {"odo0": 0.01})
    with pytest.raises(ValueError, match="initial covariance"):
        engine.initialize(make_state(), cov)


@pytest.mark.parametrize("field,index", [("position", 0), ("velocity", 2), ("orientation", 3),
                                         ("time", None)])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_initialize_refuses_a_non_finite_state(field, index, value):
    """A NaN start would make every estimate NaN while the run still reports success."""
    engine = FusionEngine(EngineConfig(variant="ekf"), {"odo0": 0.01})
    state = make_state()
    if index is None:
        state.time = value
    else:
        getattr(state, field)[index] = value
    with pytest.raises(ValueError, match="initial state"):
        engine.initialize(state)
    with pytest.raises(RuntimeError, match="initialize"):
        engine.process(hover_imu(0.01))


@pytest.mark.parametrize("variant", ["vb-amcckf", "akf", "r-amcckf"])
def test_covariances_and_noise_scales_stay_exactly_symmetric(variant):
    """The VB window and recursions take filter_core's covariances as symmetric, bit for bit."""
    config = RunConfig(scenario="figure8", filter=variant, duration=3.0, seed=3, sensors=2,
                       window=5, jump_probability=0.1, jump_magnitude=30.0)
    scenario = build_scenario(config)
    truth = generate_truth(scenario)
    engine = build_engine(config, [sensor.sensor_id for sensor in scenario.sensors])
    engine.initialize(truth.state(0), config.p0)
    corrections = 0
    for event in sample_sensors(truth, scenario):
        record = engine.process(event)
        if record is None:
            continue
        corrections += 1
        matrices = [record.cov_pred, record.cov_post]
        if variant != "r-amcckf":
            matrices += [engine._adapter.T,
                         *(big_b for _, big_b in engine._adapter.measurement.values())]
        for matrix in matrices:
            assert np.array_equal(matrix, matrix.T)
    assert corrections == 60
    if variant != "r-amcckf":
        assert engine._adapter.t > 0.0


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


@pytest.mark.parametrize("orientation", [np.array([1.0, 0.0, 0.0, 0.0]),
                                         np.array([2.0, 0.0, 0.0, 0.0])],
                         ids=["fused", "refused"])
def test_odometry_before_any_imu_leaves_a_held_state_as_it_was(orientation):
    """The clock slides to the sample in a new NominalState; one read before keeps its time."""
    engine = FusionEngine(EngineConfig(variant="ekf"), {"odo0": 0.01})
    engine.initialize(make_state(), 1e-4)
    held = engine.state
    engine.process(OdometrySample("odo0", np.zeros(3), orientation, np.zeros(3), 0.5))
    assert held.time == 0.0
    assert engine.state is not held and engine.state.time == 0.5


@pytest.mark.parametrize("variant", ["akf", "vb-amcckf", "r-amcckf"])
def test_process_returns_the_record_the_noise_adapter_received(variant):
    engine = FusionEngine(EngineConfig(variant=variant), {"odo0": 0.01, "odo1": 0.01})
    engine.initialize(make_state(), 1e-4)
    fused = 0
    for event in hover_events(noise=0.005, seed=3, sensors=("odo0", "odo1")):
        record = engine.process(event)
        if record is None:
            continue
        fused += 1
        adapter = engine._adapter
        received = (adapter._newest[1] if variant == "r-amcckf"
                    else adapter.window.snapshots[-1].record)
        assert received is record
    assert fused == 40


@pytest.mark.parametrize("variant", ["ekf", "akf"])
def test_plain_variants_never_evaluate_a_bandwidth(variant, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a plain correction evaluated a kernel bandwidth")

    monkeypatch.setattr(BandwidthState, "update", refuse)
    _, results = run_engine(EngineConfig(variant=variant), hover_events(noise=0.005, seed=1))
    assert len(results) == 20
    assert all(result.record.bandwidth is None for result in results)


@pytest.mark.parametrize("sigma_mode", ["static", "adaptive"])
@pytest.mark.parametrize("variant", ["mcckf", "r-amcckf", "vb-amcckf"])
def test_kernel_record_holds_the_bandwidth_the_policy_returned(variant, sigma_mode,
                                                                monkeypatch):
    returned = []
    update = BandwidthState.update

    def spy(self, *args):
        returned.append(update(self, *args))
        return returned[-1]

    monkeypatch.setattr(BandwidthState, "update", spy)
    _, results = run_engine(EngineConfig(variant=variant, sigma_mode=sigma_mode),
                            hover_events(noise=0.005, seed=1))
    assert len(returned) == len(results) == 20
    for result, sigma in zip(results, returned):
        assert result.record.bandwidth is sigma


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
    record = engine.process(OdometrySample(
        "odo0", np.zeros(3), np.array([1.0, 0, 0, 0]), np.zeros(3), 0.03))
    assert record is not None and engine.state.time == 0.03


NON_FINITE_SLOTS = ([("imu", name, i) for name in ("accel", "gyro") for i in range(3)]
                    + [("odometry", name, i) for name, size in
                       (("position", 3), ("orientation", 4), ("velocity", 3))
                       for i in range(size)])


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("kind,name,index", NON_FINITE_SLOTS)
def test_every_non_finite_slot_is_dropped(kind, name, index, value):
    engine, _ = run_engine(EngineConfig(variant="mcckf"),
                           hover_events(duration=0.5, noise=0.005, seed=11))
    before, cov = engine.state.copy(), engine.covariance.copy()
    if kind == "imu":
        event = hover_imu(0.51)
    else:
        event = OdometrySample("odo0", np.zeros(3), np.array([1.0, 0.0, 0.0, 0.0]),
                               np.zeros(3), 0.51)
    getattr(event, name)[index] = value
    assert engine.process(event) is None
    assert engine.dropped == {"out_of_order": 0, "non_finite": 1, "rejected": 0}
    assert engine.state.time == before.time
    for field in ("position", "velocity", "orientation"):
        np.testing.assert_array_equal(getattr(engine.state, field), getattr(before, field))
    np.testing.assert_array_equal(engine.covariance, cov)


def test_imu_sample_whose_covariance_overflows_raises_and_leaves_the_filter_untouched():
    """A finite 1e200 m/s^2 sample overflows F P F^T; NumPy warns, the engine refuses it."""
    engine = FusionEngine(EngineConfig(variant="mcckf"), {"odo0": 0.01})
    engine.initialize(make_state(), 1e-4)
    engine.process(hover_imu(0.0))
    engine.process(hover_imu(0.01))
    before, cov = engine.state.copy(), engine.covariance.copy()
    huge = ImuSample(accel=np.array([1e200, 0.0, 0.0]), gyro=np.zeros(3), time=0.02)
    with pytest.raises(PropagationError), pytest.warns(RuntimeWarning, match="overflow"):
        engine.process(huge)
    assert engine.state.time == before.time
    for field in ("position", "velocity", "orientation"):
        np.testing.assert_array_equal(getattr(engine.state, field), getattr(before, field))
    np.testing.assert_array_equal(engine.covariance, cov)


def test_refused_imu_sample_leaves_the_imu_period_as_it_was():
    """A refused sample 5 ms into a 20 ms stream must not shorten the period to 5 ms.

    The shorter period would scale the next step's Q by 4; the engine that
    refused the sample must go on exactly as one that never saw it.
    """
    covariances = []
    for refused in (False, True):
        engine = FusionEngine(EngineConfig(variant="ekf"), {"odo0": 0.01})
        engine.initialize(make_state(), 1e-4)
        engine.process(hover_imu(0.0))
        engine.process(hover_imu(0.02))
        if refused:
            huge = ImuSample(accel=np.array([1e200, 0.0, 0.0]), gyro=np.zeros(3), time=0.025)
            with pytest.raises(PropagationError), pytest.warns(RuntimeWarning):
                engine.process(huge)
        engine.process(hover_imu(0.04))
        covariances.append(engine.covariance)
    np.testing.assert_array_equal(covariances[1], covariances[0])


@pytest.mark.parametrize("variant,position,orientation", [
    # The engine refuses a quaternion whose norm is far from 1 before it
    # computes a residual: a zero one, a tiny one (which would reach the log
    # map with w = 0) and one of norm 2 (which would be fused as a unit one).
    *[pytest.param(v, 0.0, q, id=f"{v}-{name}-quaternion") for v in VARIANTS
      for name, q in (("zero", np.zeros(4)), ("tiny", np.array([0.0, 1e-9, 0.0, 0.0])),
                      ("norm-2", np.array([2.0, 0.0, 0.0, 0.0])))],
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
        results = [step(engine, event) for event in stream]
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


@pytest.mark.parametrize("variant", KERNEL_VARIANTS)
def test_nan_weighted_correction_is_refused_and_leaves_the_filter_untouched(variant):
    """A correction whose kernel weights are NaN is refused.

    A kernel size that underflows no longer makes NaN weights (a zero
    innovation weighs 1), so a NaN size is set past the engine's check here.
    Every correction is then refused, and the filter ends as if it had seen
    the IMU alone.
    """
    events = hover_events(duration=1.0, sensors=("odo0", "odo1"))
    imu_events = [event for event in events if isinstance(event, ImuSample)]
    engine, imu_only = (FusionEngine(EngineConfig(variant=variant, sigma_mode="static"),
                                     {"odo0": 0.01, "odo1": 0.01}) for _ in range(2))
    engine._bandwidth.sigma_static = math.nan
    for each in (engine, imu_only):
        each.initialize(make_state(), 1e-4)
    assert [engine.process(event) for event in events] == [None] * len(events)
    for event in imu_events:
        imu_only.process(event)
    assert engine.dropped == {"out_of_order": 0, "non_finite": 0,
                              "rejected": len(events) - len(imu_events)}
    for name in ("position", "velocity", "orientation"):
        assert np.array_equal(getattr(engine.state, name), getattr(imu_only.state, name))
    assert np.array_equal(engine.covariance, imu_only.covariance)
    assert np.array_equal(engine.process_noise, imu_only.process_noise)
    for sensor_id in ("odo0", "odo1"):
        assert np.array_equal(engine.measurement_noise(sensor_id),
                              imu_only.measurement_noise(sensor_id))


@pytest.mark.parametrize("scale", [1.0 - 0.9 * QUAT_NORM_TOLERANCE,
                                   1.0 + 0.9 * QUAT_NORM_TOLERANCE])
def test_near_unit_quaternion_is_fused(scale):
    engine, _ = run_engine(EngineConfig(variant="mcckf"),
                           hover_events(duration=0.5, noise=0.005, seed=11))
    result = engine.process(OdometrySample("odo0", np.zeros(3),
                                           np.array([scale, 0.0, 0.0, 0.0]), np.zeros(3), 0.51))
    assert result is not None
    assert engine.dropped == {"out_of_order": 0, "non_finite": 0, "rejected": 0}


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
        np.testing.assert_allclose(result.record.bandwidth, 2.5)
    # each correction gets its own array: a write into one reaches no other
    results[0].record.bandwidth[:] = -1.0
    np.testing.assert_array_equal(results[1].record.bandwidth, np.full(9, 2.5))


def test_each_sensor_bandwidth_comes_from_its_own_noise():
    config = EngineConfig(variant="mcckf", adapt_q=False)
    noise = {"odo0": 0.01, "odo1": 0.5}
    engine = FusionEngine(config, noise)
    engine.initialize(make_state(), 1e-4)
    results = [r for e in hover_events(noise=0.05, seed=4, sensors=tuple(noise))
               if (r := step(engine, e)) is not None]
    assert [r.sensor_id for r in results[:2]] == ["odo0", "odo1"] and len(results) == 40

    def bandwidth(record, sensor_id):
        return adapt_bandwidth(record.innovation, noise[sensor_id] * np.eye(9), record.cov_pred,
                               config.sigma_min, config.sigma_max)

    for result in results:
        other = "odo1" if result.sensor_id == "odo0" else "odo0"
        np.testing.assert_array_equal(result.record.bandwidth,
                                      bandwidth(result.record, result.sensor_id))
        assert not np.array_equal(result.record.bandwidth, bandwidth(result.record, other))


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


@pytest.mark.parametrize("second", ["nan", "lost"])
def test_imu_period_recovers_from_a_lost_second_sample(second):
    """A 20 ms first gap on a 100 Hz stream must not halve every later step's Q."""
    def velocity_variance(events):
        engine = FusionEngine(EngineConfig(variant="ekf"), {"odo0": 0.01})
        engine.initialize(make_state(), 1e-4)
        for event in events:
            engine.process(event)
        return engine.covariance[3, 3]

    clean = [hover_imu(k / 100.0) for k in range(1, 101)]
    faulty = list(clean)
    if second == "nan":
        faulty[1] = ImuSample(accel=np.full(3, np.nan), gyro=np.zeros(3), time=0.02)
    else:
        del faulty[1]
    assert velocity_variance(faulty) == pytest.approx(velocity_variance(clean), rel=0.05)


def engine_with_covariance(where, value):
    """An ekf engine given ``value`` as its process noise, sensor noise or initial covariance."""
    config = EngineConfig(variant="ekf")
    if where == "process":
        config.process_noise = value
    engine = FusionEngine(config, {"odo0": value if where == "sensor" else 0.01})
    engine.initialize(make_state(), value if where == "initial" else 1e-4)
    return engine


def test_scalar_covariance_arguments_mean_that_value_times_identity():
    q = 1e-5
    readers = {"process": lambda e: e.process_noise, "initial": lambda e: e.covariance,
               "sensor": lambda e: e.measurement_noise("odo0")}
    for where, read in readers.items():
        np.testing.assert_array_equal(read(engine_with_covariance(where, q)),
                                      q * np.eye(STATE_DIM), err_msg=where)
    scalar, identity = (engine_with_covariance("process", v) for v in (q, q * np.eye(STATE_DIM)))
    for t in (0.01, 0.02):
        scalar.process(hover_imu(t))
        identity.process(hover_imu(t))
    np.testing.assert_array_equal(scalar.covariance, identity.covariance)


@pytest.mark.parametrize("where", ["process", "sensor", "initial"])
@pytest.mark.parametrize("value", [np.nan, 1e-5 * np.eye(3), np.diag([1e-5] * 8 + [np.inf])],
                         ids=["nan", "3x3", "inf-entry"])
def test_covariance_arguments_reject_non_finite_or_misshapen_values(where, value):
    with pytest.raises(ValueError, match="finite scalar or 9x9 matrix"):
        engine_with_covariance(where, value)


INDEFINITE = np.diag([1e-5] * 8 + [-1e-9])
SINGULAR = np.diag([1e-2] * 8 + [0.0])


@pytest.mark.parametrize("where, value, message", [
    ("sensor", 0.0, "noise of sensor 'odo0' must be positive definite"),
    ("sensor", -1e-3, "noise of sensor 'odo0' must be positive definite"),
    ("sensor", SINGULAR, "noise of sensor 'odo0' must be positive definite"),
    ("sensor", INDEFINITE, "noise of sensor 'odo0' must be positive definite"),
    ("process", -1e-5, "process noise must be positive semidefinite"),
    ("process", INDEFINITE, "process noise must be positive semidefinite"),
    ("initial", -1e-4, "initial covariance must be positive semidefinite"),
    ("initial", INDEFINITE, "initial covariance must be positive semidefinite"),
], ids=["sensor-zero", "sensor-negative", "sensor-singular", "sensor-indefinite",
        "process-negative", "process-indefinite", "initial-negative", "initial-indefinite"])
def test_covariance_arguments_reject_values_that_are_not_covariances(where, value, message):
    with pytest.raises(ValueError, match=message):
        engine_with_covariance(where, value)


@pytest.mark.parametrize("where", ["process", "initial"])
@pytest.mark.parametrize("value", [0.0, SINGULAR], ids=["zero", "singular"])
def test_process_noise_and_initial_covariance_may_be_singular(where, value):
    engine = engine_with_covariance(where, value)
    read = engine.process_noise if where == "process" else engine.covariance
    np.testing.assert_array_equal(read, value * np.eye(STATE_DIM))  # both are diagonal


@pytest.mark.parametrize("where", ["process", "initial"])
def test_rank_deficient_covariance_with_round_off_eigenvalues_is_accepted(where):
    """J diag(q) J^T with a 9x6 J is semidefinite; round-off gives it eigenvalues just below 0."""
    rng = np.random.default_rng(6)
    jac = rng.standard_normal((STATE_DIM, 6))
    value = jac @ np.diag(rng.uniform(1e-6, 1e-4, 6)) @ jac.T
    value = 0.5 * (value + value.T)
    assert np.linalg.eigvalsh(value)[0] < 0.0  # the case the tolerance is for
    engine = engine_with_covariance(where, value)
    read = engine.process_noise if where == "process" else engine.covariance
    np.testing.assert_array_equal(read, value)


def test_slightly_late_odometry_is_fused_at_the_current_time():
    """Odometry 0.5 ms behind the clock neither moves it back nor stretches the next step."""
    q0 = 1e-5
    config = EngineConfig(variant="ekf", process_noise=q0 * np.eye(STATE_DIM))
    engine = FusionEngine(config, {"odo0": 0.01})
    engine.initialize(make_state(), 1e-4)
    for t in (0.01, 0.02):
        engine.process(hover_imu(t))
    record = engine.process(OdometrySample("odo0", np.zeros(3), np.array([1.0, 0.0, 0.0, 0.0]),
                                           np.zeros(3), 0.0195))
    assert record is not None and engine.state.time == pytest.approx(0.02)
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
    adapter = engine._adapter
    refresh = adapter.refresh
    splits = []

    def spy():
        q_step, noise_by_sensor = refresh()
        if q_step is not None:
            gain = adapter._newest[1].gain
            interval_q = floor_diagonal(psd_project(gain @ _mean(adapter._yy) @ gain.T),
                                        DIAG_FLOOR)
            splits.append((interval_q, float(np.mean(adapter._intervals)), q_step))
        return q_step, noise_by_sensor

    adapter.refresh = spy
    for event in events:
        engine.process(event)
    assert len(splits) == 10
    assert [steps for _, steps, _ in splits] == pytest.approx([20.0] * 10)
    for interval_q, steps, q_step in splits:
        np.testing.assert_array_equal(
            q_step, floor_diagonal(psd_project(interval_q / steps), DIAG_FLOOR))
    assert engine.process_noise is splits[-1][2]


def test_vb_q_is_not_spread_over_less_than_one_step():
    """Odometry between IMU samples makes fractional transitions; Q stays T / t."""
    events = hover_events(duration=1.0, imu_rate=20.0, odom_rate=50.0, noise=0.005, seed=2)
    assert isinstance(events[-1], OdometrySample)
    engine, _ = run_engine(EngineConfig(variant="vb-amcckf", window=5), events)
    adapter = engine._adapter
    steps = window_statistics(adapter.window, *backward_smooth(adapter.window))[1]
    assert 0.0 < np.mean(steps) < 1.0
    np.testing.assert_array_equal(engine.process_noise,
                                  floor_diagonal(adapter.T / adapter.t, DIAG_FLOOR))
