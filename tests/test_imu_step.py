"""The scalar ``so3`` helpers and the fused IMU step: bit for bit, and within a round-off budget.

The references below are the elementwise NumPy forms of the ``so3``
helpers and the two-call IMU step (the error transition F, then the
nominal propagation, each building R(q) and exp(w dt) itself).  The scalar
helpers must equal their NumPy forms to the last bit.

The IMU step runs on Python floats, and a Python sum of products rounds
differently from BLAS ``@`` and ``dot``.  So it is checked twice: bit for
bit against the same two calls written out on Python floats (sums left to
right, |w dt| and the quaternion norm by ``math.hypot``), which the
engine's covariance must also reproduce through ``filter_core.predict``;
and against the NumPy two-call step within the budget that
``test_imu_step_is_within_the_round_off_budget_of_the_numpy_reference``
states.
"""

import math

import numpy as np
import pytest

from corfuse import eskf, so3
from corfuse.errors import MeasurementRejected, PropagationError
from corfuse.eskf import (GRAVITY, STATE_DIM, EngineConfig, FusionEngine, ImuSample,
                          NominalState)
from corfuse.filter_core import predict
from corfuse.sim import ScenarioSpec, generate_truth, sample_sensors

N = 10_000


# ---------------------------------------------------------------------------
# reference helpers: elementwise NumPy


def ref_skew(v):
    x, y, z = v
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def ref_quat_multiply(a, b):
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return np.array([
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    ])


def ref_quat_conjugate(q):
    return np.array([q[0], -q[1], -q[2], -q[3]])


def ref_quat_normalize(q):
    return np.asarray(q, dtype=float) / np.linalg.norm(q)


def ref_quat_to_rotmat(q):
    w, x, y, z = q
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def ref_quat_from_rotvec(v):
    v = np.asarray(v, dtype=float)
    angle = np.linalg.norm(v)
    if angle < 1e-8:
        half = 0.5 - angle * angle / 48.0
        q = np.concatenate(([1.0 - angle * angle / 8.0], half * v))
        return ref_quat_normalize(q)
    axis = v / angle
    half_angle = 0.5 * angle
    return np.concatenate(([np.cos(half_angle)], np.sin(half_angle) * axis))


def ref_quat_to_rotvec(q):
    q = np.asarray(q, dtype=float)
    if q[0] < 0.0:
        q = -q
    w = min(q[0], 1.0)
    vec = q[1:]
    s = np.linalg.norm(vec)
    if s < 1e-8:
        return vec * (2.0 / w)
    angle = 2.0 * np.arctan2(s, w)
    return vec * (angle / s)


def ref_rotvec_to_rotmat(v):
    return ref_quat_to_rotmat(ref_quat_from_rotvec(v))


def ref_rotation_angle(q):
    w = abs(float(q[0]))
    s = float(np.linalg.norm(q[1:]))
    return 2.0 * np.arctan2(s, min(w, 1.0))


def ref_propagate_nominal(state, imu, dt):
    rot = ref_quat_to_rotmat(state.orientation)
    position = state.position + state.velocity * dt
    velocity = state.velocity + (rot @ imu.accel + GRAVITY) * dt
    orientation = ref_quat_normalize(
        ref_quat_multiply(state.orientation, ref_quat_from_rotvec(imu.gyro * dt)))
    return NominalState(position, velocity, orientation, state.time + dt)


def ref_error_transition(state, imu, dt):
    trans = np.eye(STATE_DIM)
    trans[0:3, 3:6] = dt * np.eye(3)
    rot = ref_quat_to_rotmat(state.orientation)
    trans[3:6, 6:9] = -(rot @ ref_skew(imu.accel)) * dt
    trans[6:9, 6:9] = ref_rotvec_to_rotmat(imu.gyro * dt).T
    return trans


# ---------------------------------------------------------------------------
# reference IMU step: the same two calls on Python floats


def float_quat_from_rotvec(v):
    """exp(v) on floats, its angle by ``math.hypot``; the series branch as in NumPy."""
    angle = math.hypot(*v)
    if angle < 1e-8:
        return ref_quat_from_rotvec(np.array(v)).tolist()
    s = math.sin(0.5 * angle)
    return [math.cos(0.5 * angle)] + [s * (c / angle) for c in v]


def float_rotmat(q):
    """R(q) as nested float lists; the elementwise form on floats."""
    return ref_quat_to_rotmat(list(q)).tolist()


def float_propagate_nominal(state, imu, dt):
    rot = float_rotmat(state.orientation.tolist())
    ax, ay, az = imu.accel.tolist()
    position = [p + v * dt for p, v in zip(state.position.tolist(), state.velocity.tolist())]
    velocity = [v + (r0 * ax + r1 * ay + r2 * az + g) * dt
                for v, (r0, r1, r2), g in zip(state.velocity.tolist(), rot, GRAVITY.tolist())]
    delta = float_quat_from_rotvec([c * dt for c in imu.gyro.tolist()])
    product = ref_quat_multiply(state.orientation.tolist(), delta).tolist()
    norm = math.hypot(*product)
    return NominalState(np.array(position), np.array(velocity),
                        np.array([c / norm for c in product]), state.time + dt)


def float_error_transition(state, imu, dt):
    trans = np.eye(STATE_DIM)
    trans[0:3, 3:6] = dt * np.eye(3)
    ax, ay, az = (c * dt for c in imu.accel.tolist())
    # Row i of -R [a]x dt is (a dt) x r_i, for r_i the i-th row of R.
    for i, (r0, r1, r2) in enumerate(float_rotmat(state.orientation.tolist())):
        trans[3 + i, 6:9] = [ay * r2 - az * r1, az * r0 - ax * r2, ax * r1 - ay * r0]
    delta = float_quat_from_rotvec([c * dt for c in imu.gyro.tolist()])
    trans[6:9, 6:9] = np.array(float_rotmat(delta)).T
    return trans


# ---------------------------------------------------------------------------
# inputs


def directions(rng, n, dim):
    d = rng.standard_normal((n, dim))
    return d / np.linalg.norm(d, axis=1, keepdims=True)


def rotvecs(rng):
    """Rotation vectors over the series branch, zero, general angles and pi."""
    axes = directions(rng, N, 3)
    angles = np.concatenate([
        10.0 ** rng.uniform(-14, -8, N // 5),            # series branch
        np.zeros(N // 20),
        1e-8 * (1.0 + rng.uniform(-1e-6, 1e-6, N // 20)),  # at the branch threshold
        rng.uniform(0.0, 2.0 * np.pi, N // 4),
        np.pi + rng.uniform(-1e-6, 1e-6, N // 5),         # near a half turn
        10.0 ** rng.uniform(-8, 1, N),
    ])[:N]
    return axes * angles[:, None]


def quaternions(rng):
    """Unit quaternions with either sign of w, small and half-turn angles."""
    small = np.zeros((N // 5, 4))
    small[:, 0] = 1.0
    small[:, 1:] = directions(rng, N // 5, 3) * 10.0 ** rng.uniform(-14, -8, (N // 5, 1))
    half_turn = np.zeros((N // 5, 4))
    half_turn[:, 0] = rng.uniform(-1e-7, 1e-7, N // 5)
    half_turn[:, 1:] = directions(rng, N // 5, 3)
    general = directions(rng, N, 4)
    q = np.concatenate([small, half_turn, general])[:N]
    q = q / np.linalg.norm(q, axis=1, keepdims=True)
    flip = rng.random(N) < 0.5
    q[flip] = -q[flip]
    q[0] = [1.0, 0.0, 0.0, 0.0]
    q[1] = [-1.0, 0.0, 0.0, 0.0]
    return q


def raw_vectors(rng, dim):
    """Non-unit vectors over twelve decades of scale, w of either sign."""
    return rng.standard_normal((N, dim)) * 10.0 ** rng.uniform(-6, 6, (N, 1))


# ---------------------------------------------------------------------------
# helpers


def assert_bitwise_equal(got, want):
    """Equal bit patterns, so -0.0 differs from 0.0 and NaN payloads count."""
    got, want = np.array(got, dtype=float), np.array(want, dtype=float)
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("name,reference,make_inputs", [
    ("skew", ref_skew, lambda rng: raw_vectors(rng, 3)),
    ("quat_conjugate", ref_quat_conjugate, lambda rng: raw_vectors(rng, 4)),
    ("quat_normalize", ref_quat_normalize, lambda rng: raw_vectors(rng, 4)),
    ("quat_to_rotmat", ref_quat_to_rotmat, quaternions),
    ("quat_from_rotvec", ref_quat_from_rotvec, rotvecs),
    ("rotvec_to_rotmat", ref_rotvec_to_rotmat, rotvecs),
    ("quat_to_rotvec", ref_quat_to_rotvec, quaternions),
    ("rotation_angle", ref_rotation_angle, quaternions),
])
def test_scalar_helper_is_bitwise_equal_to_numpy_form(name, reference, make_inputs):
    helper = getattr(so3, name)
    inputs = make_inputs(np.random.default_rng(len(name)))
    assert_bitwise_equal([helper(x) for x in inputs], [reference(x) for x in inputs])


def test_scalar_quat_multiply_is_bitwise_equal_to_numpy_form():
    rng = np.random.default_rng(11)
    pairs = list(zip(quaternions(rng), raw_vectors(rng, 4)))
    assert_bitwise_equal([so3.quat_multiply(a, b) for a, b in pairs],
                         [ref_quat_multiply(a, b) for a, b in pairs])
    assert_bitwise_equal([so3.quat_multiply(b, a) for a, b in pairs],
                         [ref_quat_multiply(b, a) for a, b in pairs])


# ---------------------------------------------------------------------------
# the IMU step


PERIOD = 0.0025


def signed_zeros(rng, values, share=0.3):
    """``values`` with about ``share`` of its entries replaced by 0.0 or -0.0."""
    values = np.array(values, dtype=float)
    zero = rng.random(values.shape) < share
    values[zero] = np.where(rng.random(values.shape) < 0.5, 0.0, -0.0)[zero]
    return values


def step_inputs(rng, kind, quat):
    """A state at orientation ``quat``, a sample and a dt; ``kind`` picks the rate, zeros or dt."""
    state = NominalState(rng.standard_normal(3) * 10.0, rng.standard_normal(3), quat,
                         float(rng.uniform(0.0, 60.0)))
    accel = rng.standard_normal(3) * 10.0
    gyro = rng.standard_normal(3)
    dt = PERIOD
    if kind == "small-angle":                 # |w dt| below SMALL_ANGLE
        gyro = directions(rng, 1, 3)[0] * 10.0 ** rng.uniform(-12, np.log10(so3.SMALL_ANGLE / dt))
    elif kind == "zero-rate":                 # w exactly 0, of either sign
        gyro = signed_zeros(rng, np.zeros(3), share=1.0)
    elif kind == "signed-zeros":
        quat = signed_zeros(rng, quat)
        quat[0] = quat[0] or 1.0              # a zero quaternion has no normalization
        state = NominalState(signed_zeros(rng, state.position), signed_zeros(rng, state.velocity),
                             quat, state.time)
        accel, gyro = signed_zeros(rng, accel), signed_zeros(rng, gyro)
    elif kind == "off-period":                # a lost or early sample: scale != 1
        dt = PERIOD * float(rng.choice([0.5, 2.0, 3.0, rng.uniform(0.1, 4.0)]))
    return state, ImuSample(accel=accel, gyro=gyro, time=state.time + dt), dt


@pytest.mark.parametrize("kind", ["general", "small-angle", "zero-rate", "signed-zeros",
                                  "off-period"])
def test_imu_step_is_bitwise_equal_to_the_reference(kind):
    rng = np.random.default_rng(len(kind))
    for quat in quaternions(rng)[::5]:
        state, imu, dt = step_inputs(rng, kind, quat)
        nominal, trans = eskf.imu_step(state, imu, dt)
        want = float_propagate_nominal(state, imu, dt)
        assert nominal.time == want.time
        for name in ("position", "velocity", "orientation"):
            assert_bitwise_equal(getattr(nominal, name), getattr(want, name))
        assert_bitwise_equal(trans, float_error_transition(state, imu, dt))


# Units of round-off allowed per entry, against the NumPy two-call step.
BUDGET = 4.0 * np.finfo(float).eps


def round_off_scales(state, imu, dt):
    """Per entry of (position, velocity, orientation, F): the sum of the magnitudes
    of the terms its formula adds, the scale its rounding error is measured in.

    The constant entries of F (its 0s, 1s and dts) have scale 0, so must be
    exact.  The orientation and the attitude block are built from unit
    quaternions, whose product's terms sum to at most 1 in magnitude.
    """
    rot = np.abs(ref_quat_to_rotmat(state.orientation))
    position = np.abs(state.position) + np.abs(state.velocity) * dt
    velocity = np.abs(state.velocity) + (rot @ np.abs(imu.accel) + np.abs(GRAVITY)) * dt
    trans = np.zeros((STATE_DIM, STATE_DIM))
    trans[3:6, 6:9] = rot @ np.abs(ref_skew(imu.accel)) * dt
    trans[6:9, 6:9] = 1.0
    return position, velocity, np.ones(4), trans


@pytest.mark.parametrize("kind", ["general", "small-angle", "zero-rate", "signed-zeros",
                                  "off-period"])
def test_imu_step_is_within_the_round_off_budget_of_the_numpy_reference(kind):
    """Each entry within BUDGET times its scale of the NumPy step's entry.

    0.0 and -0.0 count as equal: they are the same number, and the sums and
    products that ``predict`` and the next step form from them take equal
    values from either, at most a zero of the other sign.  The step does
    give 0.0 where the NumPy step gives -0.0 in F, and the reverse, about
    once a step on the signed-zero inputs.
    """
    rng = np.random.default_rng(len(kind))
    worst = 0.0
    for quat in quaternions(rng)[::5]:
        state, imu, dt = step_inputs(rng, kind, quat)
        nominal, trans = eskf.imu_step(state, imu, dt)
        want = ref_propagate_nominal(state, imu, dt)
        got = (nominal.position, nominal.velocity, nominal.orientation, trans)
        wanted = (want.position, want.velocity, want.orientation,
                  ref_error_transition(state, imu, dt))
        for value, reference, scale in zip(got, wanted, round_off_scales(state, imu, dt)):
            error = np.abs(value - reference)
            assert (error <= BUDGET * scale).all(), (kind, value, reference)
            worst = max(worst, float((error / np.where(scale > 0.0, scale, 1.0)).max()))
    assert worst > 0.0  # the two steps do round differently


@pytest.mark.parametrize("field", ["accel", "gyro"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_public_imu_step_refuses_a_non_finite_sample(field, value):
    imu = ImuSample(accel=np.array([0.0, 0.0, 9.81]), gyro=np.zeros(3), time=PERIOD)
    getattr(imu, field)[1] = value
    with pytest.raises(MeasurementRejected, match="non-finite IMU sample"):
        eskf.imu_step(initial_state(), imu, PERIOD)


# ---------------------------------------------------------------------------
# engine


def figure8_imu(n=2000, lost=()):
    """``n`` figure-8 IMU samples less the ``lost`` indices, then one with w = 0."""
    spec = ScenarioSpec(kind="figure8", duration=n / 100.0 + 0.05, imu_rate=100.0, seed=8)
    imu = [e for e in sample_sensors(generate_truth(spec), spec)
           if isinstance(e, ImuSample)][:n]
    assert len(imu) == n
    still = ImuSample(accel=imu[-1].accel.copy(), gyro=np.zeros(3), time=imu[-1].time + 0.01)
    return [sample for k, sample in enumerate(imu) if k not in lost] + [still]


def initial_state():
    return NominalState(np.array([0.0, 0.0, 1.0]), np.array([0.1, 0.1, 0.02]),
                        np.array([1.0, 0.0, 0.0, 0.0]), 0.0)


@pytest.mark.parametrize("variant", ["mcckf", "vb-amcckf"])
def test_engine_imu_step_is_bitwise_equal_to_the_two_call_composition(variant):
    # Lost samples make steps of two and three periods: process noise scales by dt / period.
    samples = figure8_imu(lost=(500, 1200, 1201))
    config = EngineConfig(variant=variant)
    engine = FusionEngine(config, {"odo0": 0.01})
    engine.initialize(initial_state(), 1e-4)
    for imu in samples:
        engine.process(imu)

    # The engine's IMU handling, on the float reference step.
    nominal = initial_state()
    cov = 1e-4 * np.eye(STATE_DIM)
    frame = np.eye(STATE_DIM)
    period, last = None, None
    for imu in samples:
        dt = max(imu.time - nominal.time, 0.0)
        if dt > 0.0:
            if period is None and last is not None:
                period = imu.time - last.time
            scale = dt / period if period else 1.0
            trans = float_error_transition(nominal, imu, dt)
            cov = predict(cov, trans, config.process_noise * scale)
            nominal = float_propagate_nominal(nominal, imu, dt)
            frame = trans @ frame
        last = imu

    state = engine.state
    assert state.time == nominal.time
    np.testing.assert_array_equal(state.position, nominal.position)
    np.testing.assert_array_equal(state.velocity, nominal.velocity)
    np.testing.assert_array_equal(state.orientation, nominal.orientation)
    np.testing.assert_array_equal(engine.covariance, cov)
    if variant == "vb-amcckf":
        np.testing.assert_array_equal(engine._adapter._trans, frame)


def test_failed_predict_leaves_the_engine_state_as_it_was(monkeypatch):
    samples = figure8_imu(20)
    engine = FusionEngine(EngineConfig(variant="mcckf"), {"odo0": 0.01})
    engine.initialize(initial_state(), 1e-4)
    for imu in samples[:10]:
        engine.process(imu)
    before, cov = engine.state.copy(), engine.covariance.copy()

    def broken_predict(*args):
        raise PropagationError("deliberately broken prediction")

    monkeypatch.setattr(eskf, "predict", broken_predict)
    with pytest.raises(PropagationError):
        engine.process(samples[10])
    assert engine.state.time == before.time
    np.testing.assert_array_equal(engine.state.position, before.position)
    np.testing.assert_array_equal(engine.state.velocity, before.velocity)
    np.testing.assert_array_equal(engine.state.orientation, before.orientation)
    np.testing.assert_array_equal(engine.covariance, cov)
