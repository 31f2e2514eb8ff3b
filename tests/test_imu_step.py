"""The scalar ``so3`` helpers and the fused IMU step, bit for bit.

The references below are the elementwise NumPy forms of the ``so3``
helpers and the two-call IMU step (the error transition F, then the
nominal propagation, each building R(q) and exp(w dt) itself) that the
scalar helpers and ``eskf.imu_step`` replace.  Both must agree to the last
bit, so that every estimate stays identical; the engine's covariance must
equal ``filter_core.predict`` of the reference F.
"""

import numpy as np
import pytest

from corfuse import eskf, so3
from corfuse.errors import PropagationError
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
# engine


def figure8_imu(n=2000):
    spec = ScenarioSpec(kind="figure8", duration=n / 100.0 + 0.05, imu_rate=100.0, seed=8)
    imu = [e for e in sample_sensors(generate_truth(spec), spec)
           if isinstance(e, ImuSample)][:n]
    assert len(imu) == n
    still = ImuSample(accel=imu[-1].accel.copy(), gyro=np.zeros(3), time=imu[-1].time + 0.01)
    return imu + [still]


def initial_state():
    return NominalState(np.array([0.0, 0.0, 1.0]), np.array([0.1, 0.1, 0.02]),
                        np.array([1.0, 0.0, 0.0, 0.0]), 0.0)


@pytest.mark.parametrize("variant", ["mcckf", "vb-amcckf"])
def test_engine_imu_step_is_bitwise_equal_to_the_two_call_composition(variant):
    samples = figure8_imu()
    config = EngineConfig(variant=variant)
    engine = FusionEngine(config, {"odo0": 0.01})
    engine.initialize(initial_state(), 1e-4)
    for imu in samples:
        engine.process(imu)

    # The engine's IMU handling, on the reference helpers.
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
            trans = ref_error_transition(nominal, imu, dt)
            cov = predict(cov, trans, config.process_noise * scale)
            nominal = ref_propagate_nominal(nominal, imu, dt)
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
