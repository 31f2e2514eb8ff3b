"""The odometry correction's shortcuts, bit for bit.

The correction takes H to be the identity and skips its products; the
kernel bandwidth and the residual's relative quaternion run on Python
floats; the kernel weights evaluate both exponents in one array, in place,
by a plain divide unless a guard could fire; the matrix products go through
``ndarray.dot`` rather than ``@``; the injection takes its norm with
``math.sqrt``.  Each must give the very
bits of the form it replaces, so that every estimate stays identical: the
correction those of the textbook general-H correction with a writable
``np.eye(9)`` (``general_h.general_update``), and the other forms those of
the NumPy bodies copied below as references.

The exponentials stay ``np.exp``: on 2,000,000 exponents drawn uniformly
from [-700, 0] (``np.random.default_rng(0)``), ``math.exp`` differed from
``np.exp`` in the last bit on 92,528 (4.6 %) with NumPy 2.4, so a float
``math.exp`` would move the weights.
"""

import logging
import math
import warnings

import numpy as np
import pytest
from general_h import general_update
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corfuse.eskf import NominalState, OdometrySample, inject_and_reset, observation_residual
from corfuse import filter_core
from corfuse.filter_core import (EXP_FLOOR, CorrentropyWeights, correntropy_weights, kf_update,
                                 mcckf_update)
from corfuse.kernel_bandwidth import adapt_bandwidth
from corfuse.so3 import (quat_conjugate, quat_from_rotvec, quat_multiply, quat_normalize,
                         quat_to_rotvec)

DIM = 9


def assert_same_bits(got, want):
    """Equal values and equal sign bits, so -0.0 differs from 0.0."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert np.array_equal(got, want)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


# ---------------------------------------------------------------------------
# references: the NumPy bodies the float forms replace


def ref_adapt_bandwidth(innovation, noise_prev, obs_jacobian, cov_pred, sigma_min, sigma_max):
    y = np.asarray(innovation, dtype=float)
    r_diag = np.diag(np.asarray(noise_prev, dtype=float))
    h = np.asarray(obs_jacobian, dtype=float)
    hph = np.einsum("ij,jk,ik->i", h, np.asarray(cov_pred, dtype=float), h)
    denom = y * y / r_diag + hph
    with np.errstate(divide="ignore"):
        sigma = 1.0 / denom
    return np.minimum(np.maximum(sigma, sigma_min), sigma_max)


def ref_correntropy_weights(innovation, noise, bandwidth):
    y = np.asarray(innovation, dtype=float)
    sigma = np.asarray(bandwidth, dtype=float)
    r_diag = np.diag(np.asarray(noise, dtype=float))
    y2 = y * y
    expo_l = np.maximum(-y2 / (2.0 * sigma * sigma), EXP_FLOOR)
    expo_c = np.maximum(-y2 / (2.0 * sigma * sigma * r_diag), EXP_FLOOR)
    return CorrentropyWeights(unweighted=np.exp(expo_l), weighted=np.exp(expo_c))


def ref_observation_residual(state, z):
    rotvec = quat_to_rotvec(quat_multiply(quat_conjugate(state.orientation), z.orientation))
    return np.concatenate([z.position - state.position, z.velocity - state.velocity, rotvec])


def ref_inject_and_reset(state, delta):
    dtheta = delta[6:9]
    if np.linalg.norm(dtheta) >= np.pi:
        raise ValueError("attitude correction of half a turn or more")
    position = state.position + delta[0:3]
    velocity = state.velocity + delta[3:6]
    orientation = quat_normalize(
        quat_multiply(state.orientation, quat_from_rotvec(dtheta)))
    return NominalState(position, velocity, orientation, state.time)


# ---------------------------------------------------------------------------
# inputs


def random_psd(rng, rank=DIM):
    """A PSD matrix of the given rank over several decades of scale, exactly symmetric."""
    a = rng.standard_normal((DIM, rank)) * 10.0 ** rng.uniform(-4, 1)
    p = a @ a.T
    return 0.5 * (p + p.T)


def random_noise(rng):
    """A positive-definite R with off-diagonal structure."""
    return random_psd(rng) + 10.0 ** rng.uniform(-4, 0) * np.eye(DIM)


def random_quaternion(rng):
    """Unit quaternions of either sign of w, some with components exactly zero."""
    q = rng.standard_normal(4)
    q[rng.random(4) < 0.25] = 0.0
    if not q.any():
        q[0] = -1.0
    return quat_normalize(q)


def random_vector(rng, dim):
    """Entries over twelve decades of either sign, some exactly zero or -0.0."""
    v = rng.standard_normal(dim) * 10.0 ** rng.uniform(-6, 6, dim)
    v[rng.random(dim) < 0.1] = 0.0
    v[rng.random(dim) < 0.1] = -0.0
    return v


# ---------------------------------------------------------------------------
# identity observation matrix


def assert_same_correction(got, want):
    (got_delta, got_rec), (want_delta, want_rec) = got, want
    assert_same_bits(got_delta, want_delta)
    for name in ("cov_post", "gain", "residual"):
        assert_same_bits(getattr(got_rec, name), getattr(want_rec, name))
    assert got_rec.regularized == want_rec.regularized


def test_identity_observation_path_equals_the_general_path(trials=600, seed=61):
    """The library correction equals the general-H reference with a writable np.eye(9)."""
    rng = np.random.default_rng(seed)
    floored = 0
    for k in range(trials):
        cov = random_psd(rng, rank=int(rng.integers(1, DIM + 1)))
        noise = random_noise(rng)
        y = rng.standard_normal(DIM) * 10.0 ** rng.uniform(-3, 3)
        # Kernel sizes down to 1e-3 drive some weights to the exp(-700) floor.
        sigma = 10.0 ** rng.uniform(-3, 3, DIM)
        eye = np.eye(DIM)
        assert eye.flags.writeable
        fast = mcckf_update(cov, y, noise, sigma)
        assert_same_correction(fast, general_update(cov, y, eye, noise, sigma))
        floored += int(np.sum(fast[1].weights.weighted == np.exp(EXP_FLOOR)))
        assert_same_correction(kf_update(cov, y, noise), general_update(cov, y, eye, noise))
    assert floored > 0


def test_identity_observation_path_equals_the_general_path_under_a_ridge(caplog):
    """P = 0 and a rank-one R make S singular, so both paths solve with a ridge."""
    cov, noise = np.zeros((DIM, DIM)), np.full((DIM, DIM), 0.01)
    y = np.linspace(-1.0, 1.0, DIM)
    with caplog.at_level(logging.WARNING, logger="corfuse.filter_core"):
        for update, args in ((kf_update, ()), (mcckf_update, (np.full(DIM, 0.1),))):
            fast = update(cov, y, noise, *args)
            assert fast[1].regularized
            assert_same_correction(fast, general_update(cov, y, np.eye(DIM), noise, *args))


# ---------------------------------------------------------------------------
# kernel arithmetic


def test_kernel_equals_the_numpy_forms(trials=10_000, seed=67):
    rng = np.random.default_rng(seed)
    sigma_min, sigma_max = 0.5, 1e6
    at_min = at_max = floored = 0
    h = np.eye(DIM)
    for k in range(trials):
        cov = random_psd(rng, rank=int(rng.integers(1, DIM + 1)))
        zero = rng.random(DIM) < 0.1
        cov[zero] = cov[:, zero] = 0.0                        # P_ii = 0
        noise = random_noise(rng)
        y = random_vector(rng, DIM)
        if k % 10 == 0:
            y[0], cov[0], cov[:, 0] = 0.0, 0.0, 0.0           # y = 0 with P_ii = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sigma = adapt_bandwidth(y, noise, cov, sigma_min, sigma_max)
            weights = correntropy_weights(y, noise, sigma)
        assert_same_bits(sigma, ref_adapt_bandwidth(y, noise, h, cov, sigma_min, sigma_max))
        want = ref_correntropy_weights(y, noise, sigma)
        assert_same_bits(weights.unweighted, want.unweighted)
        assert_same_bits(weights.weighted, want.weighted)
        if k % 10 == 0:
            assert sigma[0] == sigma_max
        at_min += int(np.sum(sigma == sigma_min))
        at_max += int(np.sum(sigma == sigma_max))
        floored += int(np.sum(weights.weighted == np.exp(EXP_FLOOR)))
    assert at_min and at_max and floored


def test_weights_equal_the_numpy_form_on_any_kernel_size(trials=10_000, seed=71):
    rng = np.random.default_rng(seed)
    floored = 0
    for _ in range(trials):
        y = random_vector(rng, DIM)
        noise = random_noise(rng)
        sigma = 10.0 ** rng.uniform(-3, 6, DIM)
        got, want = correntropy_weights(y, noise, sigma), ref_correntropy_weights(y, noise, sigma)
        assert_same_bits(got.unweighted, want.unweighted)
        assert_same_bits(got.weighted, want.weighted)
        floored += int(np.sum(got.unweighted == np.exp(EXP_FLOOR)))
    assert floored


def test_an_innovation_whose_square_overflows_weighs_the_floor_silently():
    """|y| >= 2^512 squares to inf: it weighs the floor, and every other weight keeps its bits."""
    edge = 2.0 ** 512
    y = np.array([1e160, -edge, np.nextafter(edge, 0.0), -1e154, 0.5, 0.0, 3.0, -1e-3, 1e160])
    noise = np.diag(10.0 ** np.arange(-4.0, 5.0))
    sigma = np.array([1.0, 2.0, 1e6, 1e6, 0.5, 1e-3, 1.0, 1.0, 1e6])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = correntropy_weights(y, noise, sigma)
    with np.errstate(over="ignore"):
        want = ref_correntropy_weights(y, noise, sigma)
    assert_same_bits(got.unweighted, want.unweighted)
    assert_same_bits(got.weighted, want.weighted)
    floor = np.exp(EXP_FLOOR)
    assert got.unweighted[0] == got.weighted[0] == got.unweighted[1] == floor
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        one = correntropy_weights(np.array([1e160]), np.eye(1), np.array([1.0]))
    assert one.unweighted[0] == one.weighted[0] == floor


def guarded_correntropy_weights(innovation, noise, bandwidth):
    """The weights with the guarded divide on every input, as before the plain-divide path."""
    y = np.asarray(innovation, dtype=float)
    scale = [-2.0 * s * s for s in np.asarray(bandwidth, dtype=float).tolist()]
    r_diag = np.asarray(noise, dtype=float).diagonal().tolist()
    denom = np.array((scale, [a * b for a, b in zip(scale, r_diag)]))
    y2 = np.array([v * v for v in y.tolist()])
    expo = np.divide(y2, denom, out=np.where(y != 0.0, -np.inf, denom),
                     where=(denom != 0.0) & ~(y2 * 2.0 ** -1023 >= np.abs(denom)))
    unweighted, weighted = np.exp(np.maximum(expo, EXP_FLOOR, out=expo), out=expo)
    return CorrentropyWeights(unweighted=unweighted, weighted=weighted)


# With a kernel size of 2^-500 and R_jj = 1 both denominators are -2^-999, and
# y^2 2^-1023 meets them at y = 2^12.
EDGE = 4096.0
BELOW, ABOVE = np.nextafter(EDGE, 0.0), np.nextafter(EDGE, np.inf)
# (y, R_jj, kernel size, whether the guarded divide runs)
GUARD_CASES = [
    (BELOW, 1.0, 2.0 ** -500, False),   # y^2 2^-1023 just below |d|
    (EDGE, 1.0, 2.0 ** -500, True),     # equal to it
    (ABOVE, 1.0, 2.0 ** -500, True),    # just above it
    (3.0, 1.0, 1e200, False),           # d overflows to -inf: weight 1
    (3.0, 1e10, 1e150, False),          # only the weighted d overflows
    (3.0, 1.0, 1e-200, True),           # d underflows to -0.0
    (0.0, 1.0, 1e-200, True),           # a zero y over a zero d: weight 1
    (0.0, 1.0, 2.0, False),             # y = 0
    (-0.0, 1e-4, 0.5, False),
    (2.0 ** 512, 1.0, 2.0, True),       # y^2 overflows to inf
    (-1e300, 1.0, 1e6, True),
]


@pytest.mark.parametrize("y,r_jj,sigma,guarded", GUARD_CASES)
def test_the_guarded_divide_runs_only_where_a_guard_could_fire(y, r_jj, sigma, guarded,
                                                               monkeypatch):
    """Eight ordinary channels beside one edge channel; the guard runs for the edge alone."""
    calls = []
    divide = np.divide

    def spy(*args, **kwargs):
        calls.append(args)
        return divide(*args, **kwargs)

    innovation = np.array([y, 0.3, -1.0, 2e-3, 0.0, 5.0, -7.0, 1e-6, 0.1])
    noise = np.diag([r_jj, 1.0, 0.5, 2.0, 1e-3, 1.0, 1.0, 0.1, 10.0])
    bandwidth = np.array([sigma, 1.0, 2.0, 0.5, 1.0, 3.0, 1e3, 1.0, 1.0])
    with monkeypatch.context() as patch:
        patch.setattr(filter_core.np, "divide", spy)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = correntropy_weights(innovation, noise, bandwidth)
    assert bool(calls) == guarded
    with np.errstate(all="ignore"):
        want = guarded_correntropy_weights(innovation, noise, bandwidth)
    assert got.unweighted.tobytes() == want.unweighted.tobytes()
    assert got.weighted.tobytes() == want.weighted.tobytes()


def test_an_empty_innovation_has_empty_weights():
    weights = correntropy_weights(np.zeros(0), np.zeros((0, 0)), np.zeros(0))
    assert weights.unweighted.shape == weights.weighted.shape == (0,)


ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True)


@settings(max_examples=400, deadline=None)
@given(st.lists(st.tuples(ANY_FLOAT, ANY_FLOAT, ANY_FLOAT), min_size=1, max_size=9))
@example([(case[0], case[1], case[2]) for case in GUARD_CASES[:9]])
@example([(BELOW, 1.0, 2.0 ** -500), (ABOVE, 1.0, 2.0 ** -500)])
@example([(2.0 ** 512, 1.0, 2.0), (0.0, 1.0, 1e-200), (3.0, 1.0, 1e200)])
@example([(float("nan"), 1.0, 1.0), (1.0, 1.0, 1.0)])
@example([(1.0, 1.0, 1.0), (float("nan"), 1.0, 1.0), (1.0, 1.0, 1e-200)])
@example([(1.0, 1.0, 1.0), (1.0, float("nan"), 1.0), (1.0, 1.0, float("nan"))])
def test_weights_equal_the_guarded_form_byte_for_byte(channels):
    """On any (y, R_jj, kernel size) per channel, NaN and the infinities included."""
    y, r_diag, sigma = (np.array(column) for column in zip(*channels))
    with np.errstate(all="ignore"):
        got = correntropy_weights(y, np.diag(r_diag), sigma)
        want = guarded_correntropy_weights(y, np.diag(r_diag), sigma)
    assert got.unweighted.tobytes() == want.unweighted.tobytes()
    assert got.weighted.tobytes() == want.weighted.tobytes()


# ---------------------------------------------------------------------------
# matrix products


def signed_entries(rng, shape):
    """Entries of either sign over 1e-150..1e150 in scale, about a fifth exactly +-0.0."""
    values = rng.standard_normal(shape) * 10.0 ** rng.choice([-150, -12, 0, 12, 150], shape)
    zeros = np.where(rng.random(shape) < 0.5, 0.0, -0.0)
    return np.where(rng.random(shape) < 0.2, zeros, values)


def test_dot_equals_matmul_byte_for_byte_on_the_correction_shapes(trials=2_000, seed=83):
    """``a.dot(b)`` makes the BLAS call ``a @ b`` makes, for every shape the filter uses.

    9x9 by 9x9 with either operand transposed (a product of a matrix and its
    own transpose included), 9x9 by 9, 9 by 9, and 3x3 by 3x3.  Should a
    NumPy or BLAS upgrade part them, this fails before any estimate moves.
    """
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        a, b, c = (signed_entries(rng, (DIM, DIM)) for _ in range(3))
        v, w = signed_entries(rng, DIM), signed_entries(rng, DIM)
        m, n = signed_entries(rng, (3, 3)), signed_entries(rng, (3, 3))
        pairs = [(a, b), (a.T, b), (a, b.T), (a.T, b.T), (a, a.T), (a.T, a), (a, v), (a.T, v),
                 (v, w), (v, a), (m, n), (m, n.T), (m.T, n), (m, m.T)]
        with np.errstate(all="ignore"):
            for left, right in pairs:
                assert left.dot(right).tobytes() == (left @ right).tobytes()
            assert a.dot(b).dot(a.T).tobytes() == (a @ b @ a.T).tobytes()
            assert (a.dot(b).dot(a.T) + c.dot(b).dot(c.T)).tobytes() == (
                a @ b @ a.T + c @ b @ c.T).tobytes()


# ---------------------------------------------------------------------------
# residual and injection


def random_state(rng):
    return NominalState(random_vector(rng, 3), random_vector(rng, 3), random_quaternion(rng),
                        float(rng.uniform(0.0, 100.0)))


def test_residual_equals_the_numpy_form(trials=5_000, seed=73):
    rng = np.random.default_rng(seed)
    for k in range(trials):
        state = random_state(rng)
        position, velocity = random_vector(rng, 3), random_vector(rng, 3)
        if k % 5 == 0:   # exactly on the nominal: the residual is zero
            position, velocity = state.position.copy(), state.velocity.copy()
        quat = random_quaternion(rng) if k % 7 else -state.orientation
        z = OdometrySample("odo", position, quat, velocity, time=state.time)
        y = observation_residual(state, z)
        assert_same_bits(y, ref_observation_residual(state, z))


def test_injection_equals_the_numpy_form(trials=5_000, seed=79):
    rng = np.random.default_rng(seed)
    for k in range(trials):
        state = random_state(rng)
        delta = random_vector(rng, DIM)
        delta[6:9] *= 10.0 ** rng.uniform(-12, 0.6) / max(np.linalg.norm(delta[6:9]), 1e-300)
        try:
            want = ref_inject_and_reset(state, delta)
        except ValueError:
            with pytest.raises(ValueError, match="half a turn"):
                inject_and_reset(state, delta)
            continue
        got = inject_and_reset(state, delta)
        for name in ("position", "velocity", "orientation"):
            assert_same_bits(getattr(got, name), getattr(want, name))
        assert got.time == want.time
