"""Core prediction and correction operators.

The correction tests lean on two independent oracles: a dense textbook
implementation of the information-form gain written with plain numpy
inverses, and hand-evaluated scalar cases.  The library computes the gain
in covariance form with one Cholesky solve, so the information-form oracle
shares no code path with it: agreement checks the matrix inversion lemma
as well as the implementation.
"""

import numpy as np
import pytest

from corfuse.errors import MeasurementRejected, PropagationError
from corfuse.filter_core import (CorrentropyWeights, GaussianBelief,
                                 correntropy_weights, kf_update, mcckf_update,
                                 predict)


def random_spd(rng, n, scale=1.0):
    a = rng.standard_normal((n, n))
    return scale * (a @ a.T + n * np.eye(n))


def textbook_weighted_update(mean, cov, z, h_mat, r, c_diag):
    """Dense reference for the weighted gain, written the slow way.

    Uses the symmetric split sqrt(C) R^-1 sqrt(C) so the information
    term stays symmetric even for dense noise matrices.
    """
    p_inv = np.linalg.inv(cov)
    r_inv = np.linalg.inv(r)
    root = np.sqrt(c_diag)
    cr = root[:, None] * r_inv * root[None, :]
    info = p_inv + h_mat.T @ cr @ h_mat
    gain = np.linalg.inv(info) @ h_mat.T @ cr
    y = z - h_mat @ mean
    new_mean = mean + gain @ y
    ikh = np.eye(len(mean)) - gain @ h_mat
    new_cov = ikh @ cov @ ikh.T + gain @ r @ gain.T
    return new_mean, 0.5 * (new_cov + new_cov.T), gain


# ---------------------------------------------------------------------------
# predict


def test_predict_identity_transition_adds_noise():
    belief = GaussianBelief(mean=np.array([1.0]), cov=np.array([[1.0]]), time=0.0)
    out = predict(belief, np.eye(1), np.array([[0.5]]), 1.0)
    assert out.cov[0, 0] == pytest.approx(1.5)
    assert out.time == pytest.approx(1.0)


def test_predict_zero_covariance_zero_noise_stays_zero():
    belief = GaussianBelief(mean=np.zeros(2), cov=np.zeros((2, 2)))
    out = predict(belief, np.eye(2), np.zeros((2, 2)), 0.1)
    np.testing.assert_array_equal(out.cov, np.zeros((2, 2)))


def test_predict_constant_velocity_matches_dense_oracle():
    dt = 0.1
    f = np.array([[1.0, dt], [0.0, 1.0]])
    q = 0.01 * np.eye(2)
    p = np.eye(2)
    oracle = f @ p @ f.T + q
    belief = GaussianBelief(mean=np.array([1.0, -2.0]), cov=p)
    out = predict(belief, f, q, dt)
    np.testing.assert_allclose(out.cov, oracle, rtol=0, atol=1e-14)
    np.testing.assert_allclose(out.mean, f @ belief.mean)


def test_predict_trace_never_shrinks_under_identity_dynamics():
    rng = np.random.default_rng(2)
    for _ in range(100):
        n = int(rng.integers(1, 7))
        p = random_spd(rng, n)
        q = random_spd(rng, n, 0.1)
        belief = GaussianBelief(mean=rng.standard_normal(n), cov=p)
        out = predict(belief, np.eye(n), q, 1.0)
        assert np.trace(out.cov) >= np.trace(p)


def test_predict_rejects_non_finite_propagation():
    belief = GaussianBelief(mean=np.array([0.0, 1.0]), cov=np.eye(2))
    with pytest.raises(PropagationError) as err:
        predict(belief, np.diag([1.0, np.inf]), np.zeros((2, 2)), 1.0)
    assert "index 1" in str(err.value)


def test_predict_rejects_nonpositive_dt():
    belief = GaussianBelief(mean=np.zeros(1), cov=np.eye(1))
    with pytest.raises(ValueError):
        predict(belief, np.eye(1), np.zeros((1, 1)), 0.0)


# ---------------------------------------------------------------------------
# correntropy weights


def test_weights_zero_innovation_is_all_ones():
    w = correntropy_weights(np.zeros(3), np.eye(3), np.ones(3))
    np.testing.assert_array_equal(w.weighted, np.ones(3))
    np.testing.assert_array_equal(w.unweighted, np.ones(3))


def test_weights_hand_computed_two_channel_case():
    y = np.array([1.0, 2.0])
    r = np.diag([1.0, 4.0])
    sigma = np.ones(2)
    w = correntropy_weights(y, r, sigma)
    np.testing.assert_allclose(w.weighted, [np.exp(-0.5), np.exp(-0.5)])
    np.testing.assert_allclose(w.unweighted, [np.exp(-0.5), np.exp(-2.0)])


def test_weights_huge_innovation_underflows_to_zero_without_warning():
    y = np.array([1e6])
    w = correntropy_weights(y, np.eye(1), np.ones(1))
    assert w.weighted[0] < 1e-300
    assert w.weighted[0] >= 0.0


def test_weights_always_in_unit_interval():
    rng = np.random.default_rng(17)
    for _ in range(300):
        m = int(rng.integers(1, 10))
        y = 10.0 ** rng.uniform(-8, 8) * rng.standard_normal(m)
        r = np.diag(10.0 ** rng.uniform(-6, 6, size=m))
        sigma = 10.0 ** rng.uniform(-3, 6, size=m)
        w = correntropy_weights(y, r, sigma)
        for vec in (w.weighted, w.unweighted):
            assert np.all(vec > 0.0) and np.all(vec <= 1.0)


# ---------------------------------------------------------------------------
# corrections


def test_scalar_gain_with_unit_weights_is_half():
    belief = GaussianBelief(mean=np.zeros(1), cov=np.eye(1))
    out, record = mcckf_update(belief, np.array([1.0]), np.eye(1), np.eye(1),
                               np.full(1, 1e12))
    assert record.gain[0, 0] == pytest.approx(0.5)
    assert out.mean[0] == pytest.approx(0.5)


def test_zero_innovation_keeps_mean_but_contracts_covariance():
    belief = GaussianBelief(mean=np.array([2.0, -1.0]), cov=np.eye(2))
    out, _ = mcckf_update(belief, belief.mean.copy(), np.eye(2), 0.5 * np.eye(2),
                          np.full(2, 1e12))
    np.testing.assert_allclose(out.mean, belief.mean)
    assert np.trace(out.cov) < np.trace(belief.cov)


def test_zeroed_weight_column_removes_that_channel():
    """A suppressed channel must not influence the state.

    The algebraic fact is checked on the dense oracle with the weight
    forced to exactly zero; the library path gets there by underflow
    (the exponent clamp leaves a floor around 1e-304).
    """
    mean, cov = np.zeros(2), np.eye(2)
    h, r = np.eye(2), np.eye(2)
    z = np.array([1e4, 0.3])
    _, _, gain = textbook_weighted_update(mean, cov, z, h, r, np.array([0.0, 1.0]))
    np.testing.assert_array_equal(gain[:, 0], 0.0)

    belief = GaussianBelief(mean=mean, cov=cov)
    bandwidth = np.array([1e-3, 1e6])
    out, record = mcckf_update(belief, z, h, r, bandwidth)
    assert record.weights.weighted[0] < 1e-290
    np.testing.assert_allclose(record.gain[:, 0], 0.0, atol=1e-290)
    assert out.mean[0] == pytest.approx(0.0, abs=1e-12)
    assert out.mean[1] == pytest.approx(0.15, abs=1e-6)


@pytest.mark.parametrize("update", ["kf", "mcckf"])
def test_singular_prior_is_corrected_without_a_ridge(update, caplog):
    """A state known exactly stays exactly known; no factor of P is needed."""
    belief = GaussianBelief(mean=np.zeros(3), cov=np.diag([1.0, 0.0, 2.0]))
    z = np.array([0.3, -0.2, 0.5])
    h, r = np.eye(3), 0.1 * np.eye(3)
    if update == "kf":
        out, record = kf_update(belief, z, h, r)
    else:
        out, record = mcckf_update(belief, z, h, r, np.ones(3))
    assert not record.regularized
    assert not caplog.records
    np.testing.assert_array_equal(record.gain[1], 0.0)
    assert out.mean[1] == 0.0
    np.testing.assert_array_equal(out.cov[1], 0.0)
    np.testing.assert_array_equal(out.cov[:, 1], 0.0)
    assert out.mean[0] > 0.0 and out.mean[2] > 0.0


def test_unit_weight_update_matches_kf_update_exactly():
    rng = np.random.default_rng(23)
    for _ in range(200):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 5))
        belief = GaussianBelief(mean=rng.standard_normal(n), cov=random_spd(rng, n))
        h = rng.standard_normal((m, n))
        r = random_spd(rng, m)
        z = rng.standard_normal(m)
        a, _ = mcckf_update(belief, z, h, r, np.full(m, 1e12))
        b, _ = kf_update(belief, z, h, r)
        np.testing.assert_allclose(a.mean, b.mean, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(a.cov, b.cov, rtol=1e-10, atol=1e-12)


def test_weighted_update_matches_dense_oracle():
    rng = np.random.default_rng(31)
    for _ in range(200):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 5))
        mean = rng.standard_normal(n)
        cov = random_spd(rng, n)
        h = rng.standard_normal((m, n))
        r = random_spd(rng, m)
        z = rng.standard_normal(m)
        sigma = 10.0 ** rng.uniform(-0.5, 1.0, size=m)
        belief = GaussianBelief(mean=mean, cov=cov)
        out, record = mcckf_update(belief, z, h, r, sigma)
        c = record.weights.weighted
        want_mean, want_cov, _ = textbook_weighted_update(mean, cov, z, h, r, c)
        np.testing.assert_allclose(out.mean, want_mean, rtol=1e-8, atol=1e-10)
        np.testing.assert_allclose(out.cov, want_cov, rtol=1e-8, atol=1e-10)


def test_joseph_form_agrees_with_short_form_at_optimal_gain():
    rng = np.random.default_rng(41)
    for _ in range(100):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 5))
        cov = random_spd(rng, n)
        h = rng.standard_normal((m, n))
        r = random_spd(rng, m)
        belief = GaussianBelief(mean=rng.standard_normal(n), cov=cov)
        out, record = kf_update(belief, rng.standard_normal(m), h, r)
        k = record.gain
        short = (np.eye(n) - k @ h) @ cov
        np.testing.assert_allclose(out.cov, 0.5 * (short + short.T),
                                   rtol=1e-7, atol=1e-10)


def test_posterior_covariance_stays_psd_under_fuzz(trials=2000, seed=47):
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        n = int(rng.integers(1, 13))
        m = int(rng.integers(1, 10))
        scale = 10.0 ** rng.uniform(-4, 4)
        belief = GaussianBelief(mean=rng.standard_normal(n),
                                cov=random_spd(rng, n, scale))
        h = rng.standard_normal((m, n))
        r = random_spd(rng, m, scale)
        sigma = 10.0 ** rng.uniform(-2, 3, size=m)
        z = rng.standard_normal(m) * np.sqrt(scale)
        out, _ = mcckf_update(belief, z, h, r, sigma)
        w = np.linalg.eigvalsh(out.cov)
        assert w.min() >= -1e-9 * max(1.0, w.max())


def test_monotone_damping_of_outlier_corrections():
    """Correction norm shrinks as the outlier grows, then vanishes.

    Strict ordering is checked where float64 resolves the kernel (the
    exponent clamp flattens it past roughly 37 normalized units); the
    far tail is checked as an absolute no-influence bound instead.
    """
    belief = GaussianBelief(mean=np.zeros(3), cov=np.eye(3))
    h = np.eye(3)
    r = np.eye(3)
    sigma = np.ones(3)
    norms = []
    for mag in (3.0, 10.0, 30.0):
        z = np.array([mag, 0.0, 0.0])
        out, _ = mcckf_update(belief, z, h, r, sigma)
        norms.append(np.linalg.norm(out.mean))
    assert norms[0] > norms[1] > norms[2]
    for mag in (1e2, 1e4, 1e6):
        z = np.array([mag, 0.1, -0.1])
        out, _ = mcckf_update(belief, z, h, r, sigma)
        reference, _ = mcckf_update(belief, np.array([0.0, 0.1, -0.1]), h, r, sigma)
        assert abs(out.mean[0]) < 1e-290
        np.testing.assert_allclose(out.mean[1:], reference.mean[1:], atol=1e-9)


def test_non_finite_measurement_is_rejected_with_sensor_name():
    belief = GaussianBelief(mean=np.zeros(1), cov=np.eye(1))
    with pytest.raises(MeasurementRejected) as err:
        mcckf_update(belief, np.array([np.nan]), np.eye(1), np.eye(1), np.full(1, 1e12),
                     sensor_id="odomX")
    assert "odomX" in str(err.value)


def test_record_snapshot_fields_are_consistent():
    belief = GaussianBelief(mean=np.zeros(2), cov=np.eye(2), time=3.5)
    z = np.array([1.0, -1.0])
    out, record = mcckf_update(belief, z, np.eye(2), np.eye(2), np.full(2, 1e12))
    np.testing.assert_allclose(record.innovation, z)
    np.testing.assert_allclose(record.residual, z - out.mean)
    np.testing.assert_allclose(record.cov_pred, np.eye(2))
    np.testing.assert_allclose(record.cov_post, out.cov)
    assert out.time == 3.5
