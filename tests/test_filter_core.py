"""Core prediction and correction operators.

The correction tests lean on two independent oracles: a dense textbook
implementation of the information-form gain written with plain numpy
inverses, and hand-evaluated scalar cases.  The library computes the gain
in covariance form with one Cholesky solve, so the information-form oracle
shares no code path with it: agreement checks the matrix inversion lemma
as well as the implementation.

The primitives take the covariance and the innovation y of a zero-mean
error state.  The mean-form cases pass y = z - H m and check m + delta
against the oracle, which stays in mean form.
"""

import logging

import numpy as np
import pytest

from corfuse.errors import MeasurementRejected, PropagationError
from corfuse.filter_core import (EXP_FLOOR, CorrentropyWeights, correntropy_weights,
                                 kf_update, mcckf_update, predict)
from corfuse.linalg import symmetrize


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
    out = predict(np.array([[1.0]]), np.eye(1), np.array([[0.5]]))
    assert out[0, 0] == pytest.approx(1.5)


def test_predict_zero_covariance_zero_noise_stays_zero():
    out = predict(np.zeros((2, 2)), np.eye(2), np.zeros((2, 2)))
    np.testing.assert_array_equal(out, np.zeros((2, 2)))


def test_predict_constant_velocity_matches_dense_oracle():
    dt = 0.1
    f = np.array([[1.0, dt], [0.0, 1.0]])
    q = 0.01 * np.eye(2)
    p = np.eye(2)
    oracle = f @ p @ f.T + q
    out = predict(p, f, q)
    np.testing.assert_allclose(out, oracle, rtol=0, atol=1e-14)


def test_predict_trace_never_shrinks_under_identity_dynamics():
    rng = np.random.default_rng(2)
    for _ in range(100):
        n = int(rng.integers(1, 7))
        p = random_spd(rng, n)
        q = random_spd(rng, n, 0.1)
        out = predict(p, np.eye(n), q)
        assert np.trace(out) >= np.trace(p)


def test_predict_is_the_symmetric_part_of_the_propagated_sum_bit_for_bit():
    rng = np.random.default_rng(29)
    for _ in range(500):
        trans = rng.standard_normal((9, 9)) * 10.0 ** rng.uniform(-3, 3)
        cov, noise = random_spd(rng, 9), symmetrize(rng.standard_normal((9, 9)))
        cov[rng.random((9, 9)) < 0.1] = -0.0
        cov = symmetrize(cov)
        out = predict(cov, trans, noise)
        want = symmetrize(trans @ cov @ trans.T + noise)
        np.testing.assert_array_equal(out.view(np.uint64), want.view(np.uint64))
        np.testing.assert_array_equal(out.view(np.uint64), out.T.view(np.uint64))


@pytest.mark.parametrize("rows", [(4,), (4, 7), (0, 8)])
def test_predict_names_the_first_non_finite_variance(rows):
    trans = np.eye(9)
    for row in rows:
        trans[row, row] = 1e200
    with pytest.raises(PropagationError, match=f"index {rows[0]}$"), \
            np.errstate(over="ignore", invalid="ignore"):
        predict(np.eye(9), trans, np.zeros((9, 9)))


def test_predict_rejects_non_finite_propagation():
    # NumPy flags the inf * 0 products of the propagation before predict refuses it.
    with pytest.raises(PropagationError) as err, pytest.warns(RuntimeWarning):
        predict(np.eye(2), np.diag([1.0, np.inf]), np.zeros((2, 2)))
    assert "index 1" in str(err.value)


def test_predict_rejects_a_covariance_that_overflows():
    """A finite F whose F P F^T overflows is refused, naming the first such variance."""
    trans = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1e200], [0.0, 0.0, 1e200]])
    with pytest.raises(PropagationError) as err, pytest.warns(RuntimeWarning, match="overflow"):
        predict(np.eye(3), trans, np.zeros((3, 3)))
    assert "index 1" in str(err.value)


# ---------------------------------------------------------------------------
# correntropy weights


def test_weights_zero_innovation_is_all_ones():
    w = correntropy_weights(np.zeros(3), np.eye(3), np.ones(3))
    np.testing.assert_array_equal(w.weighted, np.ones(3))
    np.testing.assert_array_equal(w.unweighted, np.ones(3))


def test_weights_where_the_kernel_scale_underflows_to_zero():
    """-2 sigma^2 R_jj is 0 here: a zero innovation weighs 1, any other the floor, silently."""
    y = np.array([0.0, -0.0, 1e-170, 1.0])  # 1e-170 squares to 0, yet is no zero innovation
    w = correntropy_weights(y, 0.01 * np.eye(4), np.full(4, 1e-200))
    expected = [1.0, 1.0, np.exp(EXP_FLOOR), np.exp(EXP_FLOOR)]
    np.testing.assert_array_equal(w.weighted, expected)
    np.testing.assert_array_equal(w.unweighted, expected)
    # Only the weighted scale underflows: sigma^2 > 0, 2 sigma^2 R_jj rounds to 0.
    w = correntropy_weights(np.zeros(2), 0.01 * np.eye(2), np.full(2, 1e-161))
    np.testing.assert_array_equal(w.weighted, np.ones(2))
    np.testing.assert_array_equal(w.unweighted, np.ones(2))


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
    delta, record = mcckf_update(np.eye(1), np.array([1.0]), np.eye(1), np.eye(1),
                                 np.full(1, 1e12))
    assert record.gain[0, 0] == pytest.approx(0.5)
    assert delta[0] == pytest.approx(0.5)


def test_zero_innovation_keeps_mean_but_contracts_covariance():
    mean, cov = np.array([2.0, -1.0]), np.eye(2)
    delta, record = mcckf_update(cov, mean - np.eye(2) @ mean, np.eye(2), 0.5 * np.eye(2),
                                 np.full(2, 1e12))
    np.testing.assert_allclose(mean + delta, mean)
    assert np.trace(record.cov_post) < np.trace(cov)


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

    bandwidth = np.array([1e-3, 1e6])
    delta, record = mcckf_update(cov, z - h @ mean, h, r, bandwidth)
    assert record.weights.weighted[0] < 1e-290
    np.testing.assert_allclose(record.gain[:, 0], 0.0, atol=1e-290)
    assert delta[0] == pytest.approx(0.0, abs=1e-12)
    assert delta[1] == pytest.approx(0.15, abs=1e-6)


@pytest.mark.parametrize("update", ["kf", "mcckf"])
def test_singular_prior_is_corrected_without_a_ridge(update, caplog):
    """A state known exactly stays exactly known; no factor of P is needed."""
    cov = np.diag([1.0, 0.0, 2.0])
    y = np.array([0.3, -0.2, 0.5])
    h, r = np.eye(3), 0.1 * np.eye(3)
    if update == "kf":
        delta, record = kf_update(cov, y, h, r)
    else:
        delta, record = mcckf_update(cov, y, h, r, np.ones(3))
    assert not record.regularized
    assert not caplog.records
    np.testing.assert_array_equal(record.gain[1], 0.0)
    assert delta[1] == 0.0
    np.testing.assert_array_equal(record.cov_post[1], 0.0)
    np.testing.assert_array_equal(record.cov_post[:, 1], 0.0)
    assert delta[0] > 0.0 and delta[2] > 0.0


def test_ridge_warning_names_the_sensor(caplog):
    """A zero innovation covariance (P = 0, R = 0) is solved with a ridge, logged once."""
    with caplog.at_level(logging.WARNING, logger="corfuse.filter_core"):
        delta, record = kf_update(np.zeros((2, 2)), np.array([0.1, -0.2]), np.eye(2),
                                  np.zeros((2, 2)), sensor_id="odo3")
    assert record.regularized
    np.testing.assert_array_equal(delta, 0.0)
    assert [r.getMessage() for r in caplog.records] == [
        "innovation covariance from sensor 'odo3' needed a ridge"]


def test_unit_weight_update_matches_kf_update_exactly():
    rng = np.random.default_rng(23)
    for _ in range(200):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 5))
        mean, cov = rng.standard_normal(n), random_spd(rng, n)
        h = rng.standard_normal((m, n))
        r = random_spd(rng, m)
        y = rng.standard_normal(m) - h @ mean
        a_delta, a = mcckf_update(cov, y, h, r, np.full(m, 1e12))
        b_delta, b = kf_update(cov, y, h, r)
        np.testing.assert_allclose(mean + a_delta, mean + b_delta, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(a.cov_post, b.cov_post, rtol=1e-10, atol=1e-12)


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
        delta, record = mcckf_update(cov, z - h @ mean, h, r, sigma)
        c = record.weights.weighted
        want_mean, want_cov, _ = textbook_weighted_update(mean, cov, z, h, r, c)
        np.testing.assert_allclose(mean + delta, want_mean, rtol=1e-8, atol=1e-10)
        np.testing.assert_allclose(record.cov_post, want_cov, rtol=1e-8, atol=1e-10)
        np.testing.assert_allclose(record.residual, z - h @ want_mean, rtol=1e-8, atol=1e-10)


def test_joseph_form_agrees_with_short_form_at_optimal_gain():
    rng = np.random.default_rng(41)
    for _ in range(100):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 5))
        cov = random_spd(rng, n)
        h = rng.standard_normal((m, n))
        r = random_spd(rng, m)
        mean = rng.standard_normal(n)
        _, record = kf_update(cov, rng.standard_normal(m) - h @ mean, h, r)
        k = record.gain
        short = (np.eye(n) - k @ h) @ cov
        np.testing.assert_allclose(record.cov_post, 0.5 * (short + short.T),
                                   rtol=1e-7, atol=1e-10)


def test_posterior_covariance_stays_psd_under_fuzz(trials=2000, seed=47):
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        n = int(rng.integers(1, 13))
        m = int(rng.integers(1, 10))
        scale = 10.0 ** rng.uniform(-4, 4)
        mean, cov = rng.standard_normal(n), random_spd(rng, n, scale)
        h = rng.standard_normal((m, n))
        r = random_spd(rng, m, scale)
        sigma = 10.0 ** rng.uniform(-2, 3, size=m)
        z = rng.standard_normal(m) * np.sqrt(scale)
        _, record = mcckf_update(cov, z - h @ mean, h, r, sigma)
        w = np.linalg.eigvalsh(record.cov_post)
        assert w.min() >= -1e-9 * max(1.0, w.max())


def test_monotone_damping_of_outlier_corrections():
    """Correction norm shrinks as the outlier grows, then vanishes.

    Strict ordering is checked where float64 resolves the kernel (the
    exponent clamp flattens it past roughly 37 normalized units); the
    far tail is checked as an absolute no-influence bound instead.
    """
    cov = np.eye(3)
    h = np.eye(3)
    r = np.eye(3)
    sigma = np.ones(3)
    norms = []
    for mag in (3.0, 10.0, 30.0):
        y = np.array([mag, 0.0, 0.0])
        delta, _ = mcckf_update(cov, y, h, r, sigma)
        norms.append(np.linalg.norm(delta))
    assert norms[0] > norms[1] > norms[2]
    for mag in (1e2, 1e4, 1e6):
        y = np.array([mag, 0.1, -0.1])
        delta, _ = mcckf_update(cov, y, h, r, sigma)
        reference, _ = mcckf_update(cov, np.array([0.0, 0.1, -0.1]), h, r, sigma)
        assert abs(delta[0]) < 1e-290
        np.testing.assert_allclose(delta[1:], reference[1:], atol=1e-9)


def test_non_finite_measurement_is_rejected_with_sensor_name():
    with pytest.raises(MeasurementRejected) as err:
        mcckf_update(np.eye(1), np.array([np.nan]), np.eye(1), np.eye(1), np.full(1, 1e12),
                     sensor_id="odomX")
    assert "odomX" in str(err.value)


def test_record_snapshot_fields_are_consistent():
    cov = np.eye(2)
    y = np.array([1.0, -1.0])
    delta, record = mcckf_update(cov, y, np.eye(2), np.eye(2), np.full(2, 1e12))
    np.testing.assert_allclose(record.innovation, y)
    np.testing.assert_allclose(record.residual, y - delta)
    assert record.cov_pred is cov

