"""Window-averaged residual noise adaptation and the gain identity check."""

import numpy as np
import pytest

from corfuse.adapt_residual import (ResidualNoiseAdapter, ResidualWindow,
                                    check_identity_gamma,
                                    estimate_measurement_noise,
                                    estimate_process_noise, gamma_innovation,
                                    gamma_residual)
from corfuse.errors import AdaptationNotReady
from corfuse.filter_core import (CorrentropyWeights, GaussianBelief,
                                 InnovationRecord, kf_update, mcckf_update)


def make_record(residual, innovation, h, p_post, p_pred=None, gain=None,
                weight=1.0, time=0.0):
    residual = np.atleast_1d(np.asarray(residual, dtype=float))
    innovation = np.atleast_1d(np.asarray(innovation, dtype=float))
    m = residual.shape[0]
    h = np.atleast_2d(np.asarray(h, dtype=float))
    n = h.shape[1]
    w = np.full(m, weight, dtype=float)
    return InnovationRecord(
        time=time, innovation=innovation, residual=residual, obs_jacobian=h,
        cov_pred=np.atleast_2d(p_pred) if p_pred is not None else np.eye(n),
        cov_post=np.atleast_2d(np.asarray(p_post, dtype=float)),
        gain=np.atleast_2d(gain) if gain is not None else np.eye(n, m),
        weights=CorrentropyWeights(unweighted=w, weighted=w.copy()))


def random_spd(rng, n, scale=1.0):
    a = rng.standard_normal((n, n))
    return a @ a.T + scale * n * np.eye(n)


def test_window_mean_matches_sequential_loop_bitwise():
    rng = np.random.default_rng(3)
    window = ResidualWindow(length=8)
    outers = []
    for k in range(8):
        r = rng.standard_normal(3)
        window.push(make_record(r, r + 0.1, np.eye(3), np.eye(3), time=float(k)))
        outers.append(np.outer(r, r))
    total = outers[0].copy()
    for value in outers[1:]:
        total = total + value
    expected = total / len(outers)
    assert np.array_equal(gamma_residual(window), expected)


def test_ring_buffer_keeps_newest_entries():
    window = ResidualWindow(length=3)
    for k in range(6):
        window.push(make_record([float(k)], [0.0], [[1.0]], [[0.0]]))
    assert len(window) == 3
    assert gamma_residual(window)[0, 0] == pytest.approx((9.0 + 16.0 + 25.0) / 3.0)


def test_measurement_noise_adds_posterior_projection():
    window = ResidualWindow(length=4)
    window.push(make_record([2.0], [2.0], [[1.0]], [[0.5]]))
    noise = estimate_measurement_noise(gamma_residual(window), window)
    assert noise[0, 0] == pytest.approx(4.5)


def test_zero_weight_gates_residual_out_of_estimate():
    window = ResidualWindow(length=4)
    window.push(make_record([50.0], [50.0], [[1.0]], [[0.25]], weight=0.0))
    noise = estimate_measurement_noise(gamma_residual(window), window)
    assert noise[0, 0] == pytest.approx(0.25)


def test_noise_floor_keeps_estimate_invertible():
    window = ResidualWindow(length=4)
    window.push(make_record([0.0, 0.0], [0.0, 0.0], np.eye(2), np.zeros((2, 2))))
    noise = estimate_measurement_noise(gamma_residual(window), window)
    assert np.all(np.diag(noise) >= 1e-12)


def test_process_estimate_is_psd_and_uses_newest_gain():
    rng = np.random.default_rng(11)
    window = ResidualWindow(length=6)
    for k in range(6):
        gain = rng.standard_normal((4, 2))
        window.push(make_record(rng.standard_normal(2), rng.standard_normal(2),
                                rng.standard_normal((2, 4)), np.eye(2),
                                gain=gain, time=float(k)))
    gamma = gamma_innovation(window)
    process = estimate_process_noise(gamma, window)
    assert np.min(np.linalg.eigvalsh(process)) >= -1e-12
    expected = gain @ gamma @ gain.T  # newest gain from the loop above
    assert np.allclose(np.triu(process, 1), np.triu(expected, 1), atol=1e-12)


def test_process_estimate_diagonal_option():
    window = ResidualWindow(length=3)
    rng = np.random.default_rng(4)
    window.push(make_record(rng.standard_normal(3), rng.standard_normal(3),
                            np.eye(3), np.eye(3), gain=rng.standard_normal((3, 3))))
    process = estimate_process_noise(gamma_innovation(window), window,
                                     diagonal_only=True)
    off = process - np.diag(np.diag(process))
    assert np.all(off == 0.0)


def test_empty_window_raises_everywhere():
    window = ResidualWindow(length=2)
    with pytest.raises(AdaptationNotReady):
        gamma_residual(window)
    with pytest.raises(AdaptationNotReady):
        estimate_measurement_noise(np.eye(1), window)
    with pytest.raises(AdaptationNotReady):
        estimate_process_noise(np.eye(1), window)


def test_window_length_validation():
    with pytest.raises(ValueError):
        ResidualWindow(length=0)


# ---------------------------------------------------------------------------
# the optimal-gain identity


def test_identity_holds_for_plain_kalman_corrections():
    """Gamma^-1 y and R^-1 r agree to round-off at the optimal gain."""
    rng = np.random.default_rng(21)
    worst = 0.0
    for _ in range(200):
        n = rng.integers(1, 7)
        m = rng.integers(1, 5)
        belief = GaussianBelief(mean=rng.standard_normal(n),
                                cov=random_spd(rng, n), time=0.0)
        h = rng.standard_normal((m, n))
        noise = random_spd(rng, m, scale=0.5)
        z = h @ belief.mean + rng.standard_normal(m)
        _, record = kf_update(belief, z, h, noise, sensor_id="fuzz")
        worst = max(worst, check_identity_gamma(record, noise))
    assert worst < 1e-8


def test_identity_detects_downweighted_gain():
    rng = np.random.default_rng(22)
    belief = GaussianBelief(mean=np.zeros(2), cov=np.eye(2), time=0.0)
    noise = 0.01 * np.eye(2)
    _, record = mcckf_update(belief, np.array([3.0, -2.5]), np.eye(2), noise,
                             np.full(2, 0.5), sensor_id="ctl")
    assert check_identity_gamma(record, noise) > 1e-3
    del rng


# ---------------------------------------------------------------------------
# adapter wrapper


def test_adapter_validates_smoothing():
    with pytest.raises(ValueError):
        ResidualNoiseAdapter(smoothing=0.0)
    with pytest.raises(ValueError):
        ResidualNoiseAdapter(smoothing=1.5)


def test_adapter_smoothing_blends_measurement_noise():
    adapter = ResidualNoiseAdapter(window=1, smoothing=0.5)
    adapter.push(make_record([2.0], [2.0], [[1.0]], [[0.0]]))
    _, first = adapter.refresh()
    assert first[0, 0] == pytest.approx(4.0)
    adapter.push(make_record([0.0], [0.0], [[1.0]], [[0.0]]))
    _, second = adapter.refresh()
    assert second[0, 0] == pytest.approx(2.0)  # halfway toward the new 0


def test_adapter_full_replacement_by_default():
    adapter = ResidualNoiseAdapter(window=1)
    adapter.push(make_record([2.0], [2.0], [[1.0]], [[0.0]]))
    adapter.refresh()
    adapter.push(make_record([1.0], [1.0], [[1.0]], [[0.0]]))
    _, second = adapter.refresh()
    assert second[0, 0] == pytest.approx(1.0)


def test_closed_loop_recovers_inflated_measurement_noise():
    """Scalar loop: R starts at 0.01 against a true value of 4.0."""
    rng = np.random.default_rng(17)
    q_true, r_true = 0.1, 4.0
    adapter = ResidualNoiseAdapter(window=10)
    x, m, p = 0.0, 0.0, 1.0
    r_hat = 0.01
    history = []
    for k in range(1500):
        x += rng.normal(0.0, np.sqrt(q_true))
        belief = GaussianBelief(mean=np.array([m]),
                                cov=np.array([[p + q_true]]), time=float(k))
        z = np.array([x + rng.normal(0.0, np.sqrt(r_true))])
        posterior, record = kf_update(belief, z, np.eye(1), np.array([[r_hat]]),
                                      sensor_id="z")
        m, p = posterior.mean[0], posterior.cov[0, 0]
        adapter.push(record)
        _, fresh = adapter.refresh()
        r_hat = fresh[0, 0]
        history.append(r_hat)
    assert 3.0 < np.mean(history[-200:]) < 5.0
