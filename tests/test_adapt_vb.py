"""Sliding-window smoother and inverse-Wishart noise recursions.

The backward pass and both window statistics are checked against a fully
hand-computed three-step scalar filter, then against Monte Carlo
expectations on a matched linear-Gaussian system where the statistics
must average to the true noise values.
"""

import numpy as np
import pytest

from corfuse.adapt_vb import (SmootherWindow, VbNoiseAdapter,
                              WishartNoiseState, backward_smooth,
                              extract_noise, measurement_statistic,
                              process_statistic, wishart_update)
from corfuse.errors import AdaptationNotReady
from corfuse.filter_core import CorrentropyWeights, WindowSnapshot

UNIT = CorrentropyWeights(unweighted=np.array([1.0]), weighted=np.array([1.0]))


def scalar_snapshot(time, state, prior_mean, cov, cov_pred, residual,
                    trans=1.0, steps=1.0, sensor="s", weights=UNIT):
    return WindowSnapshot(
        time=time, state=np.array([state]), prior_mean=np.array([prior_mean]),
        cov=np.array([[cov]]), transition=np.array([[trans]]),
        obs_jacobian=np.eye(1), residual=np.array([residual]),
        weights=weights, cov_pred=np.array([[cov_pred]]),
        steps=steps, sensor_id=sensor)


def hand_filtered_window():
    """Three corrections of the scalar system q=0.5, r=1, worked by hand.

    z = (1, 0, 0.25) from m0=0, P0=1 gives gains of one half throughout,
    filtered means (0.5, 0.25, 0.25) and covariances (0.5, 0.5, 0.5) with
    predicted covariances (1, 1, 1).
    """
    window = SmootherWindow(length=10)
    window.push(scalar_snapshot(0.0, 0.5, 0.0, 0.5, 1.0, residual=0.5))
    window.push(scalar_snapshot(1.0, 0.25, 0.5, 0.5, 1.0, residual=-0.25))
    window.push(scalar_snapshot(2.0, 0.25, 0.25, 0.5, 1.0, residual=0.0))
    return window


def test_backward_pass_matches_hand_computation():
    smoothed = backward_smooth(hand_filtered_window())
    np.testing.assert_allclose([m[0] for m in smoothed.means], [0.375, 0.25, 0.25])
    np.testing.assert_allclose([c[0, 0] for c in smoothed.covs],
                               [0.34375, 0.375, 0.5])
    np.testing.assert_allclose([g[0, 0] for g in smoothed.gains], [0.5, 0.5])
    np.testing.assert_allclose([c[0, 0] for c in smoothed.crosses],
                               [0.1875, 0.25])


def test_process_statistic_matches_hand_computation():
    window = hand_filtered_window()
    total, count = process_statistic(window, backward_smooth(window))
    assert count == 2
    assert total[0, 0] == pytest.approx(0.734375)


def test_measurement_statistic_matches_hand_computation():
    window = hand_filtered_window()
    total, count = measurement_statistic(window, backward_smooth(window), "s")
    assert count == 3
    assert total[0, 0] == pytest.approx(1.671875)


def test_single_snapshot_smooths_to_filtered_values():
    window = SmootherWindow(length=10)
    window.push(scalar_snapshot(0.0, 1.5, 1.0, 0.25, 0.5, residual=0.1))
    smoothed = backward_smooth(window)
    assert smoothed.means[0][0] == pytest.approx(1.5)
    assert smoothed.covs[0][0, 0] == pytest.approx(0.25)
    assert smoothed.gains == []


def test_empty_window_raises():
    with pytest.raises(AdaptationNotReady):
        backward_smooth(SmootherWindow(length=5))


def test_process_statistic_needs_a_transition():
    window = SmootherWindow(length=5)
    window.push(scalar_snapshot(0.0, 1.0, 0.0, 0.5, 1.0, residual=0.0))
    with pytest.raises(AdaptationNotReady):
        process_statistic(window, backward_smooth(window))


def test_same_instant_corrections_carry_no_process_evidence():
    """Two corrections at one timestamp form an exact identity transition.

    The smoother treats the pair as a single instant (gain one, equal
    smoothed moments) and the statistic must skip it rather than count a
    zero into the average.
    """
    window = SmootherWindow(length=10)
    window.push(scalar_snapshot(3.0, 0.8, 1.0, 0.4, 0.6, residual=0.1))
    window.push(scalar_snapshot(3.0, 0.7, 0.8, 0.3, 0.4, residual=0.0, steps=0.0))
    smoothed = backward_smooth(window)
    np.testing.assert_allclose(smoothed.gains[0], np.eye(1))
    assert smoothed.means[0][0] == pytest.approx(smoothed.means[1][0])
    total, count = process_statistic(window, smoothed)
    assert count == 0
    assert total[0, 0] == pytest.approx(0.0, abs=1e-15)


def test_window_length_bounds_buffer():
    window = SmootherWindow(length=3)
    for k in range(10):
        window.push(scalar_snapshot(float(k), 0.0, 0.0, 0.5, 1.0, residual=0.0))
    assert len(window) == 4  # length transitions need length + 1 snapshots
    assert window.snapshots[0].time == 6.0


def test_measurement_statistic_filters_by_sensor():
    window = SmootherWindow(length=10)
    window.push(scalar_snapshot(0.0, 0.5, 0.0, 0.5, 1.0, residual=0.5, sensor="a"))
    window.push(scalar_snapshot(1.0, 0.25, 0.5, 0.5, 1.0, residual=-0.25, sensor="b"))
    window.push(scalar_snapshot(2.0, 0.25, 0.25, 0.5, 1.0, residual=0.0, sensor="a"))
    smoothed = backward_smooth(window)
    _, count_a = measurement_statistic(window, smoothed, "a")
    _, count_b = measurement_statistic(window, smoothed, "b")
    _, count_all = measurement_statistic(window, smoothed, None)
    assert (count_a, count_b, count_all) == (2, 1, 3)


def test_suppressed_channel_contributes_only_covariance_floor():
    weights = CorrentropyWeights(unweighted=np.array([0.0]),
                                 weighted=np.array([0.0]))
    window = SmootherWindow(length=10)
    window.push(scalar_snapshot(0.0, 0.5, 0.0, 0.5, 1.0, residual=7.0,
                                weights=weights))
    smoothed = backward_smooth(window)
    total, count = measurement_statistic(window, smoothed, "s")
    assert count == 1
    assert total[0, 0] == pytest.approx(0.5)  # H P H^T alone, residual gated


def run_matched_scalar_filter(rng, steps, q_true, r_true):
    """Exact Kalman filter on x' = x + w, z = x + v with snapshots kept."""
    window = SmootherWindow(length=steps)
    x, m, p = 0.0, 0.0, 1.0
    for k in range(steps + 1):
        if k > 0:
            x += rng.normal(0.0, np.sqrt(q_true))
            m_prior, p_prior = m, p + q_true
        else:
            m_prior, p_prior = m, p
        z = x + rng.normal(0.0, np.sqrt(r_true))
        gain = p_prior / (p_prior + r_true)
        m = m_prior + gain * (z - m_prior)
        p = (1.0 - gain) ** 2 * p_prior + gain * r_true * gain
        window.push(scalar_snapshot(float(k), m, m_prior, p, p_prior, residual=z - m))
    return window


def test_statistics_average_to_true_noise_on_matched_filter():
    rng = np.random.default_rng(101)
    q_true, r_true = 0.05, 0.2
    o_vals, m_vals = [], []
    for _ in range(250):
        window = run_matched_scalar_filter(rng, 60, q_true, r_true)
        smoothed = backward_smooth(window)
        o_sum, o_count = process_statistic(window, smoothed)
        m_sum, m_count = measurement_statistic(window, smoothed, "s")
        o_vals.append(o_sum[0, 0] / o_count)
        m_vals.append(m_sum[0, 0] / m_count)
    assert np.mean(o_vals) == pytest.approx(q_true, rel=0.05)
    assert np.mean(m_vals) == pytest.approx(r_true, rel=0.05)


# ---------------------------------------------------------------------------
# hyperparameter recursions


def test_wishart_update_accumulates_and_discounts():
    state = WishartNoiseState.initial(1, 1)
    state = wishart_update(state, np.array([[2.0]]), np.array([[6.0]]),
                           rho=0.5, count=2)
    state = wishart_update(state, np.array([[4.0]]), np.array([[2.0]]),
                           rho=0.5, count=2)
    assert state.t == pytest.approx(3.0)       # 0.5 * 2 + 2
    assert state.T[0, 0] == pytest.approx(5.0)  # 0.5 * 2 + 4
    assert state.b == pytest.approx(3.0)
    assert state.B[0, 0] == pytest.approx(5.0)  # 0.5 * 6 + 2


def test_degrees_of_freedom_converge_to_geometric_limit():
    rho, count = 0.97, 10
    state = WishartNoiseState.initial(2, 2)
    for _ in range(500):
        state = wishart_update(state, np.eye(2), np.eye(2), rho, count)
    limit = count / (1.0 - rho)
    assert state.t == pytest.approx(limit, abs=0.01)
    assert state.b == pytest.approx(limit, abs=0.01)
    # scale matrices converge to S / (1 - rho) for a constant summand
    np.testing.assert_allclose(state.T, np.eye(2) / (1.0 - rho), atol=0.04)


def test_extract_noise_point_estimates_and_guard():
    fresh = WishartNoiseState.initial(1, 1)
    with pytest.raises(AdaptationNotReady):
        extract_noise(fresh)
    state = WishartNoiseState(t=4.0, T=np.array([[2.0]]),
                              b=8.0, B=np.array([[4.0]]))
    q, r = extract_noise(state)
    assert q[0, 0] == pytest.approx(0.5)
    assert r[0, 0] == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# adapter wrapper


def test_adapter_reports_not_ready_until_two_snapshots():
    adapter = VbNoiseAdapter(state_dim=1, obs_dim=1, window=5)
    adapter.push(scalar_snapshot(0.0, 0.5, 0.0, 0.5, 1.0, residual=0.1))
    with pytest.raises(AdaptationNotReady):
        adapter.refresh()


def test_adapter_withholds_process_estimate_without_real_transitions():
    adapter = VbNoiseAdapter(state_dim=1, obs_dim=1, window=5)
    adapter.push(scalar_snapshot(1.0, 0.8, 1.0, 0.4, 0.6, residual=0.1))
    adapter.push(scalar_snapshot(1.0, 0.7, 0.8, 0.3, 0.4, residual=0.0,
                                 steps=0.0))
    q, steps, by_sensor = adapter.refresh()
    assert q is None
    assert steps == 1.0
    assert "s" in by_sensor  # measurement evidence still flows


def test_adapter_tracks_measurement_noise_per_sensor():
    adapter = VbNoiseAdapter(state_dim=1, obs_dim=1, window=8, forgetting=0.9)
    rng = np.random.default_rng(55)
    for k in range(40):
        sensor = "a" if k % 2 == 0 else "b"
        resid = rng.normal(0.0, 0.1 if sensor == "a" else 1.0)
        adapter.push(scalar_snapshot(float(k), 0.0, 0.0, 1e-6, 1e-6,
                                     residual=resid, sensor=sensor))
    _, _, by_sensor = adapter.refresh()
    assert set(by_sensor) == {"a", "b"}
    assert by_sensor["b"][0, 0] > by_sensor["a"][0, 0]


def test_adapter_mean_steps_ignores_instant_transitions():
    adapter = VbNoiseAdapter(state_dim=1, obs_dim=1, window=5)
    adapter.push(scalar_snapshot(0.0, 0.0, 0.0, 0.5, 1.0, 0.0, steps=1.0))
    adapter.push(scalar_snapshot(1.0, 0.0, 0.0, 0.5, 1.0, 0.0, steps=4.0))
    adapter.push(scalar_snapshot(1.0, 0.0, 0.0, 0.5, 1.0, 0.0, steps=0.0))
    adapter.push(scalar_snapshot(2.0, 0.0, 0.0, 0.5, 1.0, 0.0, steps=6.0))
    assert adapter.mean_interval_steps() == pytest.approx(5.0)


def test_closed_loop_measurement_noise_identification():
    """R starts 100x small and must climb to the true value in the loop."""
    rng = np.random.default_rng(7)
    q_true, r_true = 0.1, 1.0
    adapter = VbNoiseAdapter(state_dim=1, obs_dim=1, window=10, forgetting=0.97)
    x, m, p = 0.0, 0.0, 1.0
    r_hat = 0.01
    history = []
    for k in range(800):
        x += rng.normal(0.0, np.sqrt(q_true))
        m_prior, p_prior = m, p + q_true
        z = x + rng.normal(0.0, np.sqrt(r_true))
        gain = p_prior / (p_prior + r_hat)
        m = m_prior + gain * (z - m_prior)
        p = (1.0 - gain) ** 2 * p_prior + gain * r_hat * gain
        adapter.push(scalar_snapshot(float(k), m, m_prior, p, p_prior, residual=z - m))
        try:
            _, _, by_sensor = adapter.refresh()
            r_hat = by_sensor["s"][0, 0]
        except AdaptationNotReady:
            pass
        history.append(r_hat)
    assert 0.7 < np.mean(history[-100:]) < 1.4
