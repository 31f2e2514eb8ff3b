"""Window-averaged residual noise adaptation and the gain identity check."""

from collections import deque

import numpy as np
import pytest
from general_h import check_identity_gamma

from corfuse.adapt_residual import ResidualNoiseAdapter, _mean
from corfuse.errors import AdaptationNotReady
from corfuse.filter_core import CorrentropyWeights, InnovationRecord, kf_update, mcckf_update
from corfuse.linalg import DIAG_FLOOR, floor_diagonal, symmetrize


def make_record(residual, innovation, p_post, p_pred=None, gain=None, weight=1.0):
    """A record of a correction that observes the whole state (H = I)."""
    residual = np.atleast_1d(np.asarray(residual, dtype=float))
    innovation = np.atleast_1d(np.asarray(innovation, dtype=float))
    n = residual.shape[0]
    w = np.full(n, weight, dtype=float)
    return InnovationRecord(
        innovation=innovation, residual=residual,
        cov_pred=np.atleast_2d(p_pred) if p_pred is not None else np.eye(n),
        cov_post=np.atleast_2d(np.asarray(p_post, dtype=float)),
        gain=np.atleast_2d(gain) if gain is not None else np.eye(n),
        weights=CorrentropyWeights(unweighted=w, weighted=w.copy()))


def random_spd(rng, n, scale=1.0):
    a = rng.standard_normal((n, n))
    return a @ a.T + scale * n * np.eye(n)


def measurement_noise(adapter, sensor_id="z"):
    _, by_sensor = adapter.refresh()
    assert list(by_sensor) == [sensor_id]
    return by_sensor[sensor_id]


def test_window_mean_matches_sequential_loop_bitwise():
    rng = np.random.default_rng(3)
    adapter = ResidualNoiseAdapter(["z"], window=8)
    outers = []
    for k in range(8):
        r = rng.standard_normal(3)
        adapter.push("z", make_record(r, r + 0.1, np.zeros((3, 3))))
        outers.append(np.outer(r, r))
    total = outers[0].copy()
    for value in outers[1:]:
        total = total + value
    expected = total / len(outers)
    assert np.array_equal(measurement_noise(adapter), expected)


def test_ring_buffer_keeps_newest_entries():
    adapter = ResidualNoiseAdapter(["z"], window=3)
    for k in range(6):
        adapter.push("z", make_record([float(k)], [0.0], [[0.0]]))
    assert measurement_noise(adapter)[0, 0] == pytest.approx((9.0 + 16.0 + 25.0) / 3.0)


def test_measurement_noise_adds_posterior_projection():
    adapter = ResidualNoiseAdapter(["z"], window=4)
    adapter.push("z", make_record([2.0], [2.0], [[0.5]]))
    assert measurement_noise(adapter)[0, 0] == pytest.approx(4.5)


def test_identity_observation_gives_the_general_products_estimate():
    """R is mean(L r r^T L) + H P+ H^T with a writable H = np.eye(9), bit for bit."""
    rng = np.random.default_rng(19)
    adapter = ResidualNoiseAdapter(["z"], window=4)
    outers, eye = deque(maxlen=4), np.eye(9)
    for _ in range(6):
        r, y, p_post = rng.standard_normal(9), rng.standard_normal(9), random_spd(rng, 9)
        adapter.push("z", make_record(r, y, p_post))
        outers.append(np.outer(r, r))
        general = floor_diagonal(symmetrize(_mean(outers) + eye @ p_post @ eye.T), DIAG_FLOOR)
        np.testing.assert_array_equal(measurement_noise(adapter), general)


def test_zero_weight_gates_residual_out_of_estimate():
    adapter = ResidualNoiseAdapter(["z"], window=4)
    adapter.push("z", make_record([50.0], [50.0], [[0.25]], weight=0.0))
    assert measurement_noise(adapter)[0, 0] == pytest.approx(0.25)


def test_noise_floor_keeps_estimate_invertible():
    adapter = ResidualNoiseAdapter(["z"], window=4)
    adapter.push("z", make_record([0.0, 0.0], [0.0, 0.0], np.zeros((2, 2))))
    process, by_sensor = adapter.refresh()
    assert np.all(np.diag(by_sensor["z"]) == 1e-12)
    assert np.all(np.diag(process) == 1e-12)


def test_process_estimate_is_psd_and_uses_newest_gain():
    rng = np.random.default_rng(11)
    adapter = ResidualNoiseAdapter(["z"], window=6)
    outers = []
    for k in range(6):
        gain = rng.standard_normal((3, 3))
        innovation = rng.standard_normal(3)
        adapter.push("z", make_record(rng.standard_normal(3), innovation, np.eye(3), gain=gain))
        outers.append(np.outer(innovation, innovation))
    process, _ = adapter.refresh()
    assert np.min(np.linalg.eigvalsh(process)) >= -1e-12
    gamma = sum(outers[1:], outers[0]) / len(outers)
    expected = gain @ gamma @ gain.T  # newest gain from the loop above
    assert np.allclose(np.triu(process, 1), np.triu(expected, 1), atol=1e-12)


def test_empty_window_raises_everywhere():
    adapter = ResidualNoiseAdapter(["z"], window=2)
    adapter.advance(np.eye(1), 1.0)
    with pytest.raises(AdaptationNotReady):
        adapter.refresh()


def test_window_length_validation():
    with pytest.raises(ValueError):
        ResidualNoiseAdapter(["z"], window=0)
    with pytest.raises(ValueError):
        ResidualNoiseAdapter([])


# ---------------------------------------------------------------------------
# several sensors


def two_sensor_record(value):
    return make_record([value], [value], [[0.0]], gain=[[1.0]])


def test_process_noise_follows_the_first_sensor_only():
    adapter = ResidualNoiseAdapter(["a", "b"], window=4)
    adapter.correct("b", two_sensor_record(5.0), np.zeros(1))
    q, by_sensor = adapter.refresh()
    assert q is None and list(by_sensor) == ["b"]
    adapter.correct("a", two_sensor_record(2.0), np.zeros(1))
    q, by_sensor = adapter.refresh()
    assert q[0, 0] == pytest.approx(4.0) and list(by_sensor) == ["a"]
    adapter.correct("b", two_sensor_record(7.0), np.zeros(1))
    q, _ = adapter.refresh()
    assert q is None


def test_each_measurement_noise_comes_from_its_own_window():
    adapter = ResidualNoiseAdapter(["a", "b"], window=2)
    for k in range(3):
        adapter.correct("a", two_sensor_record(1.0 + k), np.zeros(1))
        assert measurement_noise(adapter, "a")[0, 0] == pytest.approx(
            np.mean([(1.0 + j) ** 2 for j in range(max(k - 1, 0), k + 1)]))
        adapter.correct("b", two_sensor_record(10.0), np.zeros(1))
        assert measurement_noise(adapter, "b")[0, 0] == pytest.approx(100.0)


def test_interval_steps_average_the_first_sensors_intervals():
    adapter = ResidualNoiseAdapter(["a", "b"], window=4)
    for steps, sensor_id in ((4, "a"), (2, "b"), (6, "a"), (0, "a")):
        for _ in range(steps):
            adapter.advance(np.eye(1), 1.0)
        adapter.correct(sensor_id, two_sensor_record(1.0), np.zeros(1))
        q_step, _ = adapter.refresh()
    # An interval Q of 1 spread over the mean of intervals of 4, 8 and a
    # same-instant correction counted as one step.
    assert q_step[0, 0] == pytest.approx(3.0 / (4.0 + 8.0 + 1.0))


# ---------------------------------------------------------------------------
# the optimal-gain identity


def test_identity_holds_for_plain_kalman_corrections():
    """Gamma^-1 y and R^-1 r agree to round-off at the optimal gain."""
    rng = np.random.default_rng(21)
    worst = 0.0
    for _ in range(200):
        n = rng.integers(1, 7)
        mean, cov = rng.standard_normal(n), random_spd(rng, n)
        noise = random_spd(rng, n, scale=0.5)
        z = mean + rng.standard_normal(n)
        _, record = kf_update(cov, z - mean, noise, sensor_id="fuzz")
        worst = max(worst, check_identity_gamma(record, noise))
    assert worst < 1e-8


def test_identity_detects_downweighted_gain():
    rng = np.random.default_rng(22)
    noise = 0.01 * np.eye(2)
    _, record = mcckf_update(np.eye(2), np.array([3.0, -2.5]), noise, np.full(2, 0.5),
                             sensor_id="ctl")
    assert check_identity_gamma(record, noise) > 1e-3
    del rng


# ---------------------------------------------------------------------------
# adapter wrapper


def test_adapter_validates_smoothing():
    with pytest.raises(ValueError):
        ResidualNoiseAdapter(["z"], smoothing=0.0)
    with pytest.raises(ValueError):
        ResidualNoiseAdapter(["z"], smoothing=1.5)


def test_adapter_smoothing_blends_measurement_noise():
    adapter = ResidualNoiseAdapter(["z"], window=1, smoothing=0.5)
    adapter.push("z", make_record([2.0], [2.0], [[0.0]]))
    assert measurement_noise(adapter)[0, 0] == pytest.approx(4.0)
    adapter.push("z", make_record([0.0], [0.0], [[0.0]]))
    assert measurement_noise(adapter)[0, 0] == pytest.approx(2.0)  # halfway toward the new 0


def test_adapter_full_replacement_by_default():
    adapter = ResidualNoiseAdapter(["z"], window=1)
    adapter.push("z", make_record([2.0], [2.0], [[0.0]]))
    adapter.refresh()
    adapter.push("z", make_record([1.0], [1.0], [[0.0]]))
    assert measurement_noise(adapter)[0, 0] == pytest.approx(1.0)


def test_closed_loop_recovers_inflated_measurement_noise():
    """Scalar loop: R starts at 0.01 against a true value of 4.0."""
    rng = np.random.default_rng(17)
    q_true, r_true = 0.1, 4.0
    adapter = ResidualNoiseAdapter(["z"], window=10)
    x, m, p = 0.0, 0.0, 1.0
    r_hat = 0.01
    history = []
    for k in range(1500):
        x += rng.normal(0.0, np.sqrt(q_true))
        z = np.array([x + rng.normal(0.0, np.sqrt(r_true))])
        delta, record = kf_update(np.array([[p + q_true]]), z - m, np.array([[r_hat]]),
                                  sensor_id="z")
        m, p = m + delta[0], record.cov_post[0, 0]
        adapter.push("z", record)
        r_hat = measurement_noise(adapter)[0, 0]
        history.append(r_hat)
    assert 3.0 < np.mean(history[-200:]) < 5.0
