"""Per-dimension bandwidth selection."""

import numpy as np
import pytest

from corfuse.filter_core import correntropy_weights
from corfuse.kernel_bandwidth import BandwidthState, adapt_bandwidth


def test_zero_innovation_reciprocal_of_projected_covariance():
    # y = 0 and P = 0.25 per channel leaves sigma = 4.
    sigma = adapt_bandwidth(np.zeros(1), np.eye(1), 0.25 * np.eye(1))
    assert sigma[0] == pytest.approx(4.0)


def test_hand_computed_mixed_case():
    # y = 1, R = 0.5, P = 1  ->  1 / (1/0.5 + 1) = 1/3
    sigma = adapt_bandwidth(np.array([1.0]), np.array([[0.5]]), np.eye(1))
    assert sigma[0] == pytest.approx(1.0 / 3.0)


def test_large_innovation_drives_bandwidth_to_floor():
    sigma = adapt_bandwidth(np.array([1e8]), np.eye(1), np.eye(1), sigma_min=1e-3)
    assert sigma[0] == pytest.approx(1e-3)


def test_bandwidth_positive_over_random_inputs(trials=20000, seed=13):
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        m = int(rng.integers(1, 10))
        y = 10.0 ** rng.uniform(-9, 9) * rng.standard_normal(m)
        r = np.diag(10.0 ** rng.uniform(-9, 9, size=m))
        a = rng.standard_normal((m, m))
        p = a @ a.T
        sigma = adapt_bandwidth(y, r, p)
        assert np.all(sigma > 0.0)
        assert np.all(np.isfinite(sigma))


def test_bandwidth_non_increasing_in_innovation_magnitude(sweeps=1000, seed=19):
    rng = np.random.default_rng(seed)
    for _ in range(sweeps):
        r = np.diag(10.0 ** rng.uniform(-3, 3, size=1))
        a = rng.standard_normal((1, 1))
        p = a @ a.T
        mags = np.sort(np.abs(rng.standard_normal(8))) * 10.0 ** rng.uniform(-2, 2)
        values = [adapt_bandwidth(np.array([m]), r, p,
                                  sigma_min=0.0, sigma_max=np.inf)[0]
                  for m in mags]
        for earlier, later in zip(values, values[1:]):
            assert later <= earlier + 1e-15


def test_small_innovations_saturate_the_kernel_weight():
    """Composing adaptation with the kernel sends healthy weights to one."""
    r = 0.04 * np.eye(1)
    p = 0.01 * np.eye(1)
    for y_val in (1e-2, 1e-3, 1e-4):
        y = np.array([y_val])
        sigma = adapt_bandwidth(y, r, p)
        w = correntropy_weights(y, r, sigma)
        assert w.weighted[0] > 0.99
    # and a gross outlier on the same geometry is annihilated
    y = np.array([20.0])
    sigma = adapt_bandwidth(y, r, p)
    w = correntropy_weights(y, r, sigma)
    assert w.weighted[0] < 1e-200


def test_state_clamps_to_its_interval():
    state = BandwidthState(adaptive=True, sigma_min=0.5, sigma_max=10.0)
    sigma = state.update(np.array([100.0, 0.0]), np.eye(2), np.zeros((2, 2)))
    assert sigma[0] == pytest.approx(0.5)
    assert sigma[1] == pytest.approx(10.0)


def test_static_mode_ignores_the_innovation():
    state = BandwidthState(adaptive=False, sigma_static=2.0)
    sigma = state.update(np.array([1e9, 0.0, 5.0]), np.eye(3), np.eye(3))
    np.testing.assert_array_equal(sigma, np.full(3, 2.0))
