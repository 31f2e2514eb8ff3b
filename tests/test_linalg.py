"""Numerical helpers: solve, projection, symmetrization."""

import numpy as np
import pytest

from corfuse.linalg import floor_diagonal, psd_project, spd_solve, symmetrize


def random_spd(rng, n, scale=1.0):
    a = rng.standard_normal((n, n))
    return scale * (a @ a.T + n * np.eye(n))


def test_symmetrize_is_symmetric_part():
    a = np.array([[1.0, 2.0], [0.0, 3.0]])
    s = symmetrize(a)
    np.testing.assert_allclose(s, np.array([[1.0, 1.0], [1.0, 3.0]]))
    np.testing.assert_allclose(s, s.T)


def test_spd_solve_matches_numpy_on_well_conditioned_problems():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = rng.integers(1, 8)
        a = random_spd(rng, n)
        b = rng.standard_normal((n, int(rng.integers(1, 4))))
        x, regularized = spd_solve(a, b)
        assert not regularized
        np.testing.assert_allclose(x, np.linalg.solve(a, b), rtol=1e-8, atol=1e-10)


def test_spd_solve_regularizes_singular_input_instead_of_raising():
    a = np.zeros((3, 3))
    b = np.eye(3)
    x, regularized = spd_solve(a, b)
    assert regularized
    assert np.all(np.isfinite(x))


def test_spd_solve_handles_large_scale_near_singular_matrices():
    # Ridge escalation has to act relative to the matrix scale, not in
    # absolute units, or a 1e12-scale rank-deficient matrix never recovers.
    rng = np.random.default_rng(5)
    v = rng.standard_normal((4, 1))
    a = 1e12 * (v @ v.T)
    x, regularized = spd_solve(a, np.ones(4))
    assert regularized
    assert np.all(np.isfinite(x))


def test_psd_project_clips_negative_eigenvalues():
    a = np.diag([2.0, -1.0])
    p = psd_project(a)
    w = np.linalg.eigvalsh(p)
    assert w.min() >= 0.0
    np.testing.assert_allclose(p, np.diag([2.0, 0.0]), atol=1e-12)


def test_psd_project_keeps_psd_input_bitwise_when_already_clean():
    rng = np.random.default_rng(7)
    a = random_spd(rng, 4)
    p = psd_project(a)
    # Already PSD input passes through the eigenvalue check untouched.
    np.testing.assert_array_equal(p, symmetrize(a))


def test_psd_project_fuzz_never_returns_indefinite(seed=29, trials=500):
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        n = int(rng.integers(1, 9))
        a = rng.standard_normal((n, n))
        p = psd_project(symmetrize(a))
        assert np.linalg.eigvalsh(p).min() >= -1e-12


def test_floor_diagonal_only_touches_diagonal():
    a = np.array([[1e-20, 0.5], [0.5, 2.0]])
    out = floor_diagonal(a, 1e-6)
    assert out[0, 0] == 1e-6
    assert out[1, 1] == 2.0
    assert out[0, 1] == 0.5
    assert a[0, 0] == 1e-20  # input untouched
