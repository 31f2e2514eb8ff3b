"""Quaternion and rotation-vector utilities."""

import numpy as np
import pytest

from corfuse.so3 import (quat_conjugate, quat_from_rotvec, quat_multiply,
                         quat_multiply_floats, quat_normalize, quat_relative_floats,
                         quat_to_rotmat, quat_to_rotmat_floats, quat_to_rotvec,
                         rotation_angle, rotvec_to_rotmat, skew)


def random_rotvec(rng, max_angle=np.pi - 0.1):
    axis = rng.standard_normal(3)
    axis /= np.linalg.norm(axis)
    return axis * rng.uniform(0.0, max_angle)


def test_skew_reproduces_cross_product():
    rng = np.random.default_rng(0)
    for _ in range(50):
        a, b = rng.standard_normal(3), rng.standard_normal(3)
        np.testing.assert_allclose(skew(a) @ b, np.cross(a, b), atol=1e-14)
    assert np.all(skew(np.ones(3)) == -skew(np.ones(3)).T)


def test_quat_multiply_identity_and_inverse():
    rng = np.random.default_rng(1)
    identity = np.array([1.0, 0.0, 0.0, 0.0])
    for _ in range(30):
        q = quat_normalize(rng.standard_normal(4))
        np.testing.assert_allclose(quat_multiply(q, identity), q, atol=1e-15)
        np.testing.assert_allclose(quat_multiply(q, quat_conjugate(q)),
                                   identity, atol=1e-12)


def test_quat_multiply_matches_rotation_composition():
    rng = np.random.default_rng(2)
    for _ in range(30):
        a = quat_normalize(rng.standard_normal(4))
        b = quat_normalize(rng.standard_normal(4))
        np.testing.assert_allclose(quat_to_rotmat(quat_multiply(a, b)),
                                   quat_to_rotmat(a) @ quat_to_rotmat(b),
                                   atol=1e-12)


def test_rotmat_is_orthonormal():
    rng = np.random.default_rng(3)
    for _ in range(30):
        rot = quat_to_rotmat(quat_normalize(rng.standard_normal(4)))
        np.testing.assert_allclose(rot @ rot.T, np.eye(3), atol=1e-12)
        assert np.linalg.det(rot) == pytest.approx(1.0, abs=1e-12)


def test_exp_log_round_trip():
    rng = np.random.default_rng(4)
    for _ in range(200):
        v = random_rotvec(rng)
        np.testing.assert_allclose(quat_to_rotvec(quat_from_rotvec(v)), v,
                                   atol=1e-10)


def test_log_picks_short_arc():
    v = np.array([0.0, 0.0, 1.0])
    q = quat_from_rotvec(v)
    np.testing.assert_allclose(quat_to_rotvec(-q), v, atol=1e-12)


def test_small_angle_maps_are_smooth_through_zero():
    np.testing.assert_allclose(quat_from_rotvec(np.zeros(3)),
                               [1.0, 0.0, 0.0, 0.0], atol=1e-15)
    for angle in (1e-12, 1e-9, 1e-7):
        v = np.array([angle, 0.0, 0.0])
        back = quat_to_rotvec(quat_from_rotvec(v))
        assert back[0] == pytest.approx(angle, rel=1e-6)


def test_rotvec_to_rotmat_matches_rodrigues():
    rng = np.random.default_rng(5)
    for _ in range(50):
        v = random_rotvec(rng)
        angle = np.linalg.norm(v)
        k = skew(v / angle)
        rodrigues = (np.eye(3) + np.sin(angle) * k
                     + (1.0 - np.cos(angle)) * (k @ k))
        np.testing.assert_allclose(rotvec_to_rotmat(v), rodrigues, atol=1e-12)


def test_rotation_angle_examples():
    assert rotation_angle(np.array([1.0, 0.0, 0.0, 0.0])) == 0.0
    q_half = quat_from_rotvec(np.array([0.0, np.pi / 2, 0.0]))
    assert rotation_angle(q_half) == pytest.approx(np.pi / 2)
    assert rotation_angle(-q_half) == pytest.approx(np.pi / 2)


def test_normalize_handles_denormalized_input():
    q = quat_normalize(np.array([2.0, 0.0, 0.0, 0.0]))
    np.testing.assert_allclose(q, [1.0, 0.0, 0.0, 0.0])
    assert np.linalg.norm(quat_normalize(np.array([0.1, -0.4, 0.2, 0.9]))) == (
        pytest.approx(1.0, abs=1e-15))


def quaternion_rows(rng, n=200):
    """Unit quaternion rows, half with w < 0, led by the identity and signed-zero rows."""
    rows = rng.standard_normal((n, 4))
    rows /= np.linalg.norm(rows, axis=1)[:, None]
    rows[:6] = [[1.0, 0.0, 0.0, 0.0], [1.0, -0.0, 0.0, -0.0], [-1.0, 0.0, -0.0, 0.0],
                [0.0, -0.0, 1.0, 0.0], [-0.0, 0.0, 0.0, -1.0], [-0.6, 0.0, -0.8, -0.0]]
    return rows


def test_float_forms_on_row_columns_equal_the_per_row_helpers_bitwise():
    """Given the columns of (N, 4) rows, each float form returns the bits of a per-row call."""
    rng = np.random.default_rng(6)
    a = quaternion_rows(rng)
    b = np.roll(quaternion_rows(rng), 3, axis=0)  # leading rows meet random and leading rows
    assert (a[:, 0] < 0.0).any() and np.signbit(a[:6]).any()
    cases = [
        (quat_multiply_floats(a.T, b.T), [quat_multiply(p, q) for p, q in zip(a, b)]),
        (quat_relative_floats(a.T, b.T),
         [quat_multiply(quat_conjugate(p), q) for p, q in zip(a, b)]),
        (quat_to_rotmat_floats(*a.T), [quat_to_rotmat(p).ravel() for p in a]),
    ]
    for columns, per_row in cases:
        assert np.column_stack(columns).tobytes() == np.array(per_row).tobytes()
