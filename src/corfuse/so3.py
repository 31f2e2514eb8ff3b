"""Quaternion and rotation-vector helpers.

Quaternions are Hamilton convention, stored as [w, x, y, z] with the
scalar part first.  Rotation vectors are axis * angle.  Orientation
errors are body-side throughout the package: a perturbed orientation is
q_true = q_nominal * exp(delta_theta).

Each helper computes on Python floats from ``tolist()`` and builds one
``np.array``, which costs less than NumPy calls on 3- and 4-vectors.  The
results are bitwise equal to the elementwise NumPy forms: Python and NumPy
scalars round alike, ``math.sin``/``cos`` equal ``np.sin``/``cos``, and
norms are ``math.sqrt(v.dot(v))`` as in ``np.linalg.norm``.  A Python sum
of products is not equal to BLAS ``dot`` or ``@``, which fuse multiply and
add, so matrix products stay ``@``; nor is ``math.atan2`` to ``np.arctan2``.
"""
from __future__ import annotations

import math

import numpy as np

SMALL_ANGLE = 1e-8


def skew(v: np.ndarray) -> np.ndarray:
    """Cross-product matrix: skew(v) @ u == cross(v, u)."""
    x, y, z = v.tolist()
    return np.array([
        [0.0, -z, y],
        [z, 0.0, -x],
        [-y, x, 0.0],
    ])


def quat_multiply(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    aw, ax, ay, az = a.tolist()
    bw, bx, by, bz = b.tolist()
    return np.array([
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    ])


def quat_conjugate(q: np.ndarray) -> np.ndarray:
    w, x, y, z = q.tolist()
    return np.array([w, -x, -y, -z])


def quat_normalize(q: np.ndarray) -> np.ndarray:
    norm = math.sqrt(q.dot(q))
    return np.array([c / norm for c in q.tolist()])


def quat_to_rotmat(q: np.ndarray) -> np.ndarray:
    w, x, y, z = q.tolist()
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def quat_from_rotvec(v: np.ndarray) -> np.ndarray:
    """Exponential map: rotation vector to unit quaternion."""
    angle = math.sqrt(v.dot(v))
    if angle < SMALL_ANGLE:
        # Second-order series keeps the map smooth through zero.
        half = 0.5 - angle * angle / 48.0
        return quat_normalize(np.concatenate(([1.0 - angle * angle / 8.0], half * v)))
    half_angle = 0.5 * angle
    s = math.sin(half_angle)
    return np.array([math.cos(half_angle)] + [s * (c / angle) for c in v.tolist()])


def quat_to_rotvec(q: np.ndarray) -> np.ndarray:
    """Logarithmic map: unit quaternion to rotation vector with angle <= pi.

    q and -q encode the same rotation; the scalar part is flipped positive
    so the returned angle is the short way around.
    """
    w, x, y, z = q.tolist()
    if w < 0.0:
        w, x, y, z = -w, -x, -y, -z
    w = np.float64(min(w, 1.0))  # w == 0 divides to inf, as in NumPy
    vec = q[1:]
    s = math.sqrt(vec.dot(vec))
    scale = 2.0 / w if s < SMALL_ANGLE else 2.0 * np.arctan2(s, w) / s
    return np.array([x * scale, y * scale, z * scale])


def rotvec_to_rotmat(v: np.ndarray) -> np.ndarray:
    return quat_to_rotmat(quat_from_rotvec(v))


def rotation_angle(q: np.ndarray) -> float:
    """Rotation angle of a unit quaternion, in [0, pi]."""
    w = abs(float(q[0]))
    vec = q[1:]
    s = math.sqrt(vec.dot(vec))
    return 2.0 * np.arctan2(s, min(w, 1.0))
