"""Prediction and correction primitives with correntropy-weighted gains.

The primitives act on the covariance P of an error state whose mean is
zero before every step, as in an error-state filter that injects each
correction into its nominal state and resets the error.  They take the
model as plain matrices: ``predict`` a transition F and process noise Q,
``mcckf_update`` and ``kf_update`` the innovation y and measurement noise R,
and return the error estimate delta = K y.  The measurement observes the
whole state: H is the identity of y's size, as for odometry that reports
position, velocity and attitude; a y whose size is not P's raises
ValueError.  A filter that carries a non-zero prior mean m passes
y = z - m and adds delta to m.

The correction gain is computed in covariance form (Chen et al., "Maximum
correntropy Kalman filter", Automatica 2017),

    K = P sqrt(C) (sqrt(C) P sqrt(C) + R)^-1 sqrt(C)

where ``C`` is a diagonal matrix of Gaussian-kernel weights evaluated per
measurement dimension.  A dimension whose innovation is implausibly large
gets a weight near zero and stops influencing the state; a weight of
exactly zero zeroes its gain column.  By the matrix inversion lemma this
is the information-form gain (P^-1 + C R^-1)^-1 C R^-1 of the MCC-KF, but
it needs one Cholesky factorization, of the innovation covariance S,
instead of three.  Neither P, R nor C is inverted, so a prior with an
exactly known state needs no ridge and weights down to exp(-700) cannot
overflow.  With ``C = I`` the expression collapses to the ordinary
Kalman gain, so the robust and the plain correction share a single code
path (``kf_update`` simply forces identity weights).

The posterior covariance always uses the Joseph form with the unmodified
measurement noise,

    P+ = (I - K) P (I - K)^T + K R K^T

which stays positive semidefinite for any gain, weighted or not.  Unlike
the ``so3`` helpers and the kernel bandwidth, the kernel weights stay
NumPy, both exponents as the rows of one array: on Python floats they
would need ``math.exp``, which differs from ``np.exp`` in the last bit on
about 5 % of arguments.

Symmetry contract: every covariance these primitives return (``predict``'s
and the posterior ``InnovationRecord.cov_post``) is exactly symmetric, bit
for bit, because each is the symmetric part 0.5 (A + A^T).  Callers pass
exactly symmetric covariances in; the correction uses the prior covariance
as given, the very object, and records it as ``cov_pred``.
"""
from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import MeasurementRejected, PropagationError
from .linalg import spd_solve, symmetrize

log = logging.getLogger(__name__)

# Clamp for kernel exponents: exp(-700) is still a normal float, so weights
# stay strictly positive without drifting into denormal territory.
EXP_FLOOR = -700.0
# A finite y^2 / d can overflow only where y^2 * 2^-1023 >= |d|.
_OVERFLOW_SCALE = 2.0 ** -1023


@functools.cache
def _identity(dim: int) -> np.ndarray:
    """The read-only identity of size ``dim`` that every correction of that size shares."""
    eye = np.eye(dim)
    eye.setflags(write=False)
    return eye


@dataclass
class CorrentropyWeights:
    """Per-dimension Gaussian kernel weights for one innovation vector.

    Attributes:
        unweighted: L_j = exp(-y_j^2 / (2 sigma_j^2)); used by the noise
            adaptation statistics.
        weighted: C_j = exp(-y_j^2 / (2 sigma_j^2 R_jj)); used inside the
            gain, where the innovation is measured in units of the noise.
    """

    unweighted: np.ndarray
    weighted: np.ndarray


@dataclass
class InnovationRecord:
    """Everything a noise-adaptation scheme needs from one correction."""

    innovation: np.ndarray          # y = z - x_prior, as passed in
    residual: np.ndarray            # r = y - delta = z - x_posterior
    cov_pred: np.ndarray            # P before the correction
    cov_post: np.ndarray            # P after the correction
    gain: np.ndarray                # K actually applied
    weights: CorrentropyWeights
    regularized: bool = False       # S needed a ridge
    bandwidth: Optional[np.ndarray] = None  # kernel sizes of the weights; None: unit weights


def predict(cov: np.ndarray, trans: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """Propagate an error covariance: F P F^T + Q, re-symmetrized.

    Raises PropagationError naming the first state index whose variance
    came back non-finite, be it from a non-finite row of F or from an
    overflow of F P F^T.
    """
    trans = np.asarray(trans, dtype=float)
    # symmetrize(F P F^T + Q) in place: a ufunc reads an overlapping operand
    # as if copied first, so out + out^T is formed from the unchanged sum.
    out = trans @ cov @ trans.T
    out += noise
    out += out.T
    out *= 0.5
    diagonal = out.diagonal().tolist()
    if not all(map(math.isfinite, diagonal)):
        bad = next(i for i, v in enumerate(diagonal) if not math.isfinite(v))
        raise PropagationError(f"non-finite variance after propagation at index {bad}")
    return out


def correntropy_weights(innovation: np.ndarray, noise: np.ndarray,
                        bandwidth: np.ndarray) -> CorrentropyWeights:
    """Evaluate the per-dimension Gaussian kernel on an innovation vector.

    Only the diagonal of ``noise`` enters the weighted variant; off-diagonal
    structure is handled by the gain itself.  Both outputs lie in (0, 1].
    A zero innovation weighs exactly 1, however small the kernel size, and
    one whose quotient y^2 / (-2 sigma^2 R_jj) would overflow weighs
    exp(EXP_FLOOR) without a NumPy warning, an innovation of 2^512 or more in
    size included, whose square overflows to inf.
    """
    y = np.asarray(innovation, dtype=float)
    sigma = np.asarray(bandwidth, dtype=float)
    # y^2 / (-2 sigma^2 R) is -y^2 / (2 sigma^2 R) bit for bit: a sign flip is exact.
    scale = -2.0 * sigma * sigma
    denom = np.array((scale, scale * np.asarray(noise, dtype=float).diagonal()))
    # y * y, bit for bit, on Python floats: a square of 2^512 or more overflows
    # to inf there without NumPy's warning, and the mask below takes it.
    y2 = np.array([v * v for v in y.tolist()])
    # Where -2 sigma^2 R_jj underflowed to 0 the exponent is its limit as the
    # kernel size shrinks: 0 for a zero innovation (weight 1), else -inf.  A
    # quotient of 2^1023 or more in size, which the floor would clamp if it did
    # not overflow, is -inf too.  A NaN still divides, unless by 0.
    expo = np.divide(y2, denom, out=np.where(y != 0.0, -np.inf, denom),
                     where=(denom != 0.0) & ~(y2 * _OVERFLOW_SCALE >= np.abs(denom)))
    unweighted, weighted = np.exp(np.maximum(expo, EXP_FLOOR, out=expo), out=expo)
    return CorrentropyWeights(unweighted=unweighted, weighted=weighted)


def _apply_correction(cov_pred: np.ndarray, y: np.ndarray, noise: np.ndarray,
                      bandwidth: Optional[np.ndarray], sensor_id: str
                      ) -> tuple[np.ndarray, InnovationRecord]:
    """The correction both updates share; no ``bandwidth`` means unit kernel weights."""
    y = np.asarray(y, dtype=float)
    if not all(map(math.isfinite, y.tolist())):
        raise MeasurementRejected(f"non-finite measurement from sensor '{sensor_id}'")
    if bandwidth is None:
        ones = np.ones(y.shape[0])
        weights = CorrentropyWeights(unweighted=ones, weighted=ones.copy())
    else:
        weights = correntropy_weights(y, noise, bandwidth)

    # The weights enter as the symmetric split sqrt(C) (.) sqrt(C), which
    # keeps S symmetric PSD when an adapted R carries off-diagonal structure.
    root_c = np.sqrt(weights.weighted)
    ph = cov_pred * root_c  # P sqrt(C)
    innov_cov = symmetrize(root_c[:, None] * ph + noise)
    sol, regularized = spd_solve(innov_cov, ph.T)   # S^-1 sqrt(C) P
    gain = sol.T * root_c
    if regularized:
        log.warning("innovation covariance from sensor '%s' needed a ridge", sensor_id)

    delta = gain @ y
    ikh = _identity(cov_pred.shape[0]) - gain
    cov = symmetrize(ikh @ cov_pred @ ikh.T + gain @ noise @ gain.T)
    record = InnovationRecord(
        innovation=y, residual=y - delta, cov_pred=cov_pred, cov_post=cov, gain=gain,
        weights=weights, regularized=regularized, bandwidth=bandwidth,
    )
    return delta, record


def mcckf_update(cov: np.ndarray, y: np.ndarray, noise: np.ndarray, bandwidth: np.ndarray,
                 sensor_id: str = "") -> tuple[np.ndarray, InnovationRecord]:
    """Correntropy-weighted correction by the innovation ``y`` with kernel sizes ``bandwidth``.

    Returns the error estimate ``delta = K y`` and the correction's record,
    whose ``bandwidth`` is the very ``bandwidth`` array.  ``sensor_id``
    only names the source in the rejection of a non-finite innovation.
    """
    return _apply_correction(cov, y, noise, bandwidth, sensor_id)


def kf_update(cov: np.ndarray, y: np.ndarray, noise: np.ndarray,
              sensor_id: str = "") -> tuple[np.ndarray, InnovationRecord]:
    """Plain Kalman correction: identical code path with unit kernel weights.

    The record's ``bandwidth`` is None, as no kernel was evaluated.
    """
    return _apply_correction(cov, y, noise, None, sensor_id)
