"""Prediction and correction primitives with correntropy-weighted gains.

The primitives act on the covariance P of an error state whose mean is
zero before every step, as in an error-state filter that injects each
correction into its nominal state and resets the error.  They take the
model as plain matrices: ``predict`` a transition F and process noise Q,
``mcckf_update`` and ``kf_update`` the innovation y, an observation matrix
H and measurement noise R, and return the error estimate delta = K y.  A
filter that carries a non-zero prior mean m passes y = z - H m and adds
delta to m.

The correction gain is computed in covariance form (Chen et al., "Maximum
correntropy Kalman filter", Automatica 2017),

    K = P H^T sqrt(C) (sqrt(C) H P H^T sqrt(C) + R)^-1 sqrt(C)

where ``C`` is a diagonal matrix of Gaussian-kernel weights evaluated per
measurement dimension.  A dimension whose innovation is implausibly large
gets a weight near zero and stops influencing the state; a weight of
exactly zero zeroes its gain column.  By the matrix inversion lemma this
is the information-form gain (P^-1 + H^T C R^-1 H)^-1 H^T C R^-1 of the
MCC-KF, but it needs one Cholesky factorization, of the innovation
covariance S, instead of three.  Neither P, R nor C is inverted, so a prior
with an exactly known state needs no ridge and weights down to exp(-700)
cannot overflow.  With ``C = I`` the expression collapses to the ordinary
Kalman gain, so the robust and the plain correction share a single code
path (``kf_update`` simply forces identity weights).

The posterior covariance always uses the Joseph form with the unmodified
measurement noise,

    P+ = (I - K H) P (I - K H)^T + K R K^T

which stays positive semidefinite for any gain, weighted or not.

Identity observation: an ``obs_jac`` that is ``IDENTITY``, the shared
read-only 9x9 identity (the odometry Jacobian of ``eskf``), skips its
products: P H^T is P, H P H^T is P, I - K H is I - K and H delta is delta.
One test picks the operand; the gain algebra is written once.  A product
with an exact identity returns its finite operand bit for bit, up to the
sign of a zero, so both paths give the same estimates; any other H, a fresh
``np.eye(9)`` included, takes the general products.  Unlike the ``so3``
helpers and the kernel bandwidth, the kernel weights stay NumPy, both
exponents as the rows of one array: on Python floats they would need
``math.exp``, which differs from ``np.exp`` in the last bit on about 5 % of
arguments.

Symmetry contract: every covariance these primitives return (``predict``'s
and the posterior ``InnovationRecord.cov_post``) is exactly symmetric, bit
for bit, because each is the symmetric part 0.5 (A + A^T).  Callers pass
exactly symmetric covariances in; the correction uses the prior covariance
as given, the very object, and records it as ``cov_pred``.
"""
from __future__ import annotations

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
# The identity observation matrix whose products a correction skips, and the
# Jacobian of every odometry correction of ``eskf``.  It is read-only, so a
# write through a correction record or an adapter raises instead of
# corrupting the corrections that follow.
IDENTITY = np.eye(9)
IDENTITY.setflags(write=False)


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

    innovation: np.ndarray          # y = z - H x_prior, as passed in
    residual: np.ndarray            # r = y - H delta = z - H x_posterior
    obs_jacobian: np.ndarray        # H
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
    A zero innovation weighs exactly 1, however small the kernel size.
    """
    y = np.asarray(innovation, dtype=float)
    sigma = np.asarray(bandwidth, dtype=float)
    # y^2 / (-2 sigma^2 R) is -y^2 / (2 sigma^2 R) bit for bit: a sign flip is exact.
    scale = -2.0 * sigma * sigma
    denom = np.array((scale, scale * np.asarray(noise, dtype=float).diagonal()))
    # Where -2 sigma^2 R_jj underflowed to 0 the exponent is its limit as the
    # kernel size shrinks: 0 for a zero innovation (weight 1), else -inf.
    expo = np.divide(y * y, denom, out=np.where(y != 0.0, -np.inf, denom),
                     where=denom != 0.0)
    unweighted, weighted = np.exp(np.maximum(expo, EXP_FLOOR, out=expo), out=expo)
    return CorrentropyWeights(unweighted=unweighted, weighted=weighted)


def _apply_correction(cov_pred: np.ndarray, y: np.ndarray, obs_jac: np.ndarray,
                      noise: np.ndarray, bandwidth: Optional[np.ndarray], sensor_id: str
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
    ident = obs_jac is IDENTITY
    obs_jac = np.asarray(obs_jac, dtype=float)

    # The weights enter as the symmetric split sqrt(C) (.) sqrt(C), which
    # keeps S symmetric PSD when an adapted R carries off-diagonal structure.
    root_c = np.sqrt(weights.weighted)
    ph = (cov_pred if ident else cov_pred @ obs_jac.T) * root_c  # P H^T sqrt(C)
    innov_cov = symmetrize(root_c[:, None] * (ph if ident else obs_jac @ ph) + noise)
    sol, regularized = spd_solve(innov_cov, ph.T)   # S^-1 sqrt(C) H P
    gain = sol.T * root_c
    if regularized:
        log.warning("innovation covariance from sensor '%s' needed a ridge", sensor_id)

    delta = gain @ y
    ikh = (IDENTITY - gain) if ident else np.eye(cov_pred.shape[0]) - gain @ obs_jac
    cov = symmetrize(ikh @ cov_pred @ ikh.T + gain @ noise @ gain.T)
    record = InnovationRecord(
        innovation=y, residual=y - (delta if ident else obs_jac @ delta), obs_jacobian=obs_jac,
        cov_pred=cov_pred, cov_post=cov, gain=gain, weights=weights,
        regularized=regularized, bandwidth=bandwidth,
    )
    return delta, record


def mcckf_update(cov: np.ndarray, y: np.ndarray, obs_jac: np.ndarray,
                 noise: np.ndarray, bandwidth: np.ndarray, sensor_id: str = ""
                 ) -> tuple[np.ndarray, InnovationRecord]:
    """Correntropy-weighted correction by the innovation ``y`` with kernel sizes ``bandwidth``.

    Returns the error estimate ``delta = K y`` and the correction's record,
    whose ``bandwidth`` is the very ``bandwidth`` array.  ``sensor_id``
    only names the source in the rejection of a non-finite innovation.
    """
    return _apply_correction(cov, y, obs_jac, noise, bandwidth, sensor_id)


def kf_update(cov: np.ndarray, y: np.ndarray, obs_jac: np.ndarray,
              noise: np.ndarray, sensor_id: str = ""
              ) -> tuple[np.ndarray, InnovationRecord]:
    """Plain Kalman correction: identical code path with unit kernel weights.

    The record's ``bandwidth`` is None, as no kernel was evaluated.
    """
    return _apply_correction(cov, y, obs_jac, noise, None, sensor_id)
