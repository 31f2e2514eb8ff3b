"""Prediction and correction primitives with correntropy-weighted gains.

The primitives act on a linear(ized) error state and take the model as
plain matrices: ``predict`` a transition F and process noise Q,
``mcckf_update`` and ``kf_update`` an observation matrix H and
measurement noise R.

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

Symmetry contract: every covariance these primitives return (``predict``'s
and the posterior, also kept as ``InnovationRecord.cov_post``) is exactly
symmetric, bit for bit, because each is the symmetric part 0.5 (A + A^T).
Callers pass exactly symmetric covariances in; the correction uses the
prior covariance as given and records it as ``cov_pred``.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import MeasurementRejected, PropagationError
from .linalg import spd_solve, symmetrize

log = logging.getLogger(__name__)

# Clamp for kernel exponents: exp(-700) is still a normal float, so weights
# stay strictly positive without drifting into denormal territory.
EXP_FLOOR = -700.0


@dataclass
class GaussianBelief:
    """Gaussian state belief: mean vector and covariance."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self) -> None:
        self.mean = np.asarray(self.mean, dtype=float)
        self.cov = np.asarray(self.cov, dtype=float)


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

    innovation: np.ndarray          # y = z - H x_prior
    residual: np.ndarray            # r = z - H x_posterior
    obs_jacobian: np.ndarray        # H
    cov_pred: np.ndarray            # P before the correction
    cov_post: np.ndarray            # P after the correction
    gain: np.ndarray                # K actually applied
    weights: CorrentropyWeights
    regularized: bool = False       # S needed a ridge


def predict(belief: GaussianBelief, trans: np.ndarray, noise: np.ndarray) -> GaussianBelief:
    """Propagate a belief through the transition ``trans``.

    Mean goes to F x; covariance to F P F^T + Q with the result
    re-symmetrized.  Raises PropagationError naming the first state index
    that came back non-finite.
    """
    trans = np.asarray(trans, dtype=float)
    mean = trans @ belief.mean
    finite = np.isfinite(mean)
    if not finite.all():
        bad = int(np.flatnonzero(~finite)[0])
        raise PropagationError(f"non-finite state after propagation at index {bad}")
    cov = symmetrize(trans @ belief.cov @ trans.T + noise)
    return GaussianBelief(mean, cov)


def correntropy_weights(innovation: np.ndarray, noise: np.ndarray,
                        bandwidth: np.ndarray) -> CorrentropyWeights:
    """Evaluate the per-dimension Gaussian kernel on an innovation vector.

    Only the diagonal of ``noise`` enters the weighted variant; off-diagonal
    structure is handled by the gain itself.  Both outputs lie in (0, 1].
    """
    y = np.asarray(innovation, dtype=float)
    sigma = np.asarray(bandwidth, dtype=float)
    r_diag = np.diag(np.asarray(noise, dtype=float))
    y2 = y * y
    expo_l = np.maximum(-y2 / (2.0 * sigma * sigma), EXP_FLOOR)
    expo_c = np.maximum(-y2 / (2.0 * sigma * sigma * r_diag), EXP_FLOOR)
    return CorrentropyWeights(unweighted=np.exp(expo_l), weighted=np.exp(expo_c))


def _apply_correction(belief: GaussianBelief, z: np.ndarray, y: np.ndarray,
                      obs_jac: np.ndarray, noise: np.ndarray, weights: CorrentropyWeights
                      ) -> tuple[GaussianBelief, InnovationRecord]:
    n = belief.mean.shape[0]
    cov_pred = belief.cov

    # The weights enter as the symmetric split sqrt(C) (.) sqrt(C), which
    # keeps S symmetric PSD when an adapted R carries off-diagonal structure.
    root_c = np.sqrt(weights.weighted)
    ph = (cov_pred @ obs_jac.T) * root_c            # P H^T sqrt(C)
    innov_cov = symmetrize(root_c[:, None] * (obs_jac @ ph) + noise)
    sol, regularized = spd_solve(innov_cov, ph.T)   # S^-1 sqrt(C) H P
    gain = sol.T * root_c
    if regularized:
        log.warning("innovation covariance needed a ridge")

    mean = belief.mean + gain @ y
    ikh = np.eye(n) - gain @ obs_jac
    cov = symmetrize(ikh @ cov_pred @ ikh.T + gain @ noise @ gain.T)
    posterior = GaussianBelief(mean, cov)
    residual = z - obs_jac @ mean
    record = InnovationRecord(
        innovation=y, residual=residual, obs_jacobian=obs_jac, cov_pred=cov_pred,
        cov_post=cov, gain=gain, weights=weights, regularized=regularized,
    )
    return posterior, record


def _check_measurement(z: np.ndarray, sensor_id: str) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    if not np.all(np.isfinite(z)):
        raise MeasurementRejected(f"non-finite measurement from sensor '{sensor_id}'")
    return z


def mcckf_update(belief: GaussianBelief, z: np.ndarray, obs_jac: np.ndarray,
                 noise: np.ndarray, bandwidth: np.ndarray, sensor_id: str = ""
                 ) -> tuple[GaussianBelief, InnovationRecord]:
    """Correntropy-weighted correction of ``z = H x + v`` with kernel sizes ``bandwidth``.

    ``sensor_id`` only names the source in the rejection of a non-finite
    measurement.
    """
    z = _check_measurement(z, sensor_id)
    obs_jac = np.asarray(obs_jac, dtype=float)
    y = z - obs_jac @ belief.mean
    weights = correntropy_weights(y, noise, bandwidth)
    return _apply_correction(belief, z, y, obs_jac, noise, weights)


def kf_update(belief: GaussianBelief, z: np.ndarray, obs_jac: np.ndarray,
              noise: np.ndarray, sensor_id: str = ""
              ) -> tuple[GaussianBelief, InnovationRecord]:
    """Plain Kalman correction: identical code path with unit kernel weights."""
    z = _check_measurement(z, sensor_id)
    obs_jac = np.asarray(obs_jac, dtype=float)
    y = z - obs_jac @ belief.mean
    ones = np.ones(y.shape[0])
    weights = CorrentropyWeights(unweighted=ones, weighted=ones.copy())
    return _apply_correction(belief, z, y, obs_jac, noise, weights)
