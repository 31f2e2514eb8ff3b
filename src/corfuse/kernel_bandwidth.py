"""Per-dimension kernel bandwidth selection for the correntropy weights.

Each measurement dimension gets its own bandwidth

    sigma_mu = 1 / (y_mu^2 / R_mu_mu + H_mu P H_mu^T)

evaluated with the innovation and the noise estimate from the previous
step, then clamped to a configured interval.  Small innovations produce a
large bandwidth (the kernel saturates at 1 and the correction behaves like
a plain Kalman update); large innovations shrink the bandwidth and the
offending dimension is smoothly rejected.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SIGMA_MIN_DEFAULT = 1e-3
SIGMA_MAX_DEFAULT = 1e6


def adapt_bandwidth(innovation: np.ndarray, noise_prev: np.ndarray,
                    obs_jacobian: np.ndarray, cov_pred: np.ndarray,
                    sigma_min: float = SIGMA_MIN_DEFAULT,
                    sigma_max: float = SIGMA_MAX_DEFAULT) -> np.ndarray:
    """Return the clamped per-dimension bandwidth vector.

    ``noise_prev`` is the measurement-noise estimate from the previous
    correction of the same sensor; only its diagonal is used.  A zero
    denominator maps to the upper clamp.
    """
    y = np.asarray(innovation, dtype=float)
    r_diag = np.diag(np.asarray(noise_prev, dtype=float))
    h = np.asarray(obs_jacobian, dtype=float)
    hph = np.einsum("ij,jk,ik->i", h, np.asarray(cov_pred, dtype=float), h)
    denom = y * y / r_diag + hph
    with np.errstate(divide="ignore"):
        sigma = 1.0 / denom
    return np.minimum(np.maximum(sigma, sigma_min), sigma_max)  # np.clip's bits, at half its cost


@dataclass
class BandwidthState:
    """Kernel bandwidth policy, shared by every sensor of an engine.

    In static mode ``update`` returns a fresh vector of ``sigma_static``,
    one entry per innovation dimension; in adaptive mode it computes the
    bandwidth from the incoming innovation before the correction runs.
    The engine calls it for kernel variants only, and the correction's
    record keeps the returned array as its ``bandwidth``.
    """

    adaptive: bool = True
    sigma_static: float = SIGMA_MAX_DEFAULT
    sigma_min: float = SIGMA_MIN_DEFAULT
    sigma_max: float = SIGMA_MAX_DEFAULT

    def update(self, innovation: np.ndarray, noise_prev: np.ndarray,
               obs_jacobian: np.ndarray, cov_pred: np.ndarray) -> np.ndarray:
        if self.adaptive:
            return adapt_bandwidth(
                innovation, noise_prev, obs_jacobian, cov_pred,
                sigma_min=self.sigma_min, sigma_max=self.sigma_max,
            )
        return np.full(len(innovation), float(self.sigma_static))
