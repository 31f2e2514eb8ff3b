"""Per-dimension kernel bandwidth selection for the correntropy weights.

Each measurement dimension gets its own bandwidth

    sigma_mu = 1 / (y_mu^2 / R_mu_mu + P_mu_mu)

evaluated with the innovation and the noise estimate from the previous
step, then clamped to a configured interval.  The measurement observes the
state, as in ``filter_core``, so P's diagonal is the predicted variance of
each dimension.  Small innovations produce a large bandwidth (the kernel
saturates at 1 and the correction behaves like a plain Kalman update);
large innovations shrink the bandwidth and the offending dimension is
smoothly rejected.

As in ``so3``, the per-dimension arithmetic runs on Python floats from
``tolist()`` and builds one array: Python and NumPy round +, -, *, /
alike, so the bits are those of the elementwise NumPy form.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SIGMA_MIN_DEFAULT = 1e-3
SIGMA_MAX_DEFAULT = 1e6


def adapt_bandwidth(innovation: np.ndarray, noise_prev: np.ndarray, cov_pred: np.ndarray,
                    sigma_min: float = SIGMA_MIN_DEFAULT,
                    sigma_max: float = SIGMA_MAX_DEFAULT) -> np.ndarray:
    """Return the clamped per-dimension bandwidth vector.

    ``noise_prev`` is the measurement-noise estimate from the previous
    correction of the same sensor; only its diagonal is used, and it must
    be non-zero.  A zero denominator maps to the upper clamp.
    """
    y = np.asarray(innovation, dtype=float).tolist()
    r_diag = np.asarray(noise_prev, dtype=float).diagonal().tolist()
    denoms = [v * v / r + p for v, r, p in zip(y, r_diag, cov_pred.diagonal().tolist())]
    return np.array([min(max(1.0 / d if d != 0.0 else math.inf, sigma_min), sigma_max)
                     for d in denoms], dtype=float)


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
               cov_pred: np.ndarray) -> np.ndarray:
        if self.adaptive:
            return adapt_bandwidth(
                innovation, noise_prev, cov_pred,
                sigma_min=self.sigma_min, sigma_max=self.sigma_max,
            )
        return np.full(len(innovation), float(self.sigma_static))
