"""Residual-based noise adaptation over a fixed-length window.

A cheaper alternative to the variational scheme: buffer kernel-weighted
outer products of the post-fit residual r and the innovation y, average
them over the window, and read the noise estimates directly:

    R = mean(L r r^T L) + H P+ H^T
    Q = K mean(L y y^T L) K^T

The innovation form for Q is a deliberate approximation (it measures the
state correction rather than the process noise itself) but it is O(window)
per step with no backward pass.  With unit weights the window average of
r r^T reduces to the classical residual-based adaptive update.

``check_identity_gamma`` verifies the algebraic identity

    Gamma^-1 y = R^-1 r      with  Gamma = H P- H^T + R

which holds exactly for the optimal (unweighted) Kalman gain and is useful
as a self-test of a correction implementation.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Optional

import numpy as np

from .errors import AdaptationNotReady
from .filter_core import InnovationRecord
from .linalg import floor_diagonal, psd_project, spd_solve, symmetrize

DIAG_FLOOR = 1e-12


@dataclass
class ResidualWindowEntry:
    """Weighted outer products and solver snapshots for one correction."""

    weighted_rr: np.ndarray   # (L r)(L r)^T
    weighted_yy: np.ndarray   # (L y)(L y)^T
    obs_jacobian: np.ndarray
    cov_post: np.ndarray
    gain: np.ndarray


class ResidualWindow:
    """Ring buffer of per-correction entries for one sensor."""

    def __init__(self, length: int) -> None:
        if length < 1:
            raise ValueError("window length must be at least 1")
        self.length = length
        self.entries: Deque[ResidualWindowEntry] = deque(maxlen=length)

    def push(self, record: InnovationRecord) -> None:
        weights = record.weights.unweighted
        wr = weights * record.residual
        wy = weights * record.innovation
        self.entries.append(ResidualWindowEntry(
            weighted_rr=np.outer(wr, wr),
            weighted_yy=np.outer(wy, wy),
            obs_jacobian=record.obs_jacobian,
            cov_post=record.cov_post,
            gain=record.gain,
        ))

    def __len__(self) -> int:
        return len(self.entries)


def _window_mean(window: ResidualWindow, attr: str) -> np.ndarray:
    if len(window) == 0:
        raise AdaptationNotReady("residual window is empty")
    total = None
    for entry in window.entries:
        value = getattr(entry, attr)
        total = value.copy() if total is None else total + value
    return total / len(window)


def gamma_residual(window: ResidualWindow) -> np.ndarray:
    """Window mean of the weighted residual outer products."""
    return _window_mean(window, "weighted_rr")


def gamma_innovation(window: ResidualWindow) -> np.ndarray:
    """Window mean of the weighted innovation outer products."""
    return _window_mean(window, "weighted_yy")


def estimate_measurement_noise(gamma: np.ndarray, window: ResidualWindow) -> np.ndarray:
    """R = Gamma_res + H P+ H^T using the newest entry's H and P+."""
    if len(window) == 0:
        raise AdaptationNotReady("residual window is empty")
    latest = window.entries[-1]
    h = latest.obs_jacobian
    estimate = symmetrize(gamma + h @ latest.cov_post @ h.T)
    return floor_diagonal(estimate, DIAG_FLOOR)


def estimate_process_noise(gamma_inn: np.ndarray, window: ResidualWindow,
                           diagonal_only: bool = False) -> np.ndarray:
    """Q = K Gamma_inn K^T with the newest gain, projected to be PSD."""
    if len(window) == 0:
        raise AdaptationNotReady("residual window is empty")
    gain = window.entries[-1].gain
    estimate = psd_project(gain @ gamma_inn @ gain.T)
    if diagonal_only:
        estimate = np.diag(np.diag(estimate))
    return floor_diagonal(estimate, DIAG_FLOOR)


def check_identity_gamma(record: InnovationRecord, noise: np.ndarray) -> float:
    """Max-norm deviation of Gamma^-1 y from R^-1 r for one correction.

    Exact (up to round-off) when the record came from an unweighted update
    with a linear observation model.
    """
    h = record.obs_jacobian
    gamma = symmetrize(h @ record.cov_pred @ h.T + noise)
    lhs, _ = spd_solve(gamma, record.innovation)
    rhs, _ = spd_solve(np.asarray(noise, dtype=float), record.residual)
    return float(np.max(np.abs(lhs - rhs)))


class ResidualNoiseAdapter:
    """Engine-facing wrapper: window, optional smoothing, paired estimates.

    ``smoothing`` is the blend factor applied to the measurement-noise
    estimate (1.0 replaces it outright, smaller values low-pass it).
    """

    def __init__(self, window: int = 10, smoothing: float = 1.0,
                 diagonal_process: bool = False) -> None:
        if not 0.0 < smoothing <= 1.0:
            raise ValueError("smoothing must lie in (0, 1]")
        self.window = ResidualWindow(window)
        self.smoothing = smoothing
        self.diagonal_process = diagonal_process
        self._noise_prev: Optional[np.ndarray] = None

    def push(self, record: InnovationRecord) -> None:
        self.window.push(record)

    def refresh(self) -> tuple[np.ndarray, np.ndarray]:
        """Return (Q, R); Q covers one inter-correction interval."""
        gamma_r = gamma_residual(self.window)
        gamma_y = gamma_innovation(self.window)
        fresh = estimate_measurement_noise(gamma_r, self.window)
        if self._noise_prev is not None and self.smoothing < 1.0:
            fresh = (1.0 - self.smoothing) * self._noise_prev + self.smoothing * fresh
        self._noise_prev = fresh
        process = estimate_process_noise(gamma_y, self.window,
                                         diagonal_only=self.diagonal_process)
        return process, fresh
