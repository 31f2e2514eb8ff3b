"""Variational sliding-window noise adaptation.

The scheme keeps a window of recent correction snapshots, runs a
Rauch-Tung-Striebel backward pass over it, and folds the resulting
smoothed statistics into inverse-Wishart hyperparameters with a
forgetting factor rho (after Huang et al., IEEE TAC 2018):

    t <- rho t + n,   T <- rho T + sum_j O_j      (process noise)
    b <- rho b + n,   B <- rho B + sum_j M_j      (measurement noise)

with point estimates Q = T / t and R = B / b.  O_j is the standard
expectation-maximization process statistic built from smoothed means,
covariances, and lag-one cross-covariances; M_j is the kernel-weighted
residual outer product plus the smoothed observation covariance,

    M_j = L_j r_j r_j^T L_j + H_j P_j|k H_j^T.

With unit weights (L = I) the recursions match the classical
sliding-window variational adaptive filter, which is also how the plain
adaptive variant is obtained.

An error-state filter zeroes its mean after every correction, so the
adapter also keeps the no-reset frame the smoother works in: the
error-state mean a filter without injection/reset would carry, and the
dynamics composed since the last correction (``advance`` and
``correct``).

Each smoother gain is solved once, when its snapshot is pushed; a refresh
then does the backward pass and one forward walk (``window_statistics``):
O(W) matrix products and no solves.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import AdaptationNotReady
from .filter_core import InnovationRecord
from .linalg import psd_project, spd_solve, symmetrize

log = logging.getLogger(__name__)


@dataclass
class WindowSnapshot:
    """One correction buffered by the sliding-window smoother.

    ``record`` is the correction as ``filter_core`` returned it, exactly
    symmetric covariances included.  ``state`` and ``prior_mean`` are the
    filtered mean after and before the correction in one frame shared by the
    window (for an error-state filter, the adapter's no-reset frame).
    ``transition`` is the composed dynamics since the previous snapshot and
    ``steps`` its predict-step count.  ``SmootherWindow.push`` sets ``gain``,
    the smoother gain G_j-1 from the previous snapshot (None for the first).
    """

    record: InnovationRecord
    state: np.ndarray               # filtered mean after the correction
    prior_mean: np.ndarray          # filtered mean just before the correction
    transition: np.ndarray
    steps: float = 1.0
    sensor_id: str = ""
    gain: Optional[np.ndarray] = field(default=None, init=False, repr=False)


@dataclass
class SmootherWindow:
    """Sliding window of correction snapshots for one sensor.

    ``length`` is the window parameter: up to ``length + 1`` snapshots are
    retained so that the backward pass can cover ``length`` transitions.
    """

    length: int
    snapshots: list[WindowSnapshot] = field(default_factory=list)

    def push(self, snapshot: WindowSnapshot) -> None:
        """Buffer ``snapshot``, solving G_j-1 = P_j-1|j-1 F_j^T (P_j|j-1)^-1 once."""
        if self.snapshots:
            gain_t, regularized = spd_solve(
                snapshot.record.cov_pred,
                snapshot.transition @ self.snapshots[-1].record.cov_post)
            if regularized:
                log.warning("smoother regularized a singular predicted covariance")
            snapshot.gain = gain_t.T
        self.snapshots.append(snapshot)
        if len(self.snapshots) > self.length + 1:
            del self.snapshots[0]

    def __len__(self) -> int:
        return len(self.snapshots)


@dataclass
class SmoothedWindow:
    """Backward-pass output aligned with the window's snapshots.

    ``means[j]`` and ``covs[j]`` are the smoothed estimates for snapshot j;
    ``crosses[j-1]`` holds the lag-one cross-covariance P_{j-1,j|k} for
    each transition.  The smoother gains stay on the snapshots.
    """

    means: list[np.ndarray]
    covs: list[np.ndarray]
    crosses: list[np.ndarray]


def backward_smooth(window: SmootherWindow) -> SmoothedWindow:
    """Rauch-Tung-Striebel backward pass over the buffered snapshots.

    For each transition, with F_j the composed dynamics of snapshot j and
    (x_j|j-1, P_j|j-1) the buffered pre-correction mean and covariance:

        G_j-1   = P_j-1|j-1 F_j^T (P_j|j-1)^-1      (solved once, at push)
        x_j-1|k = x_j-1|j-1 + G_j-1 (x_j|k - x_j|j-1)
        P_j-1|k = P_j-1|j-1 + G_j-1 (P_j|k - P_j|j-1) G_j-1^T
        P_j-1,j|k = G_j-1 P_j|k

    Using the buffered prior (rather than recomputing F P F^T + Q) keeps
    the pass exact when other sensors corrected the state inside the
    interval.  A window with a single snapshot smooths to its filtered
    values.
    """
    snaps = window.snapshots
    if not snaps:
        raise AdaptationNotReady("cannot smooth an empty window")
    count = len(snaps)
    means: list[Optional[np.ndarray]] = [None] * count
    covs: list[Optional[np.ndarray]] = [None] * count
    crosses: list[Optional[np.ndarray]] = [None] * (count - 1)

    means[-1] = snaps[-1].state.copy()
    covs[-1] = snaps[-1].record.cov_post.copy()
    for j in range(count - 1, 0, -1):
        prev, cur = snaps[j - 1], snaps[j]
        gain = cur.gain
        means[j - 1] = prev.state + gain @ (means[j] - cur.prior_mean)
        covs[j - 1] = symmetrize(prev.record.cov_post
                                 + gain @ (covs[j] - cur.record.cov_pred) @ gain.T)
        crosses[j - 1] = gain @ covs[j]
    return SmoothedWindow(means=means, covs=covs, crosses=crosses)  # type: ignore[arg-type]


def window_statistics(window: SmootherWindow, smoothed: SmoothedWindow
                      ) -> tuple[np.ndarray, list[float], dict[str, tuple[np.ndarray, int]]]:
    """Process sum, step counts and per-sensor measurement sums, in one walk.

    Process: with x~_j = x_j|k - F_j x_j-1|k, each transition adds

        O_j = P_j|k - F_j P_j-1,j|k - P_j-1,j|k^T F_j^T
              + F_j P_j-1|k F_j^T + x~_j x~_j^T

    to a sum projected onto the PSD cone to absorb round-off, and its step
    count to the returned list.  A transition of zero steps (two corrections
    at one instant) is a noiseless identity and carries no evidence; it is
    skipped.  Measurement: the residual re-anchored to the smoothed mean,
    r_j|k = r_j + H_j (x_j|j - x_j|k), gives L r_j|k r_j|k^T L + H P_j|k H^T
    per snapshot, so a channel the kernel suppressed adds only the
    covariance floor.  Per sensor id, in order of first appearance, the
    dict holds the sum and the snapshot count.  Both sums run in ascending
    j: their round-off depends on the order.
    """
    snaps = window.snapshots
    if not snaps:
        raise AdaptationNotReady("window statistics need a non-empty window")
    dim = snaps[0].state.shape[0]
    process = np.zeros((dim, dim))
    steps: list[float] = []
    sums: dict[str, tuple[np.ndarray, int]] = {}
    for j, snap in enumerate(snaps):
        record = snap.record
        h = record.obs_jacobian
        residual = record.residual + h @ (snap.state - smoothed.means[j])
        weighted = record.weights.unweighted * residual
        total, count = sums.get(snap.sensor_id, (0.0, 0))
        sums[snap.sensor_id] = (
            total + (np.outer(weighted, weighted) + h @ smoothed.covs[j] @ h.T), count + 1)
        if j == 0 or not snap.steps > 0.0:
            continue
        trans = snap.transition
        cross = smoothed.crosses[j - 1]
        tilde = smoothed.means[j] - trans @ smoothed.means[j - 1]
        process += (smoothed.covs[j] - trans @ cross - cross.T @ trans.T
                    + trans @ smoothed.covs[j - 1] @ trans.T + np.outer(tilde, tilde))
        steps.append(snap.steps)
    measurement = {sid: (symmetrize(total), count) for sid, (total, count) in sums.items()}
    return psd_project(process), steps, measurement


class VbNoiseAdapter:
    """Engine-facing wrapper tying the window, smoother, and recursions together.

    One instance serves a whole filter: corrections from every sensor are
    pushed into a single interleaved window, so consecutive snapshots are
    related by pure prediction and the backward pass stays exact.  The
    process-noise hyperparameters (t, T) are shared; each sensor keeps its
    own measurement pair (b, B), as snapshots carry their sensor id.

    An error-state engine reports each predict step through ``advance`` and
    each correction through ``correct``, which builds and pushes the
    snapshot in the no-reset frame.  ``refresh`` is called after each
    pushed correction and returns the per-transition process noise
    estimate, the mean predict-step count per transition (for rescaling Q
    to a per-step value), and a mapping of sensor id to updated
    measurement noise.
    """

    def __init__(self, state_dim: int, obs_dim: int, window: int = 10,
                 forgetting: float = 0.97) -> None:
        if window < 1:
            raise ValueError("window must be at least 1")
        if not 0.0 < forgetting <= 1.0:
            raise ValueError("forgetting factor must lie in (0, 1]")
        self.window = SmootherWindow(length=window)
        self.forgetting = forgetting
        self.t = 0.0
        self.T = np.zeros((state_dim, state_dim))
        self.measurement: dict[str, tuple[float, np.ndarray]] = {}
        self._obs_dim = obs_dim
        # No-reset filtered mean, and the transition and predict-step count
        # pending since the last correction.
        self._frame_mean = np.zeros(state_dim)
        self._trans = np.eye(state_dim)
        self._steps = 0.0

    def advance(self, trans: np.ndarray, steps: float) -> None:
        """Fold one predict step (transition ``trans``, ``steps`` nominal steps) in."""
        self._frame_mean = trans @ self._frame_mean
        self._trans = trans @ self._trans
        self._steps += steps

    def correct(self, sensor_id: str, record: InnovationRecord, delta: np.ndarray) -> None:
        """Push the snapshot of a correction that moved the error mean by ``delta``."""
        prior = self._frame_mean
        self._frame_mean = prior + delta
        self.push(WindowSnapshot(
            record=record, state=self._frame_mean, prior_mean=prior,
            transition=self._trans, steps=self._steps, sensor_id=sensor_id))
        self._trans = np.eye(self._trans.shape[0])
        self._steps = 0.0

    def push(self, snapshot: WindowSnapshot) -> None:
        self.window.push(snapshot)

    def refresh(self) -> tuple[Optional[np.ndarray], float, dict[str, np.ndarray]]:
        """Run the backward pass and update all hyperparameters.

        Raises AdaptationNotReady until the window holds two snapshots.
        The process-noise estimate is None until at least one transition
        with a positive step count has been folded in; callers keep their
        current value in that case.  The step count returned is the mean
        over the window's transitions with a positive count (1 if none).
        """
        rho = self.forgetting
        if len(self.window) < 2:
            raise AdaptationNotReady("window holds fewer than two snapshots")
        smoothed = backward_smooth(self.window)
        o_sum, steps, by_sensor = window_statistics(self.window, smoothed)
        if steps:
            self.t = rho * self.t + len(steps)
            self.T = rho * self.T + o_sum

        # T and every B are sums of exactly symmetric terms, so the point
        # estimates T / t and B / b are exactly symmetric too.
        noise_by_sensor: dict[str, np.ndarray] = {}
        for sensor_id, (m_sum, m_count) in by_sensor.items():
            b_prev, big_b_prev = self.measurement.get(
                sensor_id, (0.0, np.zeros((self._obs_dim, self._obs_dim))))
            b = rho * b_prev + m_count
            big_b = rho * big_b_prev + m_sum
            self.measurement[sensor_id] = (b, big_b)
            if b > 0.0:
                noise_by_sensor[sensor_id] = big_b / b

        q_interval = self.T / self.t if self.t > 0.0 else None
        return q_interval, float(np.mean(steps)) if steps else 1.0, noise_by_sensor
