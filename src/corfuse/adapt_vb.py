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
then does O(W) matrix products and no solves.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import AdaptationNotReady
from .filter_core import CorrentropyWeights, InnovationRecord
from .linalg import psd_project, spd_solve, symmetrize

log = logging.getLogger(__name__)


@dataclass
class WindowSnapshot:
    """Per-correction record buffered by the sliding-window smoother.

    ``state`` and ``prior_mean`` are the filtered mean after and before the
    correction, expressed in one shared frame across the whole window (for
    an error-state filter with resets, the adapter's no-reset frame).
    ``transition`` is the composed dynamics between this snapshot and the
    previous one in the window; ``steps`` counts how many predict steps
    that interval contained.

    ``SmootherWindow.push`` rebinds ``cov`` and ``cov_pred`` to their
    symmetric parts and sets ``gain``, the smoother gain G_j-1 from the
    previous snapshot to this one (None for the first snapshot pushed).
    """

    state: np.ndarray               # filtered mean after the correction
    prior_mean: np.ndarray          # filtered mean just before the correction
    cov: np.ndarray                 # posterior covariance
    transition: np.ndarray
    obs_jacobian: np.ndarray
    residual: np.ndarray
    weights: CorrentropyWeights
    cov_pred: np.ndarray
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
        snapshot.cov = symmetrize(snapshot.cov)
        snapshot.cov_pred = symmetrize(snapshot.cov_pred)
        if self.snapshots:
            gain_t, regularized = spd_solve(
                snapshot.cov_pred, snapshot.transition @ self.snapshots[-1].cov)
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
    covs[-1] = snaps[-1].cov.copy()
    for j in range(count - 1, 0, -1):
        prev, cur = snaps[j - 1], snaps[j]
        gain = cur.gain
        means[j - 1] = prev.state + gain @ (means[j] - cur.prior_mean)
        covs[j - 1] = symmetrize(prev.cov + gain @ (covs[j] - cur.cov_pred) @ gain.T)
        crosses[j - 1] = gain @ covs[j]
    return SmoothedWindow(means=means, covs=covs, crosses=crosses)  # type: ignore[arg-type]


def process_statistic(window: SmootherWindow, smoothed: SmoothedWindow) -> tuple[np.ndarray, int]:
    """Sum of per-transition process-noise statistics over the window.

    With x~_j = x_j|k - F_j x_j-1|k, each term is

        O_j = P_j|k - F_j P_j-1,j|k - P_j-1,j|k^T F_j^T
              + F_j P_j-1|k F_j^T + x~_j x~_j^T

    and the sum is projected onto the positive-semidefinite cone to absorb
    round-off.  Transitions spanning zero predict steps (two corrections at
    the same instant) are identities with no noise; they carry no evidence
    about the process noise and are excluded from both the sum and the
    returned count.  Requires at least two snapshots.
    """
    snaps = window.snapshots
    if len(snaps) < 2:
        raise AdaptationNotReady("process statistic needs at least two snapshots")
    dim = snaps[0].state.shape[0]
    total = np.zeros((dim, dim))
    count = 0
    for j in range(1, len(snaps)):
        if snaps[j].steps <= 0.0:
            continue
        trans = snaps[j].transition
        cross = smoothed.crosses[j - 1]
        tilde = smoothed.means[j] - trans @ smoothed.means[j - 1]
        term = (smoothed.covs[j] - trans @ cross - cross.T @ trans.T
                + trans @ smoothed.covs[j - 1] @ trans.T + np.outer(tilde, tilde))
        total += term
        count += 1
    return psd_project(total), count


def measurement_statistic(window: SmootherWindow, smoothed: SmoothedWindow
                          ) -> dict[str, tuple[np.ndarray, int]]:
    """Kernel-weighted residual statistic per sensor, in one pass.

    The buffered residual is taken against the filtered mean; re-anchoring
    it to the smoothed mean gives r_j|k = r_j + H_j (x_j|j - x_j|k).  Each
    snapshot then contributes L r_j|k r_j|k^T L + H P_j|k H^T, so a
    dimension the kernel has suppressed adds only the smoothed-covariance
    floor.  The window may interleave several sources; returns, per sensor
    id in order of first appearance, the sum over that sensor's snapshots
    and their number.
    """
    snaps = window.snapshots
    if not snaps:
        raise AdaptationNotReady("measurement statistic needs a non-empty window")
    obs_dim = snaps[0].residual.shape[0]
    totals: dict[str, np.ndarray] = {}
    counts: dict[str, int] = {}
    for j, snap in enumerate(snaps):
        sid = snap.sensor_id
        if sid not in totals:
            totals[sid] = np.zeros((obs_dim, obs_dim))
            counts[sid] = 0
        h = snap.obs_jacobian
        residual = snap.residual + h @ (snap.state - smoothed.means[j])
        weighted = snap.weights.unweighted * residual
        totals[sid] += np.outer(weighted, weighted) + h @ smoothed.covs[j] @ h.T
        counts[sid] += 1
    return {sid: (symmetrize(total), counts[sid]) for sid, total in totals.items()}


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
            state=self._frame_mean, prior_mean=prior,
            cov=record.cov_post, transition=self._trans,
            obs_jacobian=record.obs_jacobian, residual=record.residual,
            weights=record.weights, cov_pred=record.cov_pred, steps=self._steps,
            sensor_id=sensor_id))
        self._trans = np.eye(self._trans.shape[0])
        self._steps = 0.0

    def push(self, snapshot: WindowSnapshot) -> None:
        self.window.push(snapshot)

    def mean_interval_steps(self) -> float:
        """Average predict-step count over the window's real transitions."""
        steps = [snap.steps for snap in self.window.snapshots[1:] if snap.steps > 0.0]
        if not steps:
            return 1.0
        return float(np.mean(steps))

    def refresh(self) -> tuple[Optional[np.ndarray], float, dict[str, np.ndarray]]:
        """Run the backward pass and update all hyperparameters.

        Raises AdaptationNotReady until the window holds two snapshots.
        The process-noise estimate is None until at least one transition
        with a positive step count has been folded in; callers keep their
        current value in that case.
        """
        rho = self.forgetting
        if len(self.window) < 2:
            raise AdaptationNotReady("window holds fewer than two snapshots")
        smoothed = backward_smooth(self.window)
        o_sum, count = process_statistic(self.window, smoothed)
        if count > 0:
            self.t = rho * self.t + count
            self.T = rho * self.T + o_sum

        noise_by_sensor: dict[str, np.ndarray] = {}
        for sensor_id, (m_sum, m_count) in measurement_statistic(self.window, smoothed).items():
            b_prev, big_b_prev = self.measurement.get(
                sensor_id, (0.0, np.zeros((self._obs_dim, self._obs_dim))))
            b = rho * b_prev + m_count
            big_b = rho * big_b_prev + m_sum
            self.measurement[sensor_id] = (b, big_b)
            if b > 0.0:
                noise_by_sensor[sensor_id] = symmetrize(big_b / b)

        q_interval = symmetrize(self.T / self.t) if self.t > 0.0 else None
        return q_interval, self.mean_interval_steps(), noise_by_sensor
