"""Variational sliding-window noise adaptation.

The scheme keeps a window of recent correction snapshots, runs a
Rauch-Tung-Striebel backward pass over it, and folds the resulting
smoothed statistics into inverse-Wishart hyperparameters with a
forgetting factor rho (after Huang et al., IEEE TAC 2018):

    t <- rho t + n,   T <- rho T + sum_j O_j      (process noise)
    b <- rho b + n,   B <- rho B + sum_j M_j      (measurement noise)

with point estimates Q = T / t and R = B / b.  O_j is the standard
expectation-maximization process statistic built from smoothed means,
covariances, and lag-one cross-covariances, evaluated in a regrouped form
whose snapshot-only terms are fixed at push (``SmootherWindow``); M_j is
the kernel-weighted residual outer product plus the smoothed observation
covariance,

    M_j = L_j r_j r_j^T L_j + P_j|k,

as the measurement observes the state (H = I, as in ``filter_core``).

With unit weights (L = I) the recursions match the classical
sliding-window variational adaptive filter, which is also how the plain
adaptive variant is obtained.

The smoother never needs the filtered means themselves, only each
correction's error estimate delta_j = s_j - x_j|j-1 (filtered mean after
minus before the correction): when every prior mean is the previous
filtered mean carried through the dynamics, x_j|j-1 = F_j s_j-1, the
backward pass and both statistics are functions of the smoothed
corrections d_j = x_j|k - s_j alone.  An error-state filter, which zeroes
its mean after every correction, hands the adapter each delta and each
predict step's transition (``advance`` and ``correct``).

Every term that depends on the buffered snapshots alone is computed once,
when its snapshot is pushed: the smoother gain and conditional covariance
on the snapshot, and the process statistic's terms in stacked buffers
beside the snapshot's correction, residual, weights and step count.  A
refresh then does the backward pass (``backward_smooth``), O(W) matrix
products and no solves, which returns the smoothed corrections and
covariances as two stacked arrays, and both window statistics as NumPy
over those and the buffers (``window_statistics``), one ascending sum per
sensor.  The process sum is certified positive definite by a Cholesky
factorization and projected onto the PSD cone only when that fails, so
``refresh`` hands out the per-step Q without projecting it again.

Same-instant rule: a snapshot with zero predict steps, an identity
transition, and the previous snapshot's posterior covariance as its prior
was corrected at the previous snapshot's instant.  Its smoother gain is
exactly I and its conditional covariance exactly 0, so it gets two
read-only arrays the window shares, no solve, and the backward pass adds
its correction and copies its covariance; with several sensors at one
rate, most transitions are such rows.  The pass stays O(W) over the
transitions that move.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.linalg.lapack import dpotrf

from .errors import AdaptationNotReady
from .filter_core import InnovationRecord
from .linalg import DIAG_FLOOR, floor_diagonal, psd_project, spd_solve, symmetrize

log = logging.getLogger(__name__)

# The longest window: its buffers take 2 (W + 1) rows of about 1.5 KB, some
# 30 MB here, where a window of 1e8 would ask for about 300 GB.
MAX_WINDOW = 10_000


@dataclass
class WindowSnapshot:
    """One correction buffered by the sliding-window smoother.

    ``record`` is the correction as ``filter_core`` returned it, exactly
    symmetric covariances included.  ``delta`` is the correction's error
    estimate, the filtered mean after minus before it; the prior mean is the
    previous snapshot's filtered mean carried through ``transition``.
    ``transition`` is the composed dynamics since the previous snapshot and
    ``steps`` its predict-step count.  ``SmootherWindow.push`` sets ``gain``,
    the smoother gain G_j-1 from the previous snapshot, and
    ``conditional_cov``, D_j-1 = P_j-1|j-1 - G_j-1 P_j|j-1 G_j-1^T, the
    covariance of the previous state given this one (both None for the
    first snapshot).  A same-instant snapshot (see the module docstring)
    gets the window's shared read-only identity and zero matrices instead.
    """

    record: InnovationRecord
    delta: np.ndarray
    transition: np.ndarray
    steps: float = 1.0
    sensor_id: str = ""
    gain: Optional[np.ndarray] = field(default=None, init=False, repr=False)
    conditional_cov: Optional[np.ndarray] = field(default=None, init=False, repr=False)


def _same_instant(snapshot: WindowSnapshot, prev: WindowSnapshot, eye: np.ndarray) -> bool:
    """Whether no predict step separates ``prev`` and ``snapshot``.

    On the engine path the prior covariance is the previous snapshot's own
    array, so the identity test settles it; hand-built snapshots fall back
    to comparing values.
    """
    return snapshot.steps == 0.0 and all(a is b or np.array_equal(a, b) for a, b in (
        (snapshot.record.cov_pred, prev.record.cov_post), (snapshot.transition, eye)))


class SmootherWindow:
    """Sliding window of correction snapshots, with the smoother terms they fix.

    ``length`` is the window parameter: up to ``length + 1`` snapshots are
    retained so that the backward pass can cover ``length`` transitions.

    ``push`` solves each snapshot's smoother gain and conditional covariance
    once (see ``WindowSnapshot``).  For ``window_statistics`` the window also
    keeps stacked buffers of ``2 (length + 1)`` rows, whose row ``start + j``
    belongs to ``snapshots[j]`` (``rows`` is that slice).  An eviction only
    moves ``start`` on; when the next row would fall off the end, the live
    rows are copied back to row 0, once every ``length + 2`` evictions.  Per
    snapshot they hold the correction delta_j, the residual r_j, the
    unweighted kernel weights L_j and the step count.
    Per transition j (the window's first row is never read), with F_j the
    transition, P_j|j-1 the prior covariance and A_j = F_j G_j-1, they hold

        B_j = I - A_j                                        (lifts)
        c_j = F_j D_j-1 F_j^T
            = F_j P_j-1|j-1 F_j^T - A_j P_j|j-1 A_j^T        (consts)

    Every term depends only on snapshots j-1 and j, so a window holds the
    same bits however many snapshots it has evicted (in the rows it reads:
    a same-instant transition's lift and const rows are not written).
    """

    def __init__(self, length: int) -> None:
        self.length = length
        self.snapshots: list[WindowSnapshot] = []
        self.start = 0

    def _allocate(self, dim: int) -> None:
        rows = 2 * (self.length + 1)
        self.deltas = np.zeros((rows, dim))
        self.residuals = np.zeros((rows, dim))
        self.weights = np.zeros((rows, dim))
        self.steps = np.zeros(rows)
        self.lifts = np.zeros((rows, dim, dim))
        self.consts = np.zeros((rows, dim, dim))
        self._eye, self._zeros = np.eye(dim), np.zeros((dim, dim))
        self._eye.flags.writeable = self._zeros.flags.writeable = False  # same-instant G, D
        self._buffers = (self.deltas, self.residuals, self.weights, self.steps,
                         self.lifts, self.consts)

    def push(self, snapshot: WindowSnapshot) -> None:
        """Buffer ``snapshot``, solving G_j-1 once and fixing the terms above.

        A same-instant snapshot takes the shared identity gain and zero
        conditional covariance, with no solve; its lift and const rows are
        left unwritten, as the process statistic skips zero steps.
        """
        record = snapshot.record
        if not self.snapshots:
            self._allocate(snapshot.delta.shape[0])
        elif len(self.snapshots) > self.length:
            del self.snapshots[0]
            self.start += 1
            if self.start + self.length == len(self.steps):
                for buffer in self._buffers:
                    buffer[:self.length] = buffer[self.start:]
                self.start = 0
        j = len(self.snapshots)
        row = self.start + j
        if j and _same_instant(snapshot, self.snapshots[-1], self._eye):
            snapshot.gain, snapshot.conditional_cov = self._eye, self._zeros
        elif j:
            prev = self.snapshots[-1]
            trans = snapshot.transition
            gain_t, regularized = spd_solve(record.cov_pred, trans @ prev.record.cov_post)
            if regularized:
                log.warning("smoother regularized a singular predicted covariance "
                            "from sensor '%s'", snapshot.sensor_id)
            gain = snapshot.gain = gain_t.T
            cond = snapshot.conditional_cov = (prev.record.cov_post
                                               - gain @ record.cov_pred @ gain.T)
            self.lifts[row] = self._eye - trans @ gain
            self.consts[row] = trans @ cond @ trans.T
        self.deltas[row] = snapshot.delta
        self.residuals[row] = record.residual
        self.weights[row] = record.weights.unweighted
        self.steps[row] = snapshot.steps
        self.snapshots.append(snapshot)

    @property
    def rows(self) -> slice:
        """The buffer rows of the snapshots, oldest first."""
        return slice(self.start, self.start + len(self.snapshots))

    def __len__(self) -> int:
        return len(self.snapshots)


def backward_smooth(window: SmootherWindow) -> tuple[np.ndarray, np.ndarray]:
    """Rauch-Tung-Striebel backward pass over the buffered snapshots.

    Returns ``(corrections, covs)``, aligned with the window's snapshots:
    ``corrections[j]`` is the smoothed correction d_j = x_j|k - s_j
    (smoothed minus filtered mean) and ``covs[j]`` the smoothed covariance
    P_j|k of snapshot j, stacked into ``(count, dim)`` and
    ``(count, dim, dim)`` arrays.  The smoother gains stay on the snapshots.

    From the last snapshot's filtered moments (d = 0), with the gains G_j-1
    and conditional covariances D_j-1 fixed at push (see ``WindowSnapshot``):

        d_j-1   = G_j-1 (delta_j + d_j)
        P_j-1|k = G_j-1 P_j|k G_j-1^T + D_j-1

    The first line is the mean recursion x_j-1|k = s_j-1 + G_j-1 (x_j|k -
    x_j|j-1) with x_j|k - x_j|j-1 = delta_j + d_j; the second is
    P_j-1|j-1 + G_j-1 (P_j|k - P_j|j-1) G_j-1^T regrouped so that only the
    first product depends on the pass.  The covariances are symmetrized
    once, as a stack, at the end.  Using the buffered prior (rather than
    recomputing F P F^T + Q) keeps the pass exact when other sensors
    corrected the state inside the interval.  A same-instant row (gain I,
    D = 0) adds instead of multiplying: d_j-1 = delta_j + d_j and
    P_j-1|k = P_j|k.  A window with a single snapshot smooths to its
    filtered values.
    """
    snaps = window.snapshots
    if not snaps:
        raise AdaptationNotReady("cannot smooth an empty window")
    count = len(snaps)
    last = snaps[-1]
    corrections = np.empty((count, last.delta.shape[0]))
    covs = np.empty((count, *last.record.cov_post.shape))
    corr = corrections[-1] = 0.0
    cov = covs[-1] = last.record.cov_post
    # Per-row inputs come from the snapshots: a list item is cheaper to
    # reach than a row view of a stacked buffer.
    for j in range(count - 1, 0, -1):
        cur = snaps[j]
        gain = cur.gain
        if gain is window._eye:
            corr = np.add(cur.delta, corr, out=corrections[j - 1])
            covs[j - 1] = cov
            continue
        corr = corrections[j - 1] = gain @ (cur.delta + corr)
        cov = covs[j - 1] = gain @ cov @ gain.T + cur.conditional_cov
    return corrections, 0.5 * (covs + covs.transpose(0, 2, 1))


def _ascending_sum(terms: np.ndarray) -> np.ndarray:
    """Sum a stack over axis 0 strictly in ascending order.

    ``np.sum`` pairs the terms up when the summed axis is the only one of
    length above 1 (1x1 blocks), which changes the round-off.
    """
    return np.add.accumulate(terms, axis=0)[-1]


def window_statistics(window: SmootherWindow, corrections: np.ndarray, covs: np.ndarray
                      ) -> tuple[np.ndarray, list[float], dict[str, tuple[np.ndarray, int]]]:
    """Process sum, step counts and per-sensor measurement sums, over stacked arrays.

    ``corrections`` and ``covs`` are the pair ``backward_smooth(window)``
    returns.  Process: with the lifts B_j and constants c_j stored at push
    (see ``SmootherWindow``) and x~_j = B_j (delta_j + d_j), each transition
    adds

        O_j = B_j P_j|k B_j^T + c_j + x~_j x~_j^T

    to a sum, and its step count to the returned list.  The sum is
    symmetrized and, unless a Cholesky factorization certifies it positive
    definite, projected onto the PSD cone to absorb round-off; a window
    with no moving transition returns zeros and factorizes nothing.  This
    is the expectation-maximization
    statistic P_j|k - F_j P_j-1,j|k - P_j-1,j|k^T F_j^T + F_j P_j-1|k F_j^T
    + x~_j x~_j^T, x~_j = x_j|k - F_j x_j-1|k, with the lag-one
    cross-covariance P_j-1,j|k = G_j-1 P_j|k and the backward recursion
    substituted; with x_j|j-1 = F_j s_j-1, x~_j = (I - F_j G_j-1)
    (x_j|k - x_j|j-1) is the form above.  A transition of zero steps (two
    corrections at one instant) is a noiseless identity and carries no
    evidence; it is skipped.  Measurement: the residual re-anchored to the
    smoothed mean, r_j|k = r_j - d_j, gives L r_j|k r_j|k^T L + P_j|k per
    snapshot, so a channel the kernel suppressed adds only the covariance
    floor.  Per sensor id, in order of first appearance, the dict holds the
    symmetrized sum of that sensor's terms and its snapshot count.  Every
    sum runs in ascending j: its round-off depends on the order.
    """
    snaps = window.snapshots
    if not snaps:
        raise AdaptationNotReady("window statistics need a non-empty window")
    live = window.rows
    weighted = window.weights[live] * (window.residuals[live] - corrections)
    terms = weighted[:, :, None] * weighted[:, None, :] + covs
    rows: dict[str, list[int]] = {}
    for j, snap in enumerate(snaps):
        rows.setdefault(snap.sensor_id, []).append(j)
    measurement = {sid: (symmetrize(_ascending_sum(terms[idx])), len(idx))
                   for sid, idx in rows.items()}

    steps = window.steps[live]
    moving = np.flatnonzero(steps[1:] > 0.0) + 1
    if not moving.size:
        return np.zeros(covs.shape[1:]), [], measurement
    lifts = window.lifts[live][moving]
    tilde = (lifts @ (window.deltas[live][moving] + corrections[moving])[:, :, None])[:, :, 0]
    process = symmetrize(_ascending_sum(lifts @ covs[moving] @ lifts.transpose(0, 2, 1)
                                        + window.consts[live][moving]
                                        + tilde[:, :, None] * tilde[:, None, :]))
    if dpotrf(process, lower=1)[1] != 0:  # not certified positive definite
        process = psd_project(process)
    return process, steps[moving].tolist(), measurement


class VbNoiseAdapter:
    """Engine-facing wrapper tying the window, smoother, and recursions together.

    One instance serves a whole filter: corrections from every sensor are
    pushed into a single interleaved window, so consecutive snapshots are
    related by pure prediction and the backward pass stays exact.  The
    process-noise hyperparameters (t, T) are shared; each sensor keeps its
    own measurement pair (b, B), as snapshots carry their sensor id.

    An error-state engine reports each predict step through ``advance`` and
    each correction through ``correct``, which pushes the correction's
    snapshot with the transition composed since the previous one.
    ``refresh`` is called after each pushed correction and returns the
    per-step process noise and a mapping of sensor id to updated
    measurement noise.
    """

    def __init__(self, state_dim: int, window: int = 10, forgetting: float = 0.97) -> None:
        if not 1 <= window <= MAX_WINDOW:
            raise ValueError(f"window must lie in [1, {MAX_WINDOW}]")
        if not 0.0 < forgetting <= 1.0:
            raise ValueError("forgetting factor must lie in (0, 1]")
        self.window = SmootherWindow(length=window)
        self.forgetting = forgetting
        self.t = 0.0
        self.T = np.zeros((state_dim, state_dim))
        self.measurement: dict[str, tuple[float, np.ndarray]] = {}
        # The transition and predict-step count pending since the last correction.
        self._trans = np.eye(state_dim)
        self._steps = 0.0

    def advance(self, trans: np.ndarray, steps: float) -> None:
        """Fold one predict step (transition ``trans``, ``steps`` nominal steps) in."""
        self._trans = trans @ self._trans
        self._steps += steps

    def correct(self, sensor_id: str, record: InnovationRecord, delta: np.ndarray) -> None:
        """Push the snapshot of a correction that moved the error mean by ``delta``."""
        self.push(WindowSnapshot(record=record, delta=delta, transition=self._trans,
                                 steps=self._steps, sensor_id=sensor_id))
        self._trans = np.eye(self._trans.shape[0])
        self._steps = 0.0

    def push(self, snapshot: WindowSnapshot) -> None:
        self.window.push(snapshot)

    def refresh(self) -> tuple[Optional[np.ndarray], dict[str, np.ndarray]]:
        """Run the backward pass and update all hyperparameters.

        Raises AdaptationNotReady until the window holds two snapshots.
        Returns ``(Q, {sensor: R})``.  Q = T / t estimates the noise of one
        transition; it is spread over the mean predict-step count of the
        window's moving transitions (at least one step) and its diagonal
        floored, giving a per-step value.  Q is None until at least one
        moving transition has been folded in; callers keep their current
        value in that case.
        """
        rho = self.forgetting
        if len(self.window) < 2:
            raise AdaptationNotReady("window holds fewer than two snapshots")
        o_sum, steps, by_sensor = window_statistics(self.window, *backward_smooth(self.window))
        if steps:
            self.t = rho * self.t + len(steps)
            self.T = rho * self.T + o_sum

        # T and every B are sums of exactly symmetric terms, so the point
        # estimates T / t and B / b are exactly symmetric too.  Each process
        # sum added to T was certified or projected PSD, so Q is not
        # projected again.
        noise_by_sensor: dict[str, np.ndarray] = {}
        for sensor_id, (m_sum, m_count) in by_sensor.items():
            b_prev, big_b_prev = self.measurement.get(sensor_id, (0.0, 0.0))
            b = rho * b_prev + m_count
            big_b = rho * big_b_prev + m_sum
            self.measurement[sensor_id] = (b, big_b)
            noise_by_sensor[sensor_id] = big_b / b

        if self.t <= 0.0:
            return None, noise_by_sensor
        mean_steps = float(np.add.reduce(steps) / len(steps)) if steps else 1.0  # = np.mean
        return floor_diagonal(self.T / self.t / max(mean_steps, 1.0), DIAG_FLOOR), noise_by_sensor
