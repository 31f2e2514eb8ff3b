"""Residual-based noise adaptation over a fixed-length window.

A cheaper alternative to the variational scheme (after Akhlaghi, Zhou &
Huang, IEEE PES GM 2017): buffer kernel-weighted outer products of the
post-fit residual r and the innovation y, average them over the window,
and read the noise estimates directly:

    R = mean(L r r^T L) + P+
    Q = K mean(L y y^T L) K^T

with P+ and K from the newest correction, whose measurement observes the
state (H = I, as in ``filter_core``).  The innovation form for Q is a
deliberate approximation (it measures the state correction rather than the
process noise itself) but it is O(window) per step with no backward pass.
With unit weights the window average of r r^T reduces to the classical
residual-based adaptive update.
"""
from __future__ import annotations

from collections import deque
from itertools import islice
from typing import Deque, Iterable, Optional

import numpy as np

from .errors import AdaptationNotReady
from .filter_core import InnovationRecord
from .linalg import DIAG_FLOOR, floor_diagonal, psd_project, symmetrize


def _mean(values: Deque[np.ndarray]) -> np.ndarray:
    """Sequential sum over the window, oldest first, divided by its length."""
    total = values[0]
    for value in islice(values, 1, None):
        total = total + value
    return total / len(values)


class ResidualNoiseAdapter:
    """Residual-window noise adaptation for a whole filter.

    Each sensor keeps a window of its weighted residual outer products, and
    its R is read from that window and its newest correction alone.  Q is
    read from the first sensor in ``sensor_ids``: from the window of its
    weighted innovation products and its newest gain, so Q is only computed
    right after that sensor's corrections.  Such a Q covers one of its
    inter-correction intervals; ``advance`` counts the predict steps in
    each interval so that ``refresh`` can spread Q back over single steps.

    The engine-facing calls match ``VbNoiseAdapter``: ``advance`` per
    predict step, ``correct`` per correction and then ``refresh``.
    ``smoothing`` is the blend factor applied to each measurement-noise
    estimate (1.0 replaces it outright, smaller values low-pass it).
    """

    def __init__(self, sensor_ids: Iterable[str], window: int = 10,
                 smoothing: float = 1.0) -> None:
        sensor_ids = list(sensor_ids)
        if not sensor_ids:
            raise ValueError("at least one sensor is required")
        if window < 1:
            raise ValueError("window length must be at least 1")
        if not 0.0 < smoothing <= 1.0:
            raise ValueError("smoothing must lie in (0, 1]")
        self.smoothing = smoothing
        self._q_sensor = sensor_ids[0]
        self._rr: dict[str, Deque[np.ndarray]] = {
            sid: deque(maxlen=window) for sid in sensor_ids}
        self._yy: Deque[np.ndarray] = deque(maxlen=window)
        self._noise: dict[str, np.ndarray] = {}
        self._newest: Optional[tuple[str, InnovationRecord]] = None
        # Predict steps since the first sensor's last correction, and the
        # step counts of its recent intervals.
        self._steps = 0.0
        self._intervals: Deque[float] = deque(maxlen=32)

    def advance(self, trans: np.ndarray, steps: float) -> None:
        """Count one predict step worth ``steps`` nominal steps; ``trans`` is unused."""
        self._steps += steps

    def correct(self, sensor_id: str, record: InnovationRecord, delta: np.ndarray) -> None:
        """Fold in one correction; ``delta`` is unused."""
        self.push(sensor_id, record)

    def push(self, sensor_id: str, record: InnovationRecord) -> None:
        """Buffer one correction of ``sensor_id``; the first sensor's also closes an interval."""
        weights = record.weights.unweighted
        wr = weights * record.residual
        self._rr[sensor_id].append(np.outer(wr, wr))
        if sensor_id == self._q_sensor:
            wy = weights * record.innovation
            self._yy.append(np.outer(wy, wy))
            self._intervals.append(max(self._steps, 1.0))
            self._steps = 0.0
        self._newest = (sensor_id, record)

    def refresh(self) -> tuple[Optional[np.ndarray], dict[str, np.ndarray]]:
        """Estimates after the newest correction: (per-step Q, {sensor: R}).

        Only the newest correction's sensor gets a new R.  Q is None unless
        that sensor is the first one; the interval Q is then divided by the
        mean step count of its recent intervals (each at least one step),
        projected onto the PSD cone and floored.  Raises
        AdaptationNotReady before the first correction.
        """
        if self._newest is None:
            raise AdaptationNotReady("no correction has been pushed")
        sensor_id, latest = self._newest
        fresh = floor_diagonal(symmetrize(_mean(self._rr[sensor_id]) + latest.cov_post),
                               DIAG_FLOOR)
        previous = self._noise.get(sensor_id)
        if previous is not None and self.smoothing < 1.0:
            fresh = (1.0 - self.smoothing) * previous + self.smoothing * fresh
        self._noise[sensor_id] = fresh
        if sensor_id != self._q_sensor:
            return None, {sensor_id: fresh}
        gain = latest.gain
        process = floor_diagonal(psd_project(gain @ _mean(self._yy) @ gain.T), DIAG_FLOOR)
        per_step = process / float(np.mean(self._intervals))
        return floor_diagonal(psd_project(per_step), DIAG_FLOOR), {sensor_id: fresh}
