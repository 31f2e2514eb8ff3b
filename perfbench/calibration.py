"""Machine-speed calibration: a fixed reference computation timed between
stretches of the program's work, so timings can be scaled to one nominal
machine speed.

The host this benchmark was written on runs its virtual CPUs at two speeds
that alternate over seconds to minutes: the same IMU step takes about 80 us
in a fast phase and 140-150 us in a slow one.  No statistic over one run
removes that, because a run may fall wholly in either phase.  The reference
computation below is the same kind of work as the filter (Python scalar
arithmetic, small NumPy allocations, 3x3 rotations and a 15x15 covariance
propagation), is never changed by the program under test, and slows down
with the machine.  Dividing each stretch of program time by the reference
time measured at both of its ends gives the time the stretch would take on a
machine where one reference step takes ``NOMINAL_STEP_NS``.
"""
from __future__ import annotations

import time

import numpy as np

NOMINAL_STEP_NS = 50_000
STEPS = 5
INTERVAL_NS = 25_000_000

_rng = np.random.default_rng(0)
_ACCEL = _rng.standard_normal((64, 3))
_GYRO = 0.01 * _rng.standard_normal((64, 3))
_Q = 1e-4 * np.eye(15)


def reference_steps(count: int) -> int:
    """Run ``count`` reference steps; return the thread CPU time in ns."""
    start = time.thread_time_ns()
    q = [1.0, 0.0, 0.0, 0.0]
    cov = np.eye(15)
    for i in range(count):
        a, w = _ACCEL[i % 64], _GYRO[i % 64]
        x, y, z = float(w[0]), float(w[1]), float(w[2])
        angle = (x * x + y * y + z * z) ** 0.5
        s = np.sin(0.5 * angle) / angle
        d = [float(np.cos(0.5 * angle)), s * x, s * y, s * z]
        q = [q[0] * d[0] - q[1] * d[1] - q[2] * d[2] - q[3] * d[3],
             q[0] * d[1] + q[1] * d[0] + q[2] * d[3] - q[3] * d[2],
             q[0] * d[2] - q[1] * d[3] + q[2] * d[0] + q[3] * d[1],
             q[0] * d[3] + q[1] * d[2] - q[2] * d[1] + q[3] * d[0]]
        norm = sum(c * c for c in q) ** 0.5
        q = [c / norm for c in q]
        w0, x0, y0, z0 = q
        rot = np.array([
            [1 - 2 * (y0 * y0 + z0 * z0), 2 * (x0 * y0 - w0 * z0), 2 * (x0 * z0 + w0 * y0)],
            [2 * (x0 * y0 + w0 * z0), 1 - 2 * (x0 * x0 + z0 * z0), 2 * (y0 * z0 - w0 * x0)],
            [2 * (x0 * z0 - w0 * y0), 2 * (y0 * z0 + w0 * x0), 1 - 2 * (x0 * x0 + y0 * y0)]])
        skew = np.array([[0.0, -a[2], a[1]], [a[2], 0.0, -a[0]], [-a[1], a[0], 0.0]])
        trans = np.eye(15)
        trans[0:3, 3:6] = 0.01 * np.eye(3)
        trans[3:6, 6:9] = -(rot @ skew) * 0.01
        cov = trans @ cov @ trans.T + _Q
        cov = 0.5 * (cov + cov.T)
    return time.thread_time_ns() - start


class Calibrator:
    """Times reference steps between stretches of the program's work.

    Call ``calibrate`` before the first and after the last event of a pass,
    and after any event that ends at or past ``due`` on the wall clock
    (``time.perf_counter_ns``), which falls ``INTERVAL_NS`` after the last
    calibration.  ``marks`` holds, per calibration, its start and end on the
    wall clock and on the thread's CPU clock, and the CPU time of one
    reference step.
    """

    def __init__(self) -> None:
        self.marks: list[tuple[int, int, int, int, float]] = []
        self.due = 0

    def calibrate(self, steps: int = STEPS) -> float:
        """Time ``steps`` reference steps; return the ns of one."""
        start, start_cpu = time.perf_counter_ns(), time.thread_time_ns()
        per_step = reference_steps(steps) / steps
        end, end_cpu = time.perf_counter_ns(), time.thread_time_ns()
        self.marks.append((start, end, start_cpu, end_cpu, per_step))
        self.due = end + INTERVAL_NS
        return per_step

    def scale(self, event_ends: np.ndarray) -> tuple[float, float, np.ndarray]:
        """The program's time between the first and the last calibration, in
        seconds: wall time as measured, and the thread's CPU time at nominal
        speed.  Also the nominal-speed factor of each event, from the
        stretch its wall-clock end stamp falls in.

        A stretch runs from the end of one calibration to the start of the
        next; its factor is the nominal step time over the mean of the
        step times measured at its two ends.
        """
        marks = np.array(self.marks, dtype=float)
        stops, starts = marks[1:, 0], marks[:-1, 1]
        cpu = marks[1:, 2] - marks[:-1, 3]
        steps = marks[:, 4]
        factor = NOMINAL_STEP_NS / (0.5 * (steps[:-1] + steps[1:]))
        index = np.searchsorted(stops, event_ends, side="left")
        per_event = factor[np.minimum(index, len(factor) - 1)]
        return (stops - starts).sum() / 1e9, float(cpu @ factor) / 1e9, per_event

    def step_ns(self) -> float:
        """Median reference step time over the calibrations, in ns."""
        return float(np.median([m[4] for m in self.marks]))
