"""Synthetic trajectory and sensor-stream generation.

Truth trajectories are analytic, so the IMU channels come from exact
kinematic inversion rather than numerical differentiation: the gyro
sample for an interval is the exact relative rotation divided by dt, and
the accelerometer sample is the world acceleration at the interval
midpoint rotated into the body frame with gravity removed.  A noise-free
stream therefore closes the loop with the filter's first-order integrator
to well under a centimeter over a minute.

Truth is evaluated on the whole time grid at once, and the IMU noise is one
``(N, 2, 3)`` draw, the same generator sequence as a per-step accel(3) then
gyro(3) draw.  Every array and event is bitwise equal to evaluating point by
point with ``math`` and the ``so3`` helpers.  NumPy's elementwise
``+ - * /`` and ``sqrt`` round as Python floats do.  With NumPy 2.4 on
x86-64 with AVX-512, array ``np.sin``, ``np.cos`` and ``np.arctan2`` equal
``math.sin``/``cos`` and scalar ``np.arctan2``, and a stacked ``np.matmul``
equals a per-matrix ``@``; a stack of (1, 3) @ (3, 1) products is a
per-row ``v.dot(v)``, the BLAS norm of the ``so3`` helpers, which
``x*x + y*y + z*z`` is not.  ``np.power`` on arrays differs from ``**`` in
the last ulp, but ``math.pow`` calls the same C ``pow`` as ``**`` on floats,
so the waypoint polynomials take each power of the phase through a
``math.pow`` map and combine the powers as arrays.
``tests/test_sim.py`` keeps the per-point loops and checks the bits.

Odometry corruption is layered: Gaussian noise per channel, optional
Bernoulli-triggered jumps held for a fixed number of steps, and an
optional linear position drift confined to a time window (a cheap model
of a visual tracker diverging).  Each sensor's samples are built in a few
array passes that give the bits of a per-sample loop:

- the generator is called as the loop calls it: one ``random(n)`` for the
  triggers, then ``standard_normal((k, 9))`` blocks between triggers, which
  equal k consecutive 9-draws, with each trigger's six signs drawn ahead of
  its sample's normals;
- each trigger writes its jump over its hold, in trigger order, so a later
  jump overwrites the rest of an earlier one; a sample outside every hold
  adds an offset of +0.0, as the loop's zero offset did;
- the drift is an ascending running sum (``np.cumsum``, sequential) from
  zero of one step per sample inside the window, indexed by the count of
  window samples so far;
- orientation noise goes through the row form of ``quat_from_rotvec``,
  series branch below ``SMALL_ANGLE`` included, and ``so3``'s Hamilton
  product on the rows' columns.

The stream holds the IMU samples first and then each sensor's odometry in
sensor-id order (equal ids in list order), and a stable sort on time then
gives the order (time, IMU before odometry, sensor id).  The events are
built with the cyclic garbage collector paused: they hold no reference
cycles, so its passes over them would free nothing.
"""
from __future__ import annotations

import gc
import math
from dataclasses import dataclass, field
from itertools import repeat
from operator import attrgetter
from typing import Optional, Union

import numpy as np

from .eskf import GRAVITY, Event, ImuSample, NominalState, OdometrySample
from .so3 import (SMALL_ANGLE, quat_multiply_floats, quat_relative_floats,
                  quat_to_rotmat_floats)

# Odometry noise channels: position(3), orientation(3), velocity(3).
ODOM_CHANNELS = 9
# The most IMU steps a scenario may have; its truth rows alone take 136 bytes a step.
MAX_IMU_STEPS = 10**9


@dataclass
class NoiseSpec:
    """Corruption model for one odometry stream."""

    gaussian_std: Union[float, np.ndarray] = 0.1
    jump_probability: float = 0.0
    jump_magnitude: float = 0.0     # multiples of the channel std
    jump_duration: int = 1          # odometry steps each jump is held
    drift_rate: Union[float, np.ndarray] = 0.0  # m/s on position channels
    drift_start: float = 0.0
    drift_duration: float = math.inf

    def std_vector(self) -> np.ndarray:
        """The nine channel stds; ValueError unless each is non-negative and finite."""
        out = _channels(self.gaussian_std, ODOM_CHANNELS, "gaussian_std")
        if not np.all((out >= 0.0) & (out < math.inf)):  # NaN fails too
            raise ValueError(f"gaussian_std must be non-negative and finite, got {out}")
        return out

    def drift_vector(self) -> np.ndarray:
        """The three position drift rates; ValueError unless each is finite."""
        out = _channels(self.drift_rate, 3, "drift_rate")
        if not np.all(np.isfinite(out)):
            raise ValueError(f"drift_rate must be finite, got {out}")
        return out


def _channels(value: Union[float, np.ndarray], size: int, name: str) -> np.ndarray:
    """A scalar repeated over ``size`` channels, or the ``size`` entries given."""
    if np.isscalar(value):
        return np.full(size, float(value))
    out = np.asarray(value, dtype=float)
    if out.shape != (size,):
        raise ValueError(f"{name} must be scalar or length-{size}")
    return out


@dataclass
class SensorSpec:
    """One odometry sensor and its noise.

    Its samples land on the IMU grid every round(imu_rate / rate) IMU
    steps, so ``rate`` may not exceed the IMU rate and is met only as
    closely as that stride allows: 30 Hz on a 100 Hz grid samples every 3
    steps, 100 events in 3 s rather than 90.
    """

    sensor_id: str
    rate: float
    noise: NoiseSpec = field(default_factory=NoiseSpec)


@dataclass
class ScenarioSpec:
    kind: str                      # hover | waypoints | figure8
    duration: float = 30.0
    imu_rate: float = 100.0
    sensors: list[SensorSpec] = field(default_factory=list)
    imu_accel_std: float = 0.02
    imu_gyro_std: float = 0.002
    seed: int = 0
    waypoints: Optional[np.ndarray] = None


class TruthTrajectory:
    """Dense ground truth on the IMU grid plus exact per-interval IMU channels."""

    def __init__(self, times: np.ndarray, positions: np.ndarray,
                 velocities: np.ndarray, orientations: np.ndarray,
                 accel_body: np.ndarray, gyro_body: np.ndarray) -> None:
        self.times = times
        self.positions = positions
        self.velocities = velocities
        self.orientations = orientations
        self.accel_body = accel_body
        self.gyro_body = gyro_body
        self.dt = float(times[1] - times[0]) if len(times) > 1 else 0.0

    def __len__(self) -> int:
        return len(self.times)

    def state(self, index: int) -> NominalState:
        return NominalState(
            position=self.positions[index].copy(),
            velocity=self.velocities[index].copy(),
            orientation=self.orientations[index].copy(),
            time=float(self.times[index]),
        )

    def index_at(self, time: float, tol: float = 1e-6) -> int:
        """Row of the grid time nearest ``time``; ValueError if none lies within ``tol``."""
        index = int(np.searchsorted(self.times, time))
        if index == len(self.times) or (
                index > 0 and time - self.times[index - 1] <= self.times[index] - time):
            index -= 1
        if not abs(self.times[index] - time) <= tol:  # NaN fails too
            raise ValueError(f"time {time} is not on the truth grid")
        return index


# Each trajectory kind maps the grid times and the interval midpoints to the
# grid's positions, velocities and orientations and the world acceleration
# at the midpoints, all as row arrays.

def _hover_trajectory(spec: ScenarioSpec, times: np.ndarray,
                      mid_times: np.ndarray) -> tuple[np.ndarray, ...]:
    n = len(times)
    return (np.tile([0.0, 0.0, 1.0], (n, 1)), np.zeros((n, 3)),
            np.tile([1.0, 0.0, 0.0, 0.0], (n, 1)), np.zeros((len(mid_times), 3)))


def _figure8_trajectory(spec: ScenarioSpec, times: np.ndarray,
                        mid_times: np.ndarray) -> tuple[np.ndarray, ...]:
    amp = np.array([1.0, 0.5, 0.2])
    center = np.array([0.0, 0.0, 1.0])
    omega = 2.0 * math.pi / 20.0
    yaw_amp = 0.5

    sin_wt = np.sin(omega * times)
    positions = np.stack([sin_wt, np.sin(2 * omega * times), sin_wt], axis=1)
    positions *= amp
    positions += center

    cos_wt = np.cos(omega * times)
    velocities = np.stack(
        [omega * cos_wt, 2 * omega * np.cos(2 * omega * times), omega * cos_wt], axis=1)
    velocities *= amp

    sin_mid = np.sin(omega * mid_times)
    acc = np.stack([omega ** 2 * sin_mid, 4 * omega ** 2 * np.sin(2 * omega * mid_times),
                    omega ** 2 * sin_mid], axis=1)
    acc *= -amp

    yaw = np.zeros((len(times), 3))
    yaw[:, 2] = yaw_amp * sin_wt
    return positions, velocities, _quats_from_rotvecs(yaw), acc


_DEFAULT_WAYPOINTS = np.array([
    [0.0, 0.0, 1.0],
    [2.0, 0.0, 1.5],
    [2.0, 2.0, 1.0],
    [0.0, 2.0, 1.5],
])


def _waypoint_trajectory(spec: ScenarioSpec, times: np.ndarray,
                         mid_times: np.ndarray) -> tuple[np.ndarray, ...]:
    points = np.asarray(
        spec.waypoints if spec.waypoints is not None else _DEFAULT_WAYPOINTS, dtype=float)
    if (points.ndim != 2 or points.shape[0] < 2 or points.shape[1] != 3
            or not np.isfinite(points).all()):
        raise ValueError("waypoints must be a finite (n, 3) array of at least two "
                         f"waypoints, got {points.tolist()}")
    segments = points.shape[0] - 1
    seg_time = spec.duration / segments
    seg_time_sq = seg_time ** 2

    def locate(t: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Segment start and span at each time, and the segment phase."""
        idx = np.minimum((t / seg_time).astype(np.intp), segments - 1)
        start = points[idx]
        return start, points[idx + 1] - start, (t - idx * seg_time) / seg_time

    def powers(tau: np.ndarray, *exponents: float) -> list[np.ndarray]:
        """``tau ** k`` for each k, through ``math.pow``: the C ``pow`` that ``**`` calls."""
        phases = tau.tolist()
        return [np.fromiter(map(math.pow, phases, repeat(k)), float, len(phases))
                for k in exponents]

    # Quintic smoothstep s(tau) and its derivatives, in the per-point
    # expressions' operation order.
    start, span, tau = locate(times)
    tau2, tau3, tau4, tau5 = powers(tau, 2.0, 3.0, 4.0, 5.0)
    s = 10 * tau3 - 15 * tau4 + 6 * tau5
    ds = (30 * tau2 - 60 * tau3 + 30 * tau4) / seg_time
    positions = start + span * s[:, None]
    velocities = span * ds[:, None]

    _, span, tau = locate(mid_times)
    tau2, tau3 = powers(tau, 2.0, 3.0)
    dds = (60 * tau - 180 * tau2 + 120 * tau3) / seg_time_sq
    acc = span * dds[:, None]
    return positions, velocities, np.tile([1.0, 0.0, 0.0, 0.0], (len(times), 1)), acc


# The scenario kinds, in the order the command line lists them.
TRAJECTORIES = {
    "hover": _hover_trajectory,
    "waypoints": _waypoint_trajectory,
    "figure8": _figure8_trajectory,
}


# Row forms of the so3 helpers that branch; the others are so3's float forms.

def _row_norms(v: np.ndarray) -> np.ndarray:
    """``math.sqrt(r.dot(r))`` for each row r of an (N, 3) array."""
    return np.sqrt(np.matmul(v[:, None, :], v[:, :, None])[:, 0, 0])


def _quats_from_rotvecs(v: np.ndarray) -> np.ndarray:
    """``quat_from_rotvec`` on each row of an (N, 3) array."""
    angle = _row_norms(v)
    if np.isinf(angle).any():  # math.sin refuses it in quat_from_rotvec
        raise ValueError("rotation vector norm overflows")
    out = np.empty((len(v), 4))
    small = angle < SMALL_ANGLE
    big = ~small
    half_angle = 0.5 * angle[big]
    out[big, 0] = np.cos(half_angle)
    out[big, 1:] = np.sin(half_angle)[:, None] * (v[big] / angle[big, None])
    # Series branch.  Below SMALL_ANGLE the series quaternion's norm rounds
    # to exactly 1, so quat_normalize leaves it as it is.
    angle_sq = angle[small] * angle[small]
    out[small, 0] = 1.0 - angle_sq / 8.0
    out[small, 1:] = (0.5 - angle_sq / 48.0)[:, None] * v[small]
    return out


def _rotvecs_from_quats(q: np.ndarray) -> np.ndarray:
    """``quat_to_rotvec`` on each row of an (N, 4) array."""
    s = _row_norms(q[:, 1:])
    flip = q[:, 0] < 0.0
    w = np.minimum(np.where(flip, -q[:, 0], q[:, 0]), 1.0)
    vec = np.where(flip[:, None], -q[:, 1:], q[:, 1:])
    scale = np.empty_like(s)
    small = s < SMALL_ANGLE
    scale[small] = 2.0 / w[small]
    big = ~small
    scale[big] = 2.0 * np.arctan2(s[big], w[big]) / s[big]
    vec *= scale[:, None]
    return vec


def imu_grid_problems(duration: float, imu_rate: float) -> list[str]:
    """What is wrong with a scenario's duration and IMU rate, one message each.

    Each must be positive and finite, and the grid's round(duration *
    imu_rate) steps must number from 1 to MAX_IMU_STEPS, which also keeps
    the product finite.
    """
    problems = [f"{name} must be positive and finite, got {value}"
                for name, value in (("duration", duration), ("imu_rate", imu_rate))
                if not 0.0 < value < math.inf]  # NaN fails too
    if not problems and not 0.5 < duration * imu_rate <= MAX_IMU_STEPS:
        problems.append(f"duration * imu_rate must give 1 to {MAX_IMU_STEPS:.0e} IMU steps, "
                        f"got {duration} * {imu_rate} = {duration * imu_rate:g}")
    return problems


def generate_truth(spec: ScenarioSpec) -> TruthTrajectory:
    """Evaluate the scenario's analytic trajectory on the IMU grid, all rows at once.

    Raises ValueError for an unknown kind, a duration and IMU rate that
    ``imu_grid_problems`` refuses, or waypoints that are not a finite
    (n >= 2, 3) array.
    """
    if spec.kind not in TRAJECTORIES:
        raise ValueError(
            f"unknown trajectory kind '{spec.kind}'; expected one of {sorted(TRAJECTORIES)}")
    problems = imu_grid_problems(spec.duration, spec.imu_rate)
    if problems:
        raise ValueError("; ".join(problems))
    dt = 1.0 / spec.imu_rate
    steps = int(round(spec.duration * spec.imu_rate))
    times = np.arange(steps + 1) * dt
    positions, velocities, orientations, mid_acc = TRAJECTORIES[spec.kind](
        spec, times, times[:-1] + 0.5 * dt)

    relative = quat_relative_floats(orientations[:-1].T, orientations[1:].T)
    gyro_body = _rotvecs_from_quats(np.column_stack(relative))
    gyro_body /= dt
    mid_acc -= GRAVITY
    rotmats = np.column_stack(quat_to_rotmat_floats(*orientations[:-1].T)).reshape(-1, 3, 3)
    accel_body = np.matmul(rotmats.transpose(0, 2, 1), mid_acc[:, :, None])[:, :, 0]
    return TruthTrajectory(times, positions, velocities, orientations,
                           accel_body, gyro_body)


def _sample_odometry(truth: TruthTrajectory, sensor: SensorSpec,
                     imu_rate: float, rng: np.random.Generator) -> list[OdometrySample]:
    # Clamped to the grid's length, a stride past the end samples nothing,
    # and an infinite or huge rate ratio still makes an index.
    stride = max(1, round(min(imu_rate / sensor.rate, len(truth))))
    indices = np.arange(stride, len(truth), stride)
    n = len(indices)
    noise = sensor.noise
    std = noise.std_vector()
    times = truth.times[indices]

    # The draws of a per-sample loop, in its order: the triggers, then nine
    # normals a sample, a trigger's six signs drawn ahead of its sample's.
    triggers = np.flatnonzero(rng.random(n) < noise.jump_probability).tolist()
    gauss = np.empty((n, ODOM_CHANNELS))
    signs = np.empty((len(triggers), 6), dtype=np.int64)
    start = 0
    for row, index in zip(signs, triggers):
        rng.standard_normal(out=gauss[start:index])
        row[:] = rng.integers(0, 2, size=6)
        start = index
    rng.standard_normal(out=gauss[start:])
    gauss *= std

    # Each jump holds for jump_duration samples; a later trigger overwrites
    # the rest of an earlier one's hold.
    offset = np.zeros((n, 6))  # position(3) + velocity(3) jump
    jumps = noise.jump_magnitude * np.concatenate([std[0:3], std[6:9]]) * (signs * 2 - 1)
    for index, jump in zip(triggers, jumps):
        offset[index:index + max(noise.jump_duration, 0)] = jump

    # The drift after each sample: a running sum, from zero, of one step
    # per sample inside the window, held once the window closes.
    inside = (noise.drift_start <= times) & (times < noise.drift_start + noise.drift_duration)
    steps = np.zeros((np.count_nonzero(inside) + 1, 3))
    steps[1:] = noise.drift_vector() * (stride * truth.dt)

    position = truth.positions[indices] + gauss[:, 0:3]
    position += offset[:, 0:3]
    position += np.cumsum(steps, axis=0)[np.cumsum(inside)]
    orientation = np.column_stack(quat_multiply_floats(
        truth.orientations[indices].T, _quats_from_rotvecs(gauss[:, 3:6]).T))
    velocity = truth.velocities[indices] + gauss[:, 6:9]
    velocity += offset[:, 3:6]
    return list(map(OdometrySample, repeat(sensor.sensor_id, n), position, orientation,
                    velocity, times.tolist()))


def sample_sensors(truth: TruthTrajectory, spec: ScenarioSpec) -> list[Event]:
    """Draw the corrupted IMU and odometry event stream for a scenario.

    Deterministic: the same (truth, spec) pair yields a bitwise-identical
    stream.  Each sensor gets its own generator, seeded from the scenario
    seed and the sensor's position in the list.  Raises ValueError for a
    sensor rate that is not positive or is above the IMU rate, which the
    IMU grid cannot carry.
    """
    for sensor in spec.sensors:
        if not 0.0 < sensor.rate <= spec.imu_rate:
            raise ValueError(f"sensor '{sensor.sensor_id}' rate {sensor.rate} Hz must be "
                             f"positive and at most the IMU rate {spec.imu_rate} Hz")
    # One draw in the order of a per-step accel(3) then gyro(3) draw.  Each
    # sample's vectors are rows of one array per channel.
    noise = np.random.default_rng([spec.seed, 0]).standard_normal((len(truth) - 1, 2, 3))
    accel = noise[:, 0] * spec.imu_accel_std
    accel += truth.accel_body
    gyro = noise[:, 1] * spec.imu_gyro_std
    gyro += truth.gyro_body
    del noise
    collecting = gc.isenabled()
    gc.disable()
    try:
        events: list[Event] = list(map(ImuSample, accel, gyro, truth.times[1:].tolist()))
        # IMU first, then each sensor in sensor-id order (a stable sort keeps
        # equal ids in list order): a stable sort on time then yields the
        # order (time, IMU before odometry, sensor id).
        by_id = sorted(range(len(spec.sensors)), key=lambda i: spec.sensors[i].sensor_id)
        for index in by_id:
            rng = np.random.default_rng([spec.seed, index + 1])
            events.extend(_sample_odometry(truth, spec.sensors[index], spec.imu_rate, rng))
        events.sort(key=attrgetter("time"))
    finally:
        if collecting:
            gc.enable()
    return events
