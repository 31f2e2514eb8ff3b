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
equals a per-matrix ``@``.  Two forms are not equal.  ``np.power`` on arrays
differs from ``**`` in the last ulp, so the waypoint polynomials run on
Python floats.  ``x*x + y*y + z*z`` differs from the BLAS ``v.dot(v)`` of
the ``so3`` norms unless two of the three components are zero, as they are
for every rotation here (yaw only).  ``tests/test_sim.py`` keeps the
per-point loops and checks the bits.

Odometry corruption is layered: Gaussian noise per channel, optional
Bernoulli-triggered jumps held for a fixed number of steps, and an
optional linear position drift confined to a time window (a cheap model
of a visual tracker diverging).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .eskf import GRAVITY, Event, ImuSample, NominalState, OdometrySample
from .so3 import SMALL_ANGLE, quat_from_rotvec, quat_multiply

# Odometry noise channels: position(3), orientation(3), velocity(3).
ODOM_CHANNELS = 9


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
        if np.isscalar(self.gaussian_std):
            return np.full(ODOM_CHANNELS, float(self.gaussian_std))
        out = np.asarray(self.gaussian_std, dtype=float)
        if out.shape != (ODOM_CHANNELS,):
            raise ValueError("gaussian_std must be scalar or length-9")
        return out

    def drift_vector(self) -> np.ndarray:
        if np.isscalar(self.drift_rate):
            return np.full(3, float(self.drift_rate))
        out = np.asarray(self.drift_rate, dtype=float)
        if out.shape != (3,):
            raise ValueError("drift_rate must be scalar or length-3")
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
        if abs(self.times[index] - time) > tol:
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
    if points.shape[0] < 2:
        raise ValueError("waypoint trajectory needs at least two waypoints")
    segments = points.shape[0] - 1
    seg_time = spec.duration / segments
    seg_time_sq = seg_time ** 2

    def locate(t: np.ndarray) -> tuple[np.ndarray, np.ndarray, list[float]]:
        """Segment start and span at each time, and the segment phase as Python floats."""
        idx = np.minimum((t / seg_time).astype(np.intp), segments - 1)
        start = points[idx]
        return start, points[idx + 1] - start, ((t - idx * seg_time) / seg_time).tolist()

    # Quintic smoothstep s(tau) and its derivatives, in Python floats: ``**``
    # on arrays is not bitwise equal to the scalar power.
    start, span, tau = locate(times)
    s = np.array([10 * u ** 3 - 15 * u ** 4 + 6 * u ** 5 for u in tau])
    ds = np.array([(30 * u ** 2 - 60 * u ** 3 + 30 * u ** 4) / seg_time for u in tau])
    positions = start + span * s[:, None]
    velocities = span * ds[:, None]

    _, span, tau = locate(mid_times)
    dds = np.array([(60 * u - 180 * u ** 2 + 120 * u ** 3) / seg_time_sq for u in tau])
    acc = span * dds[:, None]
    return positions, velocities, np.tile([1.0, 0.0, 0.0, 0.0], (len(times), 1)), acc


# The scenario kinds, in the order the command line lists them.
TRAJECTORIES = {
    "hover": _hover_trajectory,
    "waypoints": _waypoint_trajectory,
    "figure8": _figure8_trajectory,
}


# Row forms of the so3 helpers, bitwise equal to them row by row; see the
# module docstring for the rules.

def _quats_from_rotvecs(v: np.ndarray) -> np.ndarray:
    """``quat_from_rotvec`` on each row of an (N, 3) array."""
    x, y, z = v.T
    angle = np.sqrt(x * x + y * y + z * z)
    out = np.empty((len(v), 4))
    big = angle >= SMALL_ANGLE
    half_angle = 0.5 * angle[big]
    out[big, 0] = np.cos(half_angle)
    out[big, 1:] = np.sin(half_angle)[:, None] * (v[big] / angle[big, None])
    # Series branch.  Below SMALL_ANGLE the series quaternion's norm rounds
    # to exactly 1, so quat_normalize leaves it as it is.
    small = ~big
    angle_sq = angle[small] * angle[small]
    out[small, 0] = 1.0 - angle_sq / 8.0
    out[small, 1:] = (0.5 - angle_sq / 48.0)[:, None] * v[small]
    return out


def _relative_quats(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``quat_multiply(quat_conjugate(a), b)`` on each row pair of (N, 4) arrays."""
    aw, ax, ay, az = a[:, 0], -a[:, 1], -a[:, 2], -a[:, 3]
    bw, bx, by, bz = b.T
    out = np.empty(b.shape)
    out[:, 0] = aw * bw - ax * bx - ay * by - az * bz
    out[:, 1] = aw * bx + ax * bw + ay * bz - az * by
    out[:, 2] = aw * by - ax * bz + ay * bw + az * bx
    out[:, 3] = aw * bz + ax * by - ay * bx + az * bw
    return out


def _rotvecs_from_quats(q: np.ndarray) -> np.ndarray:
    """``quat_to_rotvec`` on each row of an (N, 4) array."""
    x, y, z = q[:, 1:].T
    s = np.sqrt(x * x + y * y + z * z)
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


def _rotmats(q: np.ndarray) -> np.ndarray:
    """``quat_to_rotmat`` on each row of an (N, 4) array, as (N, 3, 3)."""
    w, x, y, z = q.T
    rot = np.empty((len(q), 3, 3))
    rot[:, 0, 0] = 1 - 2 * (y * y + z * z)
    rot[:, 0, 1] = 2 * (x * y - w * z)
    rot[:, 0, 2] = 2 * (x * z + w * y)
    rot[:, 1, 0] = 2 * (x * y + w * z)
    rot[:, 1, 1] = 1 - 2 * (x * x + z * z)
    rot[:, 1, 2] = 2 * (y * z - w * x)
    rot[:, 2, 0] = 2 * (x * z - w * y)
    rot[:, 2, 1] = 2 * (y * z + w * x)
    rot[:, 2, 2] = 1 - 2 * (x * x + y * y)
    return rot


def generate_truth(spec: ScenarioSpec) -> TruthTrajectory:
    """Evaluate the scenario's analytic trajectory on the IMU grid, all rows at once."""
    if spec.kind not in TRAJECTORIES:
        raise ValueError(
            f"unknown trajectory kind '{spec.kind}'; expected one of {sorted(TRAJECTORIES)}")
    dt = 1.0 / spec.imu_rate
    steps = int(round(spec.duration * spec.imu_rate))
    times = np.arange(steps + 1) * dt
    positions, velocities, orientations, mid_acc = TRAJECTORIES[spec.kind](
        spec, times, times[:-1] + 0.5 * dt)

    gyro_body = _rotvecs_from_quats(_relative_quats(orientations[:-1], orientations[1:]))
    gyro_body /= dt
    mid_acc -= GRAVITY
    accel_body = np.matmul(_rotmats(orientations[:-1]).transpose(0, 2, 1),
                           mid_acc[:, :, None])[:, :, 0]
    return TruthTrajectory(times, positions, velocities, orientations,
                           accel_body, gyro_body)


def _sample_odometry(truth: TruthTrajectory, sensor: SensorSpec,
                     imu_rate: float, rng: np.random.Generator) -> list[OdometrySample]:
    stride = max(1, int(round(imu_rate / sensor.rate)))
    indices = np.arange(stride, len(truth), stride)
    noise = sensor.noise
    std = noise.std_vector()
    drift_rate = noise.drift_vector()
    dt_odom = stride * truth.dt

    triggers = rng.random(len(indices)) < noise.jump_probability
    samples: list[OdometrySample] = []
    hold = 0
    jump = np.zeros(6)  # position(3) + velocity(3) jump
    drift = np.zeros(3)
    for i, grid_idx in enumerate(indices):
        t = float(truth.times[grid_idx])
        if triggers[i]:
            signs = rng.integers(0, 2, size=6) * 2 - 1
            jump = noise.jump_magnitude * np.concatenate([std[0:3], std[6:9]]) * signs
            hold = noise.jump_duration
        offset = jump if hold > 0 else np.zeros(6)
        if hold > 0:
            hold -= 1
        if noise.drift_start <= t < noise.drift_start + noise.drift_duration:
            drift = drift + drift_rate * dt_odom
        gauss = rng.standard_normal(ODOM_CHANNELS) * std
        position = truth.positions[grid_idx] + gauss[0:3] + offset[0:3] + drift
        orientation = quat_multiply(truth.orientations[grid_idx],
                                    quat_from_rotvec(gauss[3:6]))
        velocity = truth.velocities[grid_idx] + gauss[6:9] + offset[3:6]
        samples.append(OdometrySample(
            sensor_id=sensor.sensor_id, position=position,
            orientation=orientation, velocity=velocity, time=t))
    return samples


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
    events: list[Event] = list(map(ImuSample, accel, gyro, truth.times[1:].tolist()))

    for index, sensor in enumerate(spec.sensors):
        rng = np.random.default_rng([spec.seed, index + 1])
        events.extend(_sample_odometry(truth, sensor, spec.imu_rate, rng))

    events.sort(key=lambda e: (e.time, isinstance(e, OdometrySample),
                               getattr(e, "sensor_id", "")))
    return events
