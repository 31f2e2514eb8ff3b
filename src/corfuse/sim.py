"""Synthetic trajectory and sensor-stream generation.

Truth trajectories are analytic, so the IMU channels come from exact
kinematic inversion rather than numerical differentiation: the gyro
sample for an interval is the exact relative rotation divided by dt, and
the accelerometer sample is the world acceleration at the interval
midpoint rotated into the body frame with gravity removed.  A noise-free
stream therefore closes the loop with the filter's first-order integrator
to well under a centimeter over a minute.

Odometry corruption is layered: Gaussian noise per channel, optional
Bernoulli-triggered jump offsets held for a fixed number of steps, and an
optional linear position drift confined to a time window (a cheap model
of a visual tracker diverging).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np

from .eskf import GRAVITY, Event, ImuSample, NominalState, OdometrySample
from .so3 import quat_conjugate, quat_from_rotvec, quat_multiply, quat_to_rotmat, quat_to_rotvec

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
    seed: Optional[int] = None

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
        index = int(round((time - self.times[0]) / self.dt))
        index = min(max(index, 0), len(self.times) - 1)
        if abs(self.times[index] - time) > tol:
            raise ValueError(f"time {time} is not on the truth grid")
        return index


@dataclass
class _Trajectory:
    pos: Callable[[float], np.ndarray]
    vel: Callable[[float], np.ndarray]
    acc: Callable[[float], np.ndarray]
    quat: Callable[[float], np.ndarray]


def _hover_trajectory(spec: ScenarioSpec) -> _Trajectory:
    origin = np.array([0.0, 0.0, 1.0])
    zero = np.zeros(3)
    identity = np.array([1.0, 0.0, 0.0, 0.0])
    return _Trajectory(
        pos=lambda t: origin,
        vel=lambda t: zero,
        acc=lambda t: zero,
        quat=lambda t: identity,
    )


def _figure8_trajectory(spec: ScenarioSpec) -> _Trajectory:
    amp = np.array([1.0, 0.5, 0.2])
    center = np.array([0.0, 0.0, 1.0])
    omega = 2.0 * math.pi / 20.0
    yaw_amp = 0.5

    def pos(t: float) -> np.ndarray:
        return center + amp * np.array(
            [math.sin(omega * t), math.sin(2 * omega * t), math.sin(omega * t)])

    def vel(t: float) -> np.ndarray:
        return amp * np.array([
            omega * math.cos(omega * t),
            2 * omega * math.cos(2 * omega * t),
            omega * math.cos(omega * t),
        ])

    def acc(t: float) -> np.ndarray:
        return -amp * np.array([
            omega ** 2 * math.sin(omega * t),
            4 * omega ** 2 * math.sin(2 * omega * t),
            omega ** 2 * math.sin(omega * t),
        ])

    def quat(t: float) -> np.ndarray:
        return quat_from_rotvec(np.array([0.0, 0.0, yaw_amp * math.sin(omega * t)]))

    return _Trajectory(pos=pos, vel=vel, acc=acc, quat=quat)


_DEFAULT_WAYPOINTS = np.array([
    [0.0, 0.0, 1.0],
    [2.0, 0.0, 1.5],
    [2.0, 2.0, 1.0],
    [0.0, 2.0, 1.5],
])


def _waypoint_trajectory(spec: ScenarioSpec) -> _Trajectory:
    points = np.asarray(
        spec.waypoints if spec.waypoints is not None else _DEFAULT_WAYPOINTS, dtype=float)
    if points.shape[0] < 2:
        raise ValueError("waypoint trajectory needs at least two waypoints")
    segments = points.shape[0] - 1
    seg_time = spec.duration / segments
    identity = np.array([1.0, 0.0, 0.0, 0.0])

    def _locate(t: float) -> tuple[int, float]:
        idx = min(int(t / seg_time), segments - 1)
        return idx, (t - idx * seg_time) / seg_time

    def pos(t: float) -> np.ndarray:
        idx, tau = _locate(t)
        s = 10 * tau ** 3 - 15 * tau ** 4 + 6 * tau ** 5
        return points[idx] + (points[idx + 1] - points[idx]) * s

    def vel(t: float) -> np.ndarray:
        idx, tau = _locate(t)
        ds = (30 * tau ** 2 - 60 * tau ** 3 + 30 * tau ** 4) / seg_time
        return (points[idx + 1] - points[idx]) * ds

    def acc(t: float) -> np.ndarray:
        idx, tau = _locate(t)
        dds = (60 * tau - 180 * tau ** 2 + 120 * tau ** 3) / seg_time ** 2
        return (points[idx + 1] - points[idx]) * dds

    return _Trajectory(pos=pos, vel=vel, acc=acc, quat=lambda t: identity)


_TRAJECTORIES = {
    "hover": _hover_trajectory,
    "figure8": _figure8_trajectory,
    "waypoints": _waypoint_trajectory,
}


def generate_truth(spec: ScenarioSpec) -> TruthTrajectory:
    """Evaluate the scenario's analytic trajectory on the IMU grid."""
    if spec.kind not in _TRAJECTORIES:
        raise ValueError(
            f"unknown trajectory kind '{spec.kind}'; expected one of {sorted(_TRAJECTORIES)}")
    traj = _TRAJECTORIES[spec.kind](spec)
    dt = 1.0 / spec.imu_rate
    steps = int(round(spec.duration * spec.imu_rate))
    times = np.arange(steps + 1) * dt

    positions = np.stack([traj.pos(t) for t in times])
    velocities = np.stack([traj.vel(t) for t in times])
    orientations = np.stack([traj.quat(t) for t in times])

    accel_body = np.zeros((steps, 3))
    gyro_body = np.zeros((steps, 3))
    for k in range(steps):
        q_prev = orientations[k]
        delta = quat_multiply(quat_conjugate(q_prev), orientations[k + 1])
        gyro_body[k] = quat_to_rotvec(delta) / dt
        mid_acc = traj.acc(times[k] + 0.5 * dt)
        accel_body[k] = quat_to_rotmat(q_prev).T @ (mid_acc - GRAVITY)
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
    jump = np.zeros(6)  # position(3) + velocity(3) offsets
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
    stream.  Each sensor gets its own generator seeded from its NoiseSpec
    seed, or derived from the scenario seed and the sensor's position in
    the list.
    """
    imu_rng = np.random.default_rng([spec.seed, 0])
    events: list[Event] = []
    for k in range(len(truth) - 1):
        accel = truth.accel_body[k] + imu_rng.standard_normal(3) * spec.imu_accel_std
        gyro = truth.gyro_body[k] + imu_rng.standard_normal(3) * spec.imu_gyro_std
        events.append(ImuSample(accel=accel, gyro=gyro, time=float(truth.times[k + 1])))

    for index, sensor in enumerate(spec.sensors):
        seed = sensor.noise.seed if sensor.noise.seed is not None else spec.seed
        rng = np.random.default_rng([seed, index + 1])
        events.extend(_sample_odometry(truth, sensor, spec.imu_rate, rng))

    events.sort(key=lambda e: (e.time, isinstance(e, OdometrySample),
                               getattr(e, "sensor_id", "")))
    return events
