"""Error-state Kalman filtering on SE(3) and the multi-sensor fusion engine.

The nominal state (position, velocity, orientation quaternion) is driven
by IMU samples; a 9-dimensional error state [dp, dv, dtheta] carries the
uncertainty.  Odometry-style sensors observe the full pose-plus-velocity
and correct the error state, which is then injected into the nominal
state and reset to zero.  Orientation errors are body-side rotation
vectors: q_true = q_nominal * exp(dtheta).

``FusionEngine`` wires the pieces together for asynchronous event streams
and hosts the filter variants:

    ekf        plain corrections, fixed noise
    mcckf      correntropy-weighted corrections, fixed noise
    akf        plain corrections + variational noise adaptation
    r-amcckf   weighted corrections + residual-window noise adaptation
    vb-amcckf  weighted corrections + variational noise adaptation

A single engine instance is not thread-safe; feed it events from one
thread in timestamp order.
"""
from __future__ import annotations

import logging
from collections import deque
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .adapt_residual import ResidualNoiseAdapter, check_identity_gamma
from .adapt_vb import VbNoiseAdapter
from .errors import AdaptationNotReady, MeasurementRejected
from .filter_core import (
    GaussianBelief,
    InnovationRecord,
    WindowSnapshot,
    kf_update,
    mcckf_update,
    predict,
)
from .kernel_bandwidth import BandwidthState
from .linalg import floor_diagonal, psd_project
from .so3 import (
    quat_conjugate,
    quat_from_rotvec,
    quat_multiply,
    quat_normalize,
    quat_to_rotmat,
    quat_to_rotvec,
    rotation_angle,
    rotvec_to_rotmat,
    skew,
)

log = logging.getLogger(__name__)

GRAVITY = np.array([0.0, 0.0, -9.81])
STATE_DIM = 9
OBS_DIM = 9

VARIANTS = ("ekf", "akf", "mcckf", "r-amcckf", "vb-amcckf")
_KERNEL_VARIANTS = ("mcckf", "r-amcckf", "vb-amcckf")
_SCHEMES = {"akf": "vb", "vb-amcckf": "vb", "r-amcckf": "residual"}


@dataclass
class NominalState:
    """Nominal SE(3) state: world position/velocity and body orientation."""

    position: np.ndarray
    velocity: np.ndarray
    orientation: np.ndarray  # unit quaternion [w, x, y, z]
    time: float = 0.0

    def copy(self) -> "NominalState":
        return NominalState(self.position.copy(), self.velocity.copy(),
                            self.orientation.copy(), self.time)


@dataclass
class ImuSample:
    """Specific force and angular rate in the body frame."""

    accel: np.ndarray
    gyro: np.ndarray
    time: float


@dataclass
class OdometrySample:
    """Pose-plus-velocity report from one odometry source."""

    sensor_id: str
    position: np.ndarray
    orientation: np.ndarray  # unit quaternion [w, x, y, z]
    velocity: np.ndarray
    time: float


Event = Union[ImuSample, OdometrySample]


def propagate_nominal(state: NominalState, imu: ImuSample, dt: float,
                      gravity: np.ndarray = GRAVITY) -> NominalState:
    """First-order nominal propagation over one IMU interval.

        p += v dt
        v += (R(q) a + g) dt
        q  = q * exp(w dt), renormalized
    """
    if not (np.all(np.isfinite(imu.accel)) and np.all(np.isfinite(imu.gyro))):
        raise MeasurementRejected("non-finite IMU sample")
    rot = quat_to_rotmat(state.orientation)
    position = state.position + state.velocity * dt
    velocity = state.velocity + (rot @ imu.accel + gravity) * dt
    orientation = quat_normalize(
        quat_multiply(state.orientation, quat_from_rotvec(imu.gyro * dt)))
    return NominalState(position, velocity, orientation, state.time + dt)


def error_transition(state: NominalState, imu: ImuSample, dt: float) -> np.ndarray:
    """Discrete error-state transition Jacobian for one IMU interval.

    Evaluated at the pre-propagation nominal state.  The velocity error
    couples to the attitude error through -R(q) [a]x dt (body-side error
    convention) and the attitude block is the exact adjoint R(w dt)^T,
    which is the identity to first order.
    """
    trans = np.eye(STATE_DIM)
    trans[0:3, 3:6] = dt * np.eye(3)
    rot = quat_to_rotmat(state.orientation)
    trans[3:6, 6:9] = -(rot @ skew(imu.accel)) * dt
    trans[6:9, 6:9] = rotvec_to_rotmat(imu.gyro * dt).T
    return trans


def observation_residual(state: NominalState,
                         z: OdometrySample) -> tuple[np.ndarray, np.ndarray]:
    """Observation residual in error-state coordinates plus its Jacobian.

    Returns the 9-vector [z.p - p, z.v - v, log(q^-1 * z.q)], stacked in
    the same order as the error state so that H is the identity to first
    order in the attitude error.  If the relative rotation is within 1e-9
    of half a turn, the log-map branch is still well defined but a warning
    is emitted since the sign is arbitrary.
    """
    q_rel = quat_multiply(quat_conjugate(state.orientation), z.orientation)
    if abs(rotation_angle(q_rel) - np.pi) < 1e-9:
        log.warning("antipodal orientation residual from sensor '%s' at t=%.6f",
                    z.sensor_id, z.time)
    y = np.concatenate([
        z.position - state.position,
        z.velocity - state.velocity,
        quat_to_rotvec(q_rel),
    ])
    return y, np.eye(OBS_DIM)


def inject_and_reset(state: NominalState, delta: np.ndarray) -> NominalState:
    """Fold an estimated error vector into the nominal state.

    The returned nominal absorbs the correction; the caller zeroes the
    error mean (covariance is carried over unchanged, the reset Jacobian
    being the identity to first order).
    """
    dtheta = delta[6:9]
    if np.linalg.norm(dtheta) >= np.pi:
        raise ValueError("attitude correction of half a turn or more")
    position = state.position + delta[0:3]
    velocity = state.velocity + delta[3:6]
    orientation = quat_normalize(
        quat_multiply(state.orientation, quat_from_rotvec(dtheta)))
    return NominalState(position, velocity, orientation, state.time)


@dataclass
class EngineConfig:
    """Tunables for a fusion run.  Defaults mirror the intended field setup."""

    variant: str = "vb-amcckf"
    gravity: np.ndarray = field(default_factory=lambda: GRAVITY.copy())
    process_noise: np.ndarray = field(
        default_factory=lambda: 1e-5 * np.eye(STATE_DIM))
    window: int = 10
    forgetting: float = 0.97
    smoothing: float = 1.0
    sigma_mode: str = "adaptive"
    sigma_static: float = 2.0
    # A bandwidth floor well below this lets a run of large innovations
    # suppress its own recovery: every channel beyond ~1.5 sigma is gated
    # off, dead-reckoning drift grows the innovations further, and the
    # filter never re-engages.  0.5 keeps ordinary corrections alive while
    # still annihilating genuine outliers.
    sigma_min: float = 0.5
    sigma_max: float = 1e6
    adapt_q: bool = True
    q_sensor: Optional[str] = None
    time_tolerance: float = 1e-3
    self_check: bool = False


@dataclass
class CorrectionResult:
    """Per-correction outputs collected by experiment runners."""

    sensor_id: str
    time: float
    record: InnovationRecord
    bandwidth: np.ndarray
    noise_trace: float
    state: NominalState
    identity_deviation: Optional[float] = None


@dataclass
class _SensorState:
    noise: np.ndarray
    bandwidth: BandwidthState
    adapter: Optional[ResidualNoiseAdapter]


class FusionEngine:
    """Asynchronous IMU + multi-odometry fusion around the error-state filter.

    Construct with a configuration and a mapping of sensor id to initial
    measurement-noise covariance (a scalar means that value times the
    identity).  Call :meth:`initialize` once, then feed events in time
    order through :meth:`process`.
    """

    def __init__(self, config: EngineConfig,
                 sensor_noise: dict[str, Union[float, np.ndarray]]) -> None:
        if config.variant not in VARIANTS:
            raise ValueError(
                f"unknown filter variant '{config.variant}'; expected one of {VARIANTS}")
        if not sensor_noise:
            raise ValueError("at least one odometry sensor is required")
        self.config = config
        self.variant = config.variant
        self._uses_kernel = config.variant in _KERNEL_VARIANTS
        self._scheme = _SCHEMES.get(config.variant)
        self.process_noise = np.asarray(config.process_noise, dtype=float).copy()

        self._sensors: dict[str, _SensorState] = {}
        for sensor_id, noise in sensor_noise.items():
            noise_mat = (float(noise) * np.eye(OBS_DIM)
                         if np.isscalar(noise) else np.asarray(noise, dtype=float).copy())
            adaptive_kb = self._uses_kernel and config.sigma_mode == "adaptive"
            bandwidth = BandwidthState(
                dim=OBS_DIM, adaptive=adaptive_kb, sigma_static=config.sigma_static,
                sigma_min=config.sigma_min, sigma_max=config.sigma_max)
            adapter = None
            if self._scheme == "residual":
                adapter = ResidualNoiseAdapter(window=config.window,
                                               smoothing=config.smoothing)
            self._sensors[sensor_id] = _SensorState(
                noise=noise_mat, bandwidth=bandwidth, adapter=adapter)

        # The variational scheme smooths one interleaved window covering all
        # sensors, so its adapter lives on the engine rather than per sensor.
        self._vb_adapter: Optional[VbNoiseAdapter] = None
        if self._scheme == "vb":
            self._vb_adapter = VbNoiseAdapter(STATE_DIM, OBS_DIM, window=config.window,
                                              forgetting=config.forgetting)

        self.q_sensor = config.q_sensor or next(iter(self._sensors))
        if self.q_sensor not in self._sensors:
            raise ValueError(f"q_sensor '{self.q_sensor}' is not a configured sensor")

        self._nominal: Optional[NominalState] = None
        self._belief: Optional[GaussianBelief] = None
        self._last_imu: Optional[ImuSample] = None
        self._imu_period: Optional[float] = None
        self._trans_acc = np.eye(STATE_DIM)
        self._steps_acc = 0.0
        # Predict steps between consecutive corrections from q_sensor, which
        # spread the residual scheme's per-interval Q back over single steps.
        self._q_steps = 0.0
        self._q_intervals: deque[float] = deque(maxlen=32)
        self.dropped = {"out_of_order": 0, "non_finite": 0}
        self.identity_deviation_max = 0.0

    # -- accessors -------------------------------------------------------

    @property
    def state(self) -> NominalState:
        assert self._nominal is not None, "engine not initialized"
        return self._nominal

    @property
    def covariance(self) -> np.ndarray:
        assert self._belief is not None, "engine not initialized"
        return self._belief.cov

    @property
    def error_mean(self) -> np.ndarray:
        assert self._belief is not None, "engine not initialized"
        return self._belief.mean

    def measurement_noise(self, sensor_id: str) -> np.ndarray:
        return self._sensors[sensor_id].noise

    def sensor_ids(self) -> list[str]:
        return list(self._sensors)

    # -- lifecycle -------------------------------------------------------

    def initialize(self, state: NominalState,
                   cov: Union[float, np.ndarray] = 1e-4) -> None:
        cov_mat = (float(cov) * np.eye(STATE_DIM)
                   if np.isscalar(cov) else np.asarray(cov, dtype=float).copy())
        self._nominal = state.copy()
        self._belief = GaussianBelief(np.zeros(STATE_DIM), cov_mat, state.time)
        # Running no-reset filtered mean shared by the smoother window: the
        # error-state mean that a filter without injection/reset would carry.
        self._frame_mean = np.zeros(STATE_DIM)
        self._trans_acc = np.eye(STATE_DIM)
        self._steps_acc = 0.0

    def process(self, event: Event) -> Optional[CorrectionResult]:
        """Advance the filter by one event; odometry returns a correction record."""
        if self._belief is None or self._nominal is None:
            raise RuntimeError("call initialize() before processing events")
        if isinstance(event, ImuSample):
            return self._handle_imu(event)
        if isinstance(event, OdometrySample):
            return self._handle_odometry(event)
        raise TypeError(f"unsupported event type {type(event)!r}")

    # -- internals -------------------------------------------------------

    def _advance(self, dt: float, imu: ImuSample) -> None:
        scale = dt / self._imu_period if self._imu_period else 1.0
        trans = error_transition(self._nominal, imu, dt)
        self._belief = predict(self._belief, trans, self.process_noise * scale, dt)
        self._nominal = propagate_nominal(self._nominal, imu, dt, self.config.gravity)
        self._frame_mean = trans @ self._frame_mean
        self._trans_acc = trans @ self._trans_acc
        self._steps_acc += scale
        self._q_steps += scale

    def _handle_imu(self, sample: ImuSample) -> None:
        if not (np.all(np.isfinite(sample.accel)) and np.all(np.isfinite(sample.gyro))):
            self.dropped["non_finite"] += 1
            log.warning("dropped non-finite IMU sample at t=%.6f", sample.time)
            return None
        dt = sample.time - self._belief.time
        if dt < -self.config.time_tolerance:
            self.dropped["out_of_order"] += 1
            log.warning("dropped out-of-order IMU sample at t=%.6f", sample.time)
            return None
        if dt > 0.0:
            # The nominal IMU period is the spacing of IMU samples, not the
            # gap to whatever event came last.
            if self._imu_period is None and self._last_imu is not None:
                self._imu_period = sample.time - self._last_imu.time
            self._advance(dt, sample)
        self._last_imu = sample
        return None

    def _handle_odometry(self, sample: OdometrySample) -> Optional[CorrectionResult]:
        if sample.sensor_id not in self._sensors:
            raise ValueError(f"unknown sensor id '{sample.sensor_id}'")
        finite = (np.all(np.isfinite(sample.position))
                  and np.all(np.isfinite(sample.orientation))
                  and np.all(np.isfinite(sample.velocity)))
        if not finite:
            self.dropped["non_finite"] += 1
            log.warning("dropped non-finite odometry from '%s' at t=%.6f",
                        sample.sensor_id, sample.time)
            return None
        dt = sample.time - self._belief.time
        if dt < -self.config.time_tolerance:
            self.dropped["out_of_order"] += 1
            log.warning("dropped out-of-order odometry from '%s' at t=%.6f",
                        sample.sensor_id, sample.time)
            return None
        if dt > 0.0:
            if self._last_imu is not None:
                self._advance(dt, self._last_imu)
            else:
                # No inertial data yet: slide the clock without propagation.
                self._belief.time = sample.time
                self._nominal.time = sample.time

        sensor = self._sensors[sample.sensor_id]
        y, obs_jac = observation_residual(self._nominal, sample)
        sigma = sensor.bandwidth.update(y, sensor.noise, obs_jac, self._belief.cov)
        noise_used = sensor.noise
        if self._uses_kernel:
            posterior, record = mcckf_update(self._belief, y, obs_jac, noise_used, sigma,
                                             sample.sensor_id)
        else:
            posterior, record = kf_update(self._belief, y, obs_jac, noise_used,
                                          sample.sensor_id)
        delta = posterior.mean
        self._nominal = inject_and_reset(self._nominal, delta)
        self._belief = GaussianBelief(np.zeros(STATE_DIM), posterior.cov, sample.time)
        prior_frame = self._frame_mean
        self._frame_mean = prior_frame + delta

        identity_dev: Optional[float] = None
        if self.config.self_check and not self._uses_kernel:
            identity_dev = check_identity_gamma(record, noise_used)
            self.identity_deviation_max = max(self.identity_deviation_max, identity_dev)

        snapshot = WindowSnapshot(
            time=sample.time, state=self._frame_mean.copy(), prior_mean=prior_frame,
            cov=record.cov_post, transition=self._trans_acc, obs_jacobian=obs_jac,
            residual=record.residual, weights=record.weights,
            cov_pred=record.cov_pred, steps=self._steps_acc, sensor_id=sample.sensor_id,
        )
        self._trans_acc = np.eye(STATE_DIM)
        self._steps_acc = 0.0
        if sample.sensor_id == self.q_sensor:
            self._q_intervals.append(max(self._q_steps, 1.0))
            self._q_steps = 0.0

        self._refresh_noise(sample.sensor_id, sensor, snapshot, record)

        return CorrectionResult(
            sensor_id=sample.sensor_id, time=sample.time, record=record,
            bandwidth=np.asarray(sigma, dtype=float).copy(),
            noise_trace=float(np.trace(sensor.noise)),
            state=self._nominal.copy(), identity_deviation=identity_dev,
        )

    def _refresh_noise(self, sensor_id: str, sensor: _SensorState,
                       snapshot: WindowSnapshot, record: InnovationRecord) -> None:
        if self._scheme is None:
            return
        if self._scheme == "vb":
            self._vb_adapter.push(snapshot)
            try:
                q_interval, mean_steps, noise_by_sensor = self._vb_adapter.refresh()
            except AdaptationNotReady:
                return
            for sid, noise in noise_by_sensor.items():
                self._sensors[sid].noise = noise
            if self.config.adapt_q and q_interval is not None:
                self._set_process_noise(q_interval, mean_steps)
        else:
            adapter = sensor.adapter
            adapter.push(record)
            try:
                q_interval, noise = adapter.refresh()
            except AdaptationNotReady:
                return
            sensor.noise = noise
            if self.config.adapt_q and sensor_id == self.q_sensor:
                self._set_process_noise(q_interval, float(np.mean(self._q_intervals)))

    def _set_process_noise(self, q_interval: np.ndarray, interval_steps: float) -> None:
        # The window statistics measure process noise accumulated over one
        # inter-correction interval; spread it back over the predict steps.
        per_step = q_interval / max(interval_steps, 1.0)
        self.process_noise = floor_diagonal(psd_project(per_step), 1e-12)
