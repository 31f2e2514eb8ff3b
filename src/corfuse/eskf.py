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
import math
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .adapt_residual import ResidualNoiseAdapter
from .adapt_vb import VbNoiseAdapter
from .errors import AdaptationNotReady, MeasurementRejected
from .filter_core import (
    GaussianBelief,
    InnovationRecord,
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
# Seconds an event may lag the filter clock and still be fused at the clock's
# time; larger lags are dropped as out of order.
TIME_TOLERANCE = 1e-3

VARIANTS = ("ekf", "akf", "mcckf", "r-amcckf", "vb-amcckf")
_KERNEL_VARIANTS = ("mcckf", "r-amcckf", "vb-amcckf")


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


def propagate_nominal(state: NominalState, imu: ImuSample, dt: float) -> NominalState:
    """First-order nominal propagation over one IMU interval.

        p += v dt
        v += (R(q) a + g) dt
        q  = q * exp(w dt), renormalized
    """
    if not (np.isfinite(imu.accel).all() and np.isfinite(imu.gyro).all()):
        raise MeasurementRejected("non-finite IMU sample")
    rot = quat_to_rotmat(state.orientation)
    position = state.position + state.velocity * dt
    velocity = state.velocity + (rot @ imu.accel + GRAVITY) * dt
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


@dataclass
class CorrectionResult:
    """Per-correction outputs collected by experiment runners."""

    sensor_id: str
    time: float
    record: InnovationRecord
    bandwidth: np.ndarray
    noise_trace: float
    state: NominalState


@dataclass
class _SensorState:
    noise: np.ndarray
    bandwidth: BandwidthState


class FusionEngine:
    """Asynchronous IMU + multi-odometry fusion around the error-state filter.

    Construct with a configuration and a mapping of sensor id to initial
    measurement-noise covariance (a scalar means that value times the
    identity); the residual scheme estimates process noise from the first
    sensor.  Call :meth:`initialize` once, then feed events in time order
    through :meth:`process`.
    """

    def __init__(self, config: EngineConfig,
                 sensor_noise: dict[str, Union[float, np.ndarray]]) -> None:
        if config.variant not in VARIANTS:
            raise ValueError(
                f"unknown filter variant '{config.variant}'; expected one of {VARIANTS}")
        if not sensor_noise:
            raise ValueError("at least one odometry sensor is required")
        self.config = config
        self._uses_kernel = config.variant in _KERNEL_VARIANTS
        self.process_noise = np.asarray(config.process_noise, dtype=float).copy()

        self._sensors: dict[str, _SensorState] = {}
        for sensor_id, noise in sensor_noise.items():
            noise_mat = (float(noise) * np.eye(OBS_DIM)
                         if np.isscalar(noise) else np.asarray(noise, dtype=float).copy())
            adaptive_kb = self._uses_kernel and config.sigma_mode == "adaptive"
            bandwidth = BandwidthState(
                dim=OBS_DIM, adaptive=adaptive_kb, sigma_static=config.sigma_static,
                sigma_min=config.sigma_min, sigma_max=config.sigma_max)
            self._sensors[sensor_id] = _SensorState(noise=noise_mat, bandwidth=bandwidth)

        # One noise adapter serves all sensors; ekf and mcckf adapt nothing.
        self._adapter: Optional[Union[VbNoiseAdapter, ResidualNoiseAdapter]] = None
        if config.variant in ("akf", "vb-amcckf"):
            self._adapter = VbNoiseAdapter(STATE_DIM, OBS_DIM, window=config.window,
                                           forgetting=config.forgetting)
        elif config.variant == "r-amcckf":
            self._adapter = ResidualNoiseAdapter(self._sensors, window=config.window,
                                                 smoothing=config.smoothing)

        # _nominal.time is the engine's one clock: every dt is measured from
        # it, and the engine never reads the belief's time.
        self._nominal: Optional[NominalState] = None
        self._belief: Optional[GaussianBelief] = None
        self._last_imu: Optional[ImuSample] = None
        self._imu_period: Optional[float] = None
        self.dropped = {"out_of_order": 0, "non_finite": 0, "rejected": 0}

    # -- accessors -------------------------------------------------------

    @property
    def state(self) -> NominalState:
        assert self._nominal is not None, "engine not initialized"
        return self._nominal

    @property
    def covariance(self) -> np.ndarray:
        assert self._belief is not None, "engine not initialized"
        return self._belief.cov

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
        self._nominal = propagate_nominal(self._nominal, imu, dt)
        if self._adapter is not None:
            self._adapter.advance(trans, scale)

    def _accept(self, event: Event, values: tuple[np.ndarray, ...]) -> Optional[float]:
        """Gap from the clock to an event, or None after counting and dropping it.

        A lag within TIME_TOLERANCE gives a gap of zero: the clock never goes back.
        """
        if not (math.isfinite(event.time) and all(np.isfinite(v).all() for v in values)):
            reason = "non_finite"
        elif event.time - self._nominal.time < -TIME_TOLERANCE:
            reason = "out_of_order"
        else:
            return max(event.time - self._nominal.time, 0.0)
        self.dropped[reason] += 1
        source = ("IMU sample" if isinstance(event, ImuSample)
                  else f"odometry from '{event.sensor_id}'")
        log.warning("dropped %s %s at t=%.6f", reason.replace("_", "-"), source, event.time)
        return None

    def _handle_imu(self, sample: ImuSample) -> None:
        dt = self._accept(sample, (sample.accel, sample.gyro))
        if dt is None:
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
        dt = self._accept(sample, (sample.position, sample.orientation, sample.velocity))
        if dt is None:
            return None
        if dt > 0.0:
            if self._last_imu is not None:
                self._advance(dt, self._last_imu)
            else:
                # No inertial data yet: slide the clock without propagation.
                self._nominal.time = sample.time
        now = self._nominal.time

        sensor = self._sensors[sample.sensor_id]
        if np.linalg.norm(sample.orientation) == 0.0:
            return self._reject(sample, MeasurementRejected("zero-norm quaternion"))
        y, obs_jac = observation_residual(self._nominal, sample)
        sigma = sensor.bandwidth.update(y, sensor.noise, obs_jac, self._belief.cov)
        # A refused correction leaves the state, belief and adapter as they were.
        try:
            if self._uses_kernel:
                posterior, record = mcckf_update(self._belief, y, obs_jac, sensor.noise,
                                                 sigma, sample.sensor_id)
            else:
                posterior, record = kf_update(self._belief, y, obs_jac, sensor.noise,
                                              sample.sensor_id)
        except MeasurementRejected as exc:
            return self._reject(sample, exc)
        try:
            self._nominal = inject_and_reset(self._nominal, posterior.mean)
        except ValueError as exc:
            return self._reject(sample, exc)
        self._belief = GaussianBelief(np.zeros(STATE_DIM), posterior.cov, now)
        if self._adapter is not None:
            self._adapter.correct(sample.sensor_id, now, record, posterior.mean)
            self._refresh_noise()

        return CorrectionResult(
            sensor_id=sample.sensor_id, time=now, record=record,
            bandwidth=np.asarray(sigma, dtype=float).copy(),
            noise_trace=float(np.trace(sensor.noise)),
            state=self._nominal.copy(),
        )

    def _reject(self, sample: OdometrySample, exc: Exception) -> None:
        self.dropped["rejected"] += 1
        log.warning("rejected odometry from '%s' at t=%.6f: %s",
                    sample.sensor_id, sample.time, exc)

    def _refresh_noise(self) -> None:
        try:
            q_interval, interval_steps, noise_by_sensor = self._adapter.refresh()
        except AdaptationNotReady:
            return
        for sid, noise in noise_by_sensor.items():
            self._sensors[sid].noise = noise
        if self.config.adapt_q and q_interval is not None:
            self._set_process_noise(q_interval, interval_steps)

    def _set_process_noise(self, q_interval: np.ndarray, interval_steps: float) -> None:
        # The window statistics measure process noise accumulated over one
        # inter-correction interval; spread it back over the predict steps.
        per_step = q_interval / max(interval_steps, 1.0)
        self.process_noise = floor_diagonal(psd_project(per_step), 1e-12)
