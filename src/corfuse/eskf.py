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
from dataclasses import astuple, dataclass, field, replace
from typing import Optional, Union

import numpy as np
from scipy.linalg.lapack import dpotrf

from .adapt_residual import ResidualNoiseAdapter
from .adapt_vb import VbNoiseAdapter
from .errors import AdaptationNotReady, MeasurementRejected
from .filter_core import IDENTITY, InnovationRecord, kf_update, mcckf_update, predict
from .kernel_bandwidth import BandwidthState
from .linalg import symmetrize
from .so3 import (
    quat_from_rotvec,
    quat_from_rotvec_floats,
    quat_multiply,
    quat_multiply_floats,
    quat_normalize,
    quat_normalize_floats,
    quat_to_rotmat_floats,
    quat_to_rotvec,
    skew,
)

log = logging.getLogger(__name__)

GRAVITY = np.array([0.0, 0.0, -9.81])
_GRAVITY = GRAVITY.tolist()
STATE_DIM = 9
# The error transition's constant entries: an IMU step writes the rest into a copy.
_TRANSITION = np.eye(STATE_DIM)
_TRANSITION.setflags(write=False)
# Flat indices of the transition's attitude block, column by column, so that
# a rotation matrix given row by row lands there transposed.
_ATTITUDE_COLUMNS = np.array([(6 + j) * STATE_DIM + 6 + i for i in range(3) for j in range(3)])
# Seconds an event may lag the filter clock and still be fused at the clock's
# time; larger lags are dropped as out of order.
TIME_TOLERANCE = 1e-3
# An odometry quaternion whose norm is further than this from 1 is refused,
# not fused as if it were a unit quaternion.
QUAT_NORM_TOLERANCE = 1e-3

VARIANTS = ("ekf", "akf", "mcckf", "r-amcckf", "vb-amcckf")
KERNEL_VARIANTS = ("mcckf", "r-amcckf", "vb-amcckf")
SIGMA_MODES = ("static", "adaptive")


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


@dataclass(slots=True)
class ImuSample:
    """Specific force and angular rate in the body frame."""

    accel: np.ndarray
    gyro: np.ndarray
    time: float


@dataclass(slots=True)
class OdometrySample:
    """Pose-plus-velocity report from one odometry source."""

    sensor_id: str
    position: np.ndarray
    orientation: np.ndarray  # unit quaternion [w, x, y, z]
    velocity: np.ndarray
    time: float


Event = Union[ImuSample, OdometrySample]


def imu_step(state: NominalState, imu: ImuSample, dt: float) -> tuple[NominalState, np.ndarray]:
    """One IMU interval: the first-order nominal propagation and its error transition F.

        p += v dt
        v += (R(q) a + g) dt
        q  = q * exp(w dt), renormalized

    F is evaluated at the pre-propagation nominal state.  The velocity error
    couples to the attitude error through -R(q) [a]x dt (body-side error
    convention) and the attitude block is the exact adjoint R(w dt)^T,
    which is the identity to first order.  Raises MeasurementRejected for
    a sample that is not finite.

    R(q), exp(w dt), the product q * exp(w dt) and its normalization,
    R(w dt)^T and the position and velocity sums run on Python floats,
    through the ``so3`` float forms, on the state read once with
    ``tolist()``.  NumPy keeps the operands of BLAS, since a Python sum
    does not reproduce ``@`` or ``.dot`` bit for bit: R for R a and R [a]x,
    w dt for its own dot, and the unnormalized product for its norm.  F is
    a copy of a read-only identity with the other entries written in.
    """
    if not all(map(math.isfinite, imu.accel.tolist() + imu.gyro.tolist())):
        raise MeasurementRejected("non-finite IMU sample")
    return _imu_step(state, imu, dt)


def _imu_step(state: NominalState, imu: ImuSample, dt: float) -> tuple[NominalState, np.ndarray]:
    """:func:`imu_step` without the finiteness check, for a sample known to be finite."""
    quat = state.orientation.tolist()
    rot = np.array(quat_to_rotmat_floats(*quat)).reshape(3, 3)
    omega = imu.gyro * dt
    delta = quat_from_rotvec_floats(omega.tolist(), math.sqrt(omega.dot(omega)))
    orientation = quat_normalize_floats(np.array(quat_multiply_floats(quat, delta)))
    position, velocity = state.position.tolist(), state.velocity.tolist()
    accel = (rot @ imu.accel).tolist()
    trans = _TRANSITION.copy()
    trans[0, 3] = trans[1, 4] = trans[2, 5] = dt
    np.multiply(rot @ skew(imu.accel), -dt, out=trans[3:6, 6:9])
    trans.put(_ATTITUDE_COLUMNS, quat_to_rotmat_floats(*delta))
    return NominalState(
        np.array([p + v * dt for p, v in zip(position, velocity)]),
        np.array([v + (a + g) * dt for v, a, g in zip(velocity, accel, _GRAVITY)]),
        np.array(orientation), state.time + dt), trans


def propagate_nominal(state: NominalState, imu: ImuSample, dt: float) -> NominalState:
    """The nominal half of :func:`imu_step`."""
    return imu_step(state, imu, dt)[0]


def error_transition(state: NominalState, imu: ImuSample, dt: float) -> np.ndarray:
    """The transition half of :func:`imu_step`."""
    return imu_step(state, imu, dt)[1]


def observation_residual(state: NominalState,
                         z: OdometrySample) -> tuple[np.ndarray, np.ndarray]:
    """Observation residual in error-state coordinates plus its Jacobian.

    Returns the 9-vector [z.p - p, z.v - v, log(q^-1 * z.q)], stacked in
    the same order as the error state so that H is the identity to first
    order in the attitude error.  If the relative rotation, the norm of the
    log map, is within 1e-9 of half a turn, the log-map branch is still
    well defined but a warning is emitted since the sign is arbitrary.
    The relative rotation is quat_multiply(quat_conjugate(q), z.q) in one
    float expression, bit for bit: t - (-p) is t + p exactly.
    """
    (aw, ax, ay, az), (bw, bx, by, bz) = state.orientation.tolist(), z.orientation.tolist()
    rotvec = quat_to_rotvec(np.array([
        aw * bw + ax * bx + ay * by + az * bz,
        aw * bx - ax * bw - ay * bz + az * by,
        aw * by + ax * bz - ay * bw - az * bx,
        aw * bz - ax * by + ay * bx - az * bw,
    ]))
    if abs(math.sqrt(rotvec.dot(rotvec)) - math.pi) < 1e-9:
        log.warning("antipodal orientation residual from sensor '%s' at t=%.6f",
                    z.sensor_id, z.time)
    y = np.concatenate([z.position - state.position, z.velocity - state.velocity, rotvec])
    return y, IDENTITY


def inject_and_reset(state: NominalState, delta: np.ndarray) -> NominalState:
    """Fold an estimated error vector into the nominal state.

    The returned nominal absorbs the correction; the caller zeroes the
    error mean (covariance is carried over unchanged, the reset Jacobian
    being the identity to first order).  Raises ValueError for a ``delta``
    that is not finite or turns the attitude by half a turn or more.
    """
    if not all(map(math.isfinite, delta.tolist())):
        raise ValueError("non-finite correction")
    dtheta = delta[6:9]
    if math.sqrt(dtheta.dot(dtheta)) >= math.pi:
        raise ValueError("attitude correction of half a turn or more")
    position = state.position + delta[0:3]
    velocity = state.velocity + delta[3:6]
    orientation = quat_normalize(
        quat_multiply(state.orientation, quat_from_rotvec(dtheta)))
    return NominalState(position, velocity, orientation, state.time)


def _as_covariance(value: Union[float, np.ndarray], name: str,
                   definite: bool = False) -> np.ndarray:
    """``value`` times I for a finite scalar, else the symmetric part of a finite 9x9 matrix.

    The result must be positive semidefinite, or positive definite (its
    Cholesky factorization succeeds) when ``definite`` is set.  A singular
    covariance built in floating point, such as J diag(q) J^T with a 9x6 J,
    has eigenvalues a few eps * lambda_max either side of zero where exact
    ones are zero, so the semidefinite test passes eigenvalues down to
    -10 * 9 * eps * lambda_max.
    """
    mat = np.asarray(value, dtype=float)
    if mat.shape not in ((), (STATE_DIM, STATE_DIM)) or not np.isfinite(mat).all():
        raise ValueError(f"{name} must be a finite scalar or {STATE_DIM}x{STATE_DIM} matrix")
    cov = symmetrize(float(mat) * np.eye(STATE_DIM) if mat.ndim == 0 else mat)
    eig = None if definite else np.linalg.eigvalsh(cov)
    if (dpotrf(cov, lower=1)[1] != 0) if definite else (
            eig[0] < -10 * STATE_DIM * np.finfo(float).eps * max(eig[-1], np.finfo(float).tiny)):
        raise ValueError(f"{name} must be positive {'definite' if definite else 'semidefinite'}")
    return cov


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


class FusionEngine:
    """Asynchronous IMU + multi-odometry fusion around the error-state filter.

    Construct with a configuration and a mapping of sensor id to initial
    measurement-noise covariance.  Those, the process noise and the initial
    covariance each take a finite scalar, meaning that value times the
    identity, or a finite 9x9 matrix, of which the symmetric part is kept.
    Measurement noise must be positive definite, the process noise and the
    initial covariance positive semidefinite.  The residual scheme
    estimates process noise from the first sensor.
    Call :meth:`initialize` once, then feed events in time order through
    :meth:`process`.  After each event, :attr:`state` is the nominal state,
    :attr:`covariance` the error covariance and :meth:`measurement_noise`
    a sensor's current noise.  The engine never changes a ``NominalState``
    or a noise matrix it has handed out; it replaces them, so a caller may
    keep the ones it read.
    """

    def __init__(self, config: EngineConfig,
                 sensor_noise: dict[str, Union[float, np.ndarray]]) -> None:
        if config.variant not in VARIANTS:
            raise ValueError(
                f"unknown filter variant '{config.variant}'; expected one of {VARIANTS}")
        if config.sigma_mode not in SIGMA_MODES:
            raise ValueError(
                f"unknown sigma_mode '{config.sigma_mode}'; expected one of {SIGMA_MODES}")
        # Each check is written so that NaN fails it.  A kernel size whose
        # square underflows to 0 would make 0/0 weights of a zero innovation.
        static, low = config.sigma_static, config.sigma_min
        if not (0.0 < static < math.inf and static * static > 0.0):
            raise ValueError(f"sigma_static must be positive and finite, sigma_static ** 2 > 0, "
                             f"got {static}")
        if not (0.0 < low < config.sigma_max and low * low > 0.0):
            raise ValueError("sigma_min and sigma_max must satisfy 0 < sigma_min < sigma_max, "
                             f"sigma_min ** 2 > 0, got {low} and {config.sigma_max}")
        if not sensor_noise:
            raise ValueError("at least one odometry sensor is required")
        self.config = config
        self._uses_kernel = config.variant in KERNEL_VARIANTS
        self.process_noise = _as_covariance(config.process_noise, "process noise")
        self._noise: dict[str, np.ndarray] = {
            sensor_id: _as_covariance(noise, f"noise of sensor '{sensor_id}'", definite=True)
            for sensor_id, noise in sensor_noise.items()}
        self._bandwidth = BandwidthState(
            adaptive=config.sigma_mode == "adaptive",
            sigma_static=config.sigma_static, sigma_min=config.sigma_min,
            sigma_max=config.sigma_max)

        # One noise adapter serves all sensors; ekf and mcckf adapt nothing.
        self._adapter: Optional[Union[VbNoiseAdapter, ResidualNoiseAdapter]] = None
        if config.variant in ("akf", "vb-amcckf"):
            self._adapter = VbNoiseAdapter(STATE_DIM, config.window, config.forgetting)
        elif config.variant == "r-amcckf":
            self._adapter = ResidualNoiseAdapter(self._noise, window=config.window,
                                                 smoothing=config.smoothing)

        # _nominal.time is the engine's one clock: every dt is measured from it.
        self._nominal: Optional[NominalState] = None
        # The error covariance P; the error mean is zero between events.
        self._cov: Optional[np.ndarray] = None
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
        """The error covariance P, exactly symmetric; not a copy."""
        assert self._cov is not None, "engine not initialized"
        return self._cov

    def measurement_noise(self, sensor_id: str) -> np.ndarray:
        return self._noise[sensor_id]

    def sensor_ids(self) -> list[str]:
        return list(self._noise)

    # -- lifecycle -------------------------------------------------------

    def initialize(self, state: NominalState,
                   cov: Union[float, np.ndarray] = 1e-4) -> None:
        """Start at ``state`` with initial covariance ``cov`` (see the class docstring).

        Raises ValueError, and stays uninitialized, if a field of ``state`` is not finite.
        """
        if not np.isfinite(np.hstack(astuple(state))).all():
            raise ValueError("initial state must be finite")
        self._cov = _as_covariance(cov, "initial covariance")
        self._nominal = state.copy()

    def process(self, event: Event) -> Optional[InnovationRecord]:
        """Advance the filter by one event.

        Returns the ``InnovationRecord`` of the correction an odometry event
        fused, the very record the noise adapter received; its
        ``bandwidth`` holds the kernel sizes for kernel variants and is None
        for ekf and akf.  Returns None for an IMU sample and for an event
        that was dropped or refused (see ``dropped``).
        """
        if self._cov is None or self._nominal is None:
            raise RuntimeError("call initialize() before processing events")
        if isinstance(event, ImuSample):
            return self._handle_imu(event)
        if isinstance(event, OdometrySample):
            return self._handle_odometry(event)
        raise TypeError(f"unsupported event type {type(event)!r}")

    # -- internals -------------------------------------------------------

    def _advance(self, dt: float, imu: ImuSample, period: Optional[float]) -> None:
        scale = dt / period if period else 1.0
        nominal, trans = _imu_step(self._nominal, imu, dt)
        self._cov = predict(self._cov, trans, self.process_noise * scale)
        self._nominal = nominal
        if self._adapter is not None:
            self._adapter.advance(trans, scale)

    def _accept(self, event: Event, values: tuple[np.ndarray, ...]) -> Optional[float]:
        """Gap from the clock to an event, or None after counting and dropping it.

        A lag within TIME_TOLERANCE gives a gap of zero: the clock never goes back.
        """
        finite = math.isfinite(event.time)
        for array in values:
            finite = finite and all(map(math.isfinite, array.tolist()))
        if not finite:
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
            # gap to whatever event came last.  A lost sample doubles a gap,
            # so a gap under 3/4 of the period replaces a period it inflated.
            # A sample that predict refuses leaves the period as it was.
            period = self._imu_period
            if self._last_imu is not None:
                gap = sample.time - self._last_imu.time
                if period is None or gap < 0.75 * period:
                    period = gap
            self._advance(dt, sample, period)
            self._imu_period = period
        self._last_imu = sample
        return None

    def _handle_odometry(self, sample: OdometrySample) -> Optional[InnovationRecord]:
        if sample.sensor_id not in self._noise:
            raise ValueError(f"unknown sensor id '{sample.sensor_id}'")
        dt = self._accept(sample, (sample.position, sample.orientation, sample.velocity))
        if dt is None:
            return None
        if dt > 0.0:
            if self._last_imu is not None:
                self._advance(dt, self._last_imu, self._imu_period)
            else:
                # No inertial data yet: slide the clock without propagation.
                self._nominal = replace(self._nominal, time=sample.time)

        sensor_id = sample.sensor_id
        noise = self._noise[sensor_id]
        norm = math.sqrt(sample.orientation.dot(sample.orientation))
        if abs(norm - 1.0) > QUAT_NORM_TOLERANCE:
            return self._reject(sample, MeasurementRejected(f"quaternion norm {norm:.6g}, not 1"))
        y, obs_jac = observation_residual(self._nominal, sample)
        # A refused correction leaves the state, covariance and adapter as they were.
        try:
            if self._uses_kernel:
                sigma = self._bandwidth.update(y, noise, obs_jac, self._cov)
                delta, record = mcckf_update(self._cov, y, obs_jac, noise, sigma, sensor_id)
            else:
                delta, record = kf_update(self._cov, y, obs_jac, noise, sensor_id)
        except MeasurementRejected as exc:
            return self._reject(sample, exc)
        try:
            self._nominal = inject_and_reset(self._nominal, delta)
        except ValueError as exc:
            return self._reject(sample, exc)
        # The very object: the VB window tells a same-instant correction by
        # its cov_pred being the previous correction's cov_post.
        self._cov = record.cov_post
        if self._adapter is not None:
            self._adapter.correct(sensor_id, record, delta)
            self._refresh_noise()
        return record

    def _reject(self, sample: OdometrySample, exc: Exception) -> None:
        self.dropped["rejected"] += 1
        log.warning("rejected odometry from '%s' at t=%.6f: %s",
                    sample.sensor_id, sample.time, exc)

    def _refresh_noise(self) -> None:
        try:
            q_step, noise_by_sensor = self._adapter.refresh()
        except AdaptationNotReady:
            return
        self._noise.update(noise_by_sensor)
        if self.config.adapt_q and q_step is not None:
            self.process_noise = q_step
