"""Experiment configuration, execution, metrics, and benchmarking."""
from __future__ import annotations

import dataclasses
import json
import math
import time as _time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

import numpy as np

from . import dataset as dataset_io
from .errors import ConfigError, DataError
from .eskf import (
    KERNEL_VARIANTS,
    SIGMA_MODES,
    VARIANTS,
    EngineConfig,
    Event,
    FusionEngine,
    ImuSample,
    NominalState,
    OdometrySample,
)
from .linalg import spd_solve
from .sim import (TRAJECTORIES, NoiseSpec, ScenarioSpec, SensorSpec, TruthTrajectory,
                  generate_truth, sample_sensors)
from .so3 import quat_conjugate, quat_multiply, quat_to_rotvec


@dataclass
class RunConfig:
    """Everything needed to reproduce one fusion run."""

    filter: str = "vb-amcckf"
    window: int = 10
    rho: float = 0.97
    beta: float = 1.0
    sigma_mode: str = "adaptive"
    sigma_static: float = 2.0
    sigma_min: float = 0.5
    sigma_max: float = 1e6
    r0: float = 0.01
    r0_overrides: dict[str, float] = field(default_factory=dict)
    q0: float = 1e-5
    p0: float = 1e-4
    adapt_q: bool = True
    seed: int = 0
    scenario: Optional[str] = None
    dataset: Optional[str] = None
    truth: Optional[str] = None
    out: Optional[str] = None
    # Scenario synthesis knobs (ignored in dataset mode).
    duration: float = 30.0
    imu_rate: float = 100.0
    odom_rate: float = 10.0
    sensors: int = 2
    noise_std: float = 0.02
    imu_accel_std: float = 0.02
    imu_gyro_std: float = 0.002
    jump_probability: float = 0.0
    jump_magnitude: float = 0.0
    jump_duration: int = 1
    drift_rate: float = 0.0
    drift_start: float = 0.0
    drift_duration: float = math.inf
    faulty_sensor: Optional[str] = None

    def validate(self) -> None:
        problems = []
        if self.filter not in VARIANTS:
            problems.append(f"filter must be one of {VARIANTS}, got '{self.filter}'")
        if self.window < 1:
            problems.append(f"window must be >= 1, got {self.window}")
        if not 0.9 <= self.rho <= 1.0:
            problems.append(f"rho must lie in [0.9, 1.0], got {self.rho}")
        if not 0.0 < self.beta <= 1.0:
            problems.append(f"beta must lie in (0, 1], got {self.beta}")
        if self.sigma_mode not in SIGMA_MODES:
            problems.append(f"sigma_mode must be one of {SIGMA_MODES}, got '{self.sigma_mode}'")
        # Each check is written so that NaN fails it.  A kernel size whose
        # square underflows to 0 would make 0/0 weights of a zero innovation.
        if not (0.0 < self.sigma_static < math.inf and self.sigma_static * self.sigma_static > 0.0):
            problems.append("sigma_static must be positive and finite, sigma_static ** 2 > 0")
        if not (0.0 < self.sigma_min < self.sigma_max and self.sigma_min * self.sigma_min > 0.0):
            problems.append("sigma clamps need 0 < sigma_min < sigma_max and sigma_min ** 2 > 0")
        if not all(0.0 < v < math.inf for v in (self.r0, *self.r0_overrides.values())):
            problems.append("initial measurement noise scales must be positive and finite")
        if not 0.0 <= self.q0 < math.inf:
            problems.append(f"q0 must be non-negative and finite, got {self.q0}")
        if not 0.0 < self.p0 < math.inf:
            problems.append(f"p0 must be positive and finite, got {self.p0}")
        if (self.scenario is None) == (self.dataset is None):
            problems.append("exactly one of scenario or dataset must be set")
        if self.truth is not None and self.dataset is None:
            problems.append("truth needs a dataset; a scenario is scored against its own truth")
        if self.scenario is not None and self.scenario not in TRAJECTORIES:
            problems.append(f"scenario must be one of {tuple(TRAJECTORIES)}, got '{self.scenario}'")
        if self.scenario is not None:
            if self.seed < 0:
                problems.append(f"seed must be non-negative, got {self.seed}")
            if not all(0.0 < v < math.inf for v in (self.duration, self.imu_rate,
                                                     self.odom_rate)):
                problems.append("duration and rates must be positive and finite")
            elif self.odom_rate > self.imu_rate:
                problems.append(f"odom_rate {self.odom_rate} must not exceed "
                                f"imu_rate {self.imu_rate}: odometry lands on the IMU grid")
            for name in ("jump_magnitude", "drift_rate", "drift_start"):
                if not math.isfinite(getattr(self, name)):
                    problems.append(f"{name} must be finite, got {getattr(self, name)}")
            if not self.drift_duration >= 0.0:
                problems.append(f"drift_duration must be non-negative, got {self.drift_duration}")
            if not 0.0 <= self.jump_probability <= 1.0:
                problems.append(f"jump_probability must lie in [0, 1], "
                                f"got {self.jump_probability}")
            if self.jump_duration < 1:
                problems.append(f"jump_duration must be >= 1, got {self.jump_duration}")
            for name in ("noise_std", "imu_accel_std", "imu_gyro_std"):
                if not getattr(self, name) >= 0.0:  # NaN fails too
                    problems.append(f"{name} must be non-negative, got {getattr(self, name)}")
            if self.sensors < 1:
                problems.append("at least one odometry sensor is required")
            elif self.faulty_sensor not in (None, *(f"odom{i}" for i in range(self.sensors))):
                problems.append(f"faulty_sensor must name a sensor odom0 to "
                                f"odom{self.sensors - 1}, got '{self.faulty_sensor}'")
        if problems:
            raise ConfigError("; ".join(problems))


def build_scenario(config: RunConfig) -> ScenarioSpec:
    """Expand a run configuration into a concrete scenario."""
    sensors = []
    for i in range(config.sensors):
        sensor_id = f"odom{i}"
        corrupted = config.faulty_sensor is None or config.faulty_sensor == sensor_id
        noise = NoiseSpec(
            gaussian_std=config.noise_std,
            jump_probability=config.jump_probability if corrupted else 0.0,
            jump_magnitude=config.jump_magnitude if corrupted else 0.0,
            jump_duration=config.jump_duration,
            drift_rate=config.drift_rate if corrupted else 0.0,
            drift_start=config.drift_start,
            drift_duration=config.drift_duration,
        )
        sensors.append(SensorSpec(sensor_id=sensor_id, rate=config.odom_rate, noise=noise))
    return ScenarioSpec(
        kind=config.scenario, duration=config.duration, imu_rate=config.imu_rate,
        sensors=sensors, imu_accel_std=config.imu_accel_std,
        imu_gyro_std=config.imu_gyro_std, seed=config.seed)


def build_engine(config: RunConfig, sensor_ids: list[str]) -> FusionEngine:
    engine_config = EngineConfig(
        variant=config.filter,
        process_noise=config.q0 * np.eye(9),
        window=config.window,
        forgetting=config.rho,
        smoothing=config.beta,
        sigma_mode=config.sigma_mode,
        sigma_static=config.sigma_static,
        sigma_min=config.sigma_min,
        sigma_max=config.sigma_max,
        adapt_q=config.adapt_q,
    )
    unknown = sorted(set(config.r0_overrides) - set(sensor_ids))
    if unknown:
        raise ConfigError(f"r0 override for unknown sensor(s): {', '.join(unknown)}")
    noise = {sid: config.r0_overrides.get(sid, config.r0) for sid in sensor_ids}
    return FusionEngine(engine_config, noise)


@dataclass
class MetricsReport:
    """Aggregated accuracy, consistency, and adaptation figures."""

    variant: str
    seed: int
    correction_count: int = 0
    # Corrections at times the truth file has no row for (within 1 us).
    unscored_corrections: int = 0
    rmse_position: Optional[list[float]] = None
    rmse_position_total: Optional[float] = None
    rmse_velocity: Optional[list[float]] = None
    rmse_velocity_total: Optional[float] = None
    rmse_orientation: Optional[list[float]] = None
    rmse_orientation_total: Optional[float] = None
    nees_mean: Optional[float] = None
    correction_times: dict[str, list[float]] = field(default_factory=dict)
    r_trace: dict[str, list[float]] = field(default_factory=dict)
    # Mean inverse kernel bandwidth per correction; empty for ekf and akf,
    # which apply no kernel.
    kb_inverse: dict[str, list[float]] = field(default_factory=dict)
    dropped: dict[str, int] = field(default_factory=dict)


@dataclass
class ExperimentResult:
    config: RunConfig
    metrics: MetricsReport
    estimates: list[list[float]]
    timings_ns: np.ndarray
    engine: FusionEngine


def _init_from_odometry(events: list[Event]) -> NominalState:
    """The state of the first odometry event with finite position, orientation and velocity."""
    for event in events:
        if isinstance(event, OdometrySample) and np.isfinite(
                np.hstack([event.position, event.orientation, event.velocity])).all():
            return NominalState(
                position=np.asarray(event.position, dtype=float).copy(),
                velocity=np.asarray(event.velocity, dtype=float).copy(),
                orientation=np.asarray(event.orientation, dtype=float).copy(),
                time=event.time)
    raise DataError("dataset contains no odometry event with finite values to initialize from")


def _collect_sensor_ids(events: list[Event]) -> list[str]:
    seen: list[str] = []
    for event in events:
        if isinstance(event, OdometrySample) and event.sensor_id not in seen:
            seen.append(event.sensor_id)
    return seen


def _orientation_error(q_est: np.ndarray, q_true: np.ndarray) -> np.ndarray:
    return quat_to_rotvec(quat_multiply(quat_conjugate(q_est), q_true))


def _rmse(errors: list[np.ndarray]) -> tuple[list[float], float]:
    """Per-axis and total RMSE of a list of error vectors."""
    squared = np.asarray(errors) ** 2
    return (list(np.sqrt(np.mean(squared, axis=0))),
            float(np.sqrt(np.mean(np.sum(squared, axis=1)))))


def run_experiment(config: RunConfig) -> ExperimentResult:
    """Run one configuration end to end and aggregate metrics.

    In scenario mode the stream is synthesized (deterministically from the
    seed); in dataset mode it is read from disk, with ground truth optional.
    Output files, when requested, contain no wall-clock data and are
    therefore bitwise reproducible for a fixed configuration.
    """
    config.validate()
    truth: Optional[TruthTrajectory] = None
    if config.scenario is not None:
        scenario = build_scenario(config)
        truth = generate_truth(scenario)
        events = sample_sensors(truth, scenario)
        sensor_ids = [s.sensor_id for s in scenario.sensors]
        init_state = truth.state(0)
    else:
        events = dataset_io.ingest_dataset(config.dataset)
        if config.truth:
            truth = dataset_io.read_truth(config.truth)
        sensor_ids = _collect_sensor_ids(events)
        if not sensor_ids:
            raise DataError("dataset contains no odometry events")
        init_state = _init_from_odometry(events)
        events = [e for e in events if e.time >= init_state.time]

    engine = build_engine(config, sensor_ids)
    engine.initialize(init_state, config.p0)

    metrics = MetricsReport(variant=config.filter, seed=config.seed)
    kernel = config.filter in KERNEL_VARIANTS
    for sid in sensor_ids:
        metrics.correction_times[sid] = []
        metrics.r_trace[sid] = []
        if kernel:
            metrics.kb_inverse[sid] = []

    estimates: list[list[float]] = []
    timings = np.zeros(len(events))
    pos_err, vel_err, ori_err, nees_vals = [], [], [], []

    for i, event in enumerate(events):
        start = _time.perf_counter_ns()
        record = engine.process(event)
        timings[i] = _time.perf_counter_ns() - start

        state = engine.state
        estimates.append([float(state.time)] + state.position.tolist()
                         + state.orientation.tolist() + state.velocity.tolist()
                         + engine.covariance.diagonal().tolist())

        if record is None:
            continue
        sid = event.sensor_id
        metrics.correction_count += 1
        metrics.correction_times[sid].append(state.time)
        metrics.r_trace[sid].append(float(np.trace(engine.measurement_noise(sid))))
        if kernel:
            metrics.kb_inverse[sid].append(float(np.mean(1.0 / record.bandwidth)))

        if truth is not None:
            try:
                idx = truth.index_at(state.time)
            except ValueError:
                metrics.unscored_corrections += 1
                continue
            e_p = truth.positions[idx] - state.position
            e_v = truth.velocities[idx] - state.velocity
            e_q = _orientation_error(state.orientation, truth.orientations[idx])
            pos_err.append(e_p)
            vel_err.append(e_v)
            ori_err.append(e_q)
            e9 = np.concatenate([e_p, e_v, e_q])  # matches the error-state order
            sol, _ = spd_solve(record.cov_post, e9)
            nees_vals.append(float(e9 @ sol))

    if pos_err:
        metrics.rmse_position, metrics.rmse_position_total = _rmse(pos_err)
        metrics.rmse_velocity, metrics.rmse_velocity_total = _rmse(vel_err)
        metrics.rmse_orientation, metrics.rmse_orientation_total = _rmse(ori_err)
        metrics.nees_mean = float(np.mean(nees_vals))

    metrics.dropped = dict(engine.dropped)

    if config.out:
        out_dir = Path(config.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        dataset_io.write_rows(out_dir / "estimates.csv", dataset_io.ESTIMATE_HEADER, estimates)
        write_json(out_dir / "metrics.json", dataclasses.asdict(metrics))

    return ExperimentResult(config=config, metrics=metrics, estimates=estimates,
                            timings_ns=timings, engine=engine)


def write_json(path: Path, data: object) -> None:
    """Write ``data`` as indented, key-sorted JSON ending in a newline."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def compare(config: RunConfig, variants: list[str]) -> dict[str, ExperimentResult]:
    """Run several filter variants on the identical event stream."""
    results: dict[str, ExperimentResult] = {}
    for variant in variants:
        sub = dataclasses.replace(config, filter=variant)
        if config.out:
            sub = dataclasses.replace(sub, out=str(Path(config.out) / variant))
        results[variant] = run_experiment(sub)
    return results


def bench(config: RunConfig, variants: list[str], windows: list[int],
          repeats: int = 1) -> list[dict]:
    """Measure per-event processing time across variants and window lengths."""
    if repeats < 1 or not variants or not windows:
        raise ConfigError(f"bench needs variants, window lengths and repeats >= 1, "
                          f"got {variants}, {windows} and repeats={repeats}")
    rows = []
    for variant in variants:
        for window in windows:
            for rep in range(repeats):
                sub = dataclasses.replace(config, filter=variant, window=window, out=None)
                result = run_experiment(sub)
                rows.append({
                    "variant": variant,
                    "window": window,
                    "repeat": rep,
                    "events": len(result.timings_ns),
                    "mean_ns": float(np.mean(result.timings_ns)),
                    "max_ns": float(np.max(result.timings_ns)),
                })
    return rows
