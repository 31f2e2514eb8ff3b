"""Experiment configuration, execution, metrics, and benchmarking."""
from __future__ import annotations

import dataclasses
import json
import math
import time as _time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from . import dataset as dataset_io
from .adapt_vb import MAX_WINDOW
from .errors import ConfigError, DataError
from .eskf import (
    KERNEL_VARIANTS,
    EngineConfig,
    Event,
    FusionEngine,
    NominalState,
    OdometrySample,
    filter_setting_problems,
)
from .linalg import spd_solve
from .sim import (TRAJECTORIES, NoiseSpec, ScenarioSpec, SensorSpec, TruthTrajectory,
                  generate_truth, imu_grid_problems, sample_sensors)
from .so3 import quat_relative_floats, quat_to_rotvec


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
        problems = filter_setting_problems(self.filter, self.sigma_mode, self.sigma_static,
                                           self.sigma_min, self.sigma_max)
        if not 1 <= self.window <= MAX_WINDOW:
            problems.append(f"window must lie in [1, {MAX_WINDOW}], got {self.window}")
        if not 0.9 <= self.rho <= 1.0:
            problems.append(f"rho must lie in [0.9, 1.0], got {self.rho}")
        if not 0.0 < self.beta <= 1.0:
            problems.append(f"beta must lie in (0, 1], got {self.beta}")
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
            else:
                problems.extend(imu_grid_problems(self.duration, self.imu_rate))
                if self.odom_rate > self.imu_rate:
                    problems.append(f"odom_rate {self.odom_rate} must not exceed imu_rate "
                                    f"{self.imu_rate}: odometry lands on the IMU grid")
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
                if not 0.0 <= getattr(self, name) < math.inf:
                    problems.append(f"{name} must be non-negative and finite, "
                                    f"got {getattr(self, name)}")
            # The orientation noise is a rotation vector of three normal draws
            # (each under 14 in size) times noise_std, whose norm is taken
            # through its square: past about 5e152 that square can overflow.
            if 1e150 < self.noise_std < math.inf:
                problems.append(f"noise_std must be at most 1e+150, got {self.noise_std}")
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
    metrics: MetricsReport
    estimates: list[list[float]]
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
    return quat_to_rotvec(np.array(quat_relative_floats(q_est.tolist(), q_true.tolist())))


def _rmse(errors: list[np.ndarray]) -> tuple[list[float], float]:
    """Per-axis and total RMSE of a list of error vectors."""
    squared = np.asarray(errors) ** 2
    return (list(np.sqrt(np.mean(squared, axis=0))),
            float(np.sqrt(np.mean(np.sum(squared, axis=1)))))


def load_stream(config: RunConfig) -> tuple[list[Event], Optional[TruthTrajectory],
                                            list[str], NominalState]:
    """Validate ``config`` and load its stream: ``(events, truth, sensor_ids, init_state)``.

    In scenario mode the stream is synthesized (deterministically from the
    seed) and starts from the truth's first state; in dataset mode it is read
    from disk, with ground truth optional, and starts at the first odometry
    event with finite values.
    """
    config.validate()
    if config.scenario is not None:
        scenario = build_scenario(config)
        truth = generate_truth(scenario)
        return (sample_sensors(truth, scenario), truth,
                [s.sensor_id for s in scenario.sensors], truth.state(0))
    events = dataset_io.ingest_dataset(config.dataset)
    truth = dataset_io.read_truth(config.truth) if config.truth else None
    sensor_ids = _collect_sensor_ids(events)
    if not sensor_ids:
        raise DataError("dataset contains no odometry events")
    init_state = _init_from_odometry(events)
    return [e for e in events if e.time >= init_state.time], truth, sensor_ids, init_state


def run_experiment(config: RunConfig) -> ExperimentResult:
    """Fuse the stream ``load_stream`` gives for one configuration and aggregate metrics.

    Output files, when requested, contain no wall-clock data and are
    therefore bitwise reproducible for a fixed configuration.
    """
    events, truth, sensor_ids, init_state = load_stream(config)
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
    pos_err, vel_err, ori_err, nees_vals = [], [], [], []

    for i, event in enumerate(events):
        # Fused events are let go a thousand at a time, so the stream and the
        # estimate rows, which grow as it shrinks, are not held whole at once.
        # Let go one by one, each would be freed inside process(), where the
        # engine drops its last IMU sample.
        if i % 1000 == 0 and i:
            events[i - 1000:i] = [None] * 1000
        record = engine.process(event)

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
        dataset_io.write_table(out_dir / "estimates.csv", dataset_io.ESTIMATE_HEADER, estimates)
        write_json(out_dir / "metrics.json", dataclasses.asdict(metrics))

    return ExperimentResult(metrics=metrics, estimates=estimates, engine=engine)


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
    """Thread CPU time per odometry event across variants and window lengths.

    The stream is loaded once and fused afresh per (variant, window, repeat);
    only the odometry events, the corrections, are timed.  Each repeat goes
    round every (variant, window) cell, so a slow spell of the host falls on
    one repeat of several cells, not on every repeat of one.  Host noise
    only adds time: read a cell as its minimum over the repeats.
    """
    if repeats < 1 or not variants or not windows:
        raise ConfigError(f"bench needs variants, window lengths and repeats >= 1, "
                          f"got {variants}, {windows} and repeats={repeats}")
    subs = [dataclasses.replace(config, filter=variant, window=window, out=None)
            for variant in variants for window in windows]
    for sub in subs:
        sub.validate()
    events, _, sensor_ids, init_state = load_stream(subs[0])
    if not any(isinstance(event, OdometrySample) for event in events):
        raise ConfigError("the stream has no odometry event to time")
    rows = []
    for rep in range(repeats):
        for sub in subs:
            engine = build_engine(sub, sensor_ids)
            engine.initialize(init_state, sub.p0)
            costs = []
            for event in events:
                if isinstance(event, OdometrySample):
                    start = _time.thread_time_ns()
                    engine.process(event)
                    costs.append(_time.thread_time_ns() - start)
                else:
                    engine.process(event)
            rows.append(dict(variant=sub.filter, window=sub.window, repeat=rep,
                             odometry_events=len(costs), mean_ns=float(np.mean(costs)),
                             max_ns=float(max(costs))))
    return rows
