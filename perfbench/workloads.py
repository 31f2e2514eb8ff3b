"""The benchmark's workloads and the closed loops that drive them.

Every workload is a closed loop in one process: one stream is fed event by
event and the next event goes in only after the previous ``process()``
returns.  A run sets the workload up several times, then fuses whole
passes over the same stream until the measuring time is used up, so every
fused event belongs to a stream whose outputs are checked in full.

The program is driven only through its public entry points:
``sim.generate_truth``, ``sim.sample_sensors``, ``experiments.build_scenario``,
``experiments.build_engine``, ``FusionEngine.initialize``/``process`` and
``cli.main`` for ``simulate`` and ``fuse``.
"""
from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from corfuse import cli, eskf, experiments, sim
from corfuse.eskf import OdometrySample

import calibration
import tracing

SETUPS = 5
SETUP_STEPS = 20


@dataclass(frozen=True)
class Workload:
    """One benchmark input: a scenario, a filter and what counts as correct.

    ``settings`` are ``RunConfig`` fields; ``duration`` is the simulated
    length of one stream in seconds.  A stream whose position or attitude
    RMSE exceeds the ceilings counts as failed.
    """

    name: str
    why: str
    settings: dict
    duration: float
    max_rmse_pos_m: float
    max_rmse_att_rad: float
    replay: bool = False


WORKLOADS = {w.name: w for w in (
    Workload(
        name="vb_outliers",
        why=("correction-heavy: 3 odometry sensors at 20 Hz, one with 30-sigma jumps and "
             "a drift, fused by vb-amcckf whose window re-smoothing dominates"),
        settings=dict(scenario="figure8", filter="vb-amcckf", imu_rate=100.0, sensors=3,
                      odom_rate=20.0, window=20, faulty_sensor="odom2",
                      jump_probability=0.05, jump_magnitude=30.0,
                      drift_rate=0.02, drift_start=10.0, drift_duration=10.0),
        duration=30.0, max_rmse_pos_m=0.1, max_rmse_att_rad=0.05),
    Workload(
        name="imu_dense",
        why=("propagation-heavy: 400 Hz IMU and one clean 5 Hz odometry sensor under mcckf, "
             "so noise adaptation does no work"),
        settings=dict(scenario="waypoints", filter="mcckf", imu_rate=400.0, sensors=1,
                      odom_rate=5.0),
        duration=60.0, max_rmse_pos_m=0.05, max_rmse_att_rad=0.03),
    Workload(
        name="replay_csv",
        why=("batch path: corfuse simulate writes CSV, corfuse fuse reads it, runs "
             "r-amcckf and writes estimates and metrics"),
        settings=dict(scenario="figure8", filter="r-amcckf", sensors=2, odom_rate=10.0,
                      jump_probability=0.02, jump_magnitude=20.0),
        # r-amcckf's process-noise adaptation diverges on about one seed in five
        # of this scenario (position RMSE 0.2-1.3 m against 0.03-0.1 m on the
        # rest), so this ceiling only catches runaway output.  The tighter
        # ceilings of the other two workloads guard the shared filter code.
        duration=60.0, max_rmse_pos_m=10.0, max_rmse_att_rad=1.0, replay=True),
)}


@dataclass
class PassResult:
    """One fused stream: its size, wall time, latencies and check outcome.

    ``odom_ns`` and ``imu_ns`` hold, per event, the CPU time the fusing
    thread spent inside ``process()``.  The program does no I/O or waiting
    there, so this equals the wall duration whenever the thread is not
    preempted; on a shared machine it leaves out the time the thread was
    descheduled, which otherwise dominates the tail.

    ``wall_s`` is the pass's wall time without its calibrations and
    ``nominal_s`` the thread's CPU time over the same stretches.
    ``nominal_s``, ``odom_ns`` and ``imu_ns`` are scaled to the nominal
    machine speed of ``calibration``, and ``step_ns`` is the median time of
    one reference step measured during the pass.
    """

    events: int
    wall_s: float
    nominal_s: float
    step_ns: float
    odom_ns: np.ndarray
    imu_ns: np.ndarray
    failed: int
    rmse: tuple[float, float]
    problems: list[str] = field(default_factory=list)


def attitude_angles(q_est: np.ndarray, q_true: np.ndarray) -> np.ndarray:
    """Angle of conj(q_est) * q_true for rows of [w, x, y, z] quaternions."""
    w_a, v_a = q_est[:, 0], q_est[:, 1:]
    w_b, v_b = q_true[:, 0], q_true[:, 1:]
    scalar = w_a * w_b + np.sum(v_a * v_b, axis=1)
    vector = w_a[:, None] * v_b - w_b[:, None] * v_a - np.cross(v_a, v_b)
    return 2.0 * np.arctan2(np.linalg.norm(vector, axis=1), np.abs(scalar))


def rmse(est_pos: np.ndarray, est_quat: np.ndarray,
         true_pos: np.ndarray, true_quat: np.ndarray) -> tuple[float, float]:
    pos = float(np.sqrt(np.mean(np.sum((est_pos - true_pos) ** 2, axis=1))))
    att = float(np.sqrt(np.mean(attitude_angles(est_quat, true_quat) ** 2)))
    return pos, att


def _stream_checks(workload: Workload, n_odom: int, corrections: int,
                   error: tuple[float, float]) -> list[str]:
    problems = []
    if corrections != n_odom:
        problems.append(f"{corrections} corrections for {n_odom} odometry events")
    if not (error[0] <= workload.max_rmse_pos_m and error[1] <= workload.max_rmse_att_rad):
        problems.append(f"RMSE {error[0]:.4g} m / {error[1]:.4g} rad exceeds the ceiling "
                        f"{workload.max_rmse_pos_m} m / {workload.max_rmse_att_rad} rad")
    return problems


class StreamRunner:
    """Synthesizes a stream in process and fuses it through ``FusionEngine``."""

    def __init__(self, workload: Workload, seed: int) -> None:
        self.workload = workload
        self.config = experiments.RunConfig(seed=seed, duration=workload.duration,
                                            **workload.settings)
        self.config.validate()

    def setup(self) -> None:
        """Synthesis plus engine build and initialization: the timed set-up."""
        scenario = experiments.build_scenario(self.config)
        self.truth = sim.generate_truth(scenario)
        self.events = sim.sample_sensors(self.truth, scenario)
        self.sensor_ids = [s.sensor_id for s in scenario.sensors]
        self._new_engine()

    def _new_engine(self) -> eskf.FusionEngine:
        engine = experiments.build_engine(self.config, self.sensor_ids)
        engine.initialize(self.truth.state(0), self.config.p0)
        return engine

    def prepare_checks(self) -> None:
        is_odom = np.array([isinstance(e, OdometrySample) for e in self.events])
        self.is_odom = is_odom
        self.odom_rows = np.flatnonzero(is_odom)
        grid = [self.truth.index_at(self.events[i].time) for i in self.odom_rows]
        self.true_pos = self.truth.positions[grid]
        self.true_quat = self.truth.orientations[grid]

    def run_pass(self, time_events: bool) -> PassResult:
        """Fuse the stream once; ``time_events`` is moot, the loop times every event."""
        engine = self._new_engine()
        events = self.events
        n = len(events)
        lat = np.empty(n, dtype=np.int64)
        ends = np.empty(n, dtype=np.int64)
        states = np.empty((n, 10))
        raised = np.zeros(n, dtype=bool)
        first_error: Optional[str] = None
        corrections = 0
        process = engine.process
        cpu = time.thread_time_ns
        wall = time.perf_counter_ns
        cal = calibration.Calibrator()
        cal.calibrate()
        for i, event in enumerate(events):
            start = cpu()
            try:
                result = process(event)
            except Exception as exc:  # a failed operation is counted, not fatal
                result = None
                raised[i] = True
                first_error = first_error or repr(exc)
            lat[i] = cpu() - start
            if result is not None:
                corrections += 1
            state = engine.state
            row = states[i]
            row[0:3] = state.position
            row[3:7] = state.orientation
            row[7:10] = state.velocity
            ends[i] = end = wall()
            if end >= cal.due:
                cal.calibrate()
        cal.calibrate()
        wall_s, nominal_s, scale = cal.scale(ends)
        lat = lat * scale

        bad = raised | ~np.all(np.isfinite(states), axis=1)
        dropped = sum(engine.dropped.values())
        problems = []
        if first_error:
            problems.append(f"process() raised {int(raised.sum())} times, first: {first_error}")
        if dropped:
            problems.append(f"{dropped} events dropped")
        if bad.any():
            problems.append(f"{int(bad.sum())} events failed or left a non-finite state")
        odom = states[self.odom_rows]
        error = rmse(odom[:, 0:3], odom[:, 3:7], self.true_pos, self.true_quat)
        stream_problems = _stream_checks(self.workload, len(self.odom_rows), corrections, error)
        failed = n if stream_problems else min(n, int(bad.sum()) + dropped)
        return PassResult(events=n, wall_s=wall_s, nominal_s=nominal_s,
                          step_ns=cal.step_ns(), odom_ns=lat[self.is_odom],
                          imu_ns=lat[~self.is_odom], failed=failed, rmse=error,
                          problems=problems + stream_problems)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class ReplayRunner:
    """Writes the scenario with ``corfuse simulate`` and fuses it with ``corfuse fuse``."""

    def __init__(self, workload: Workload, seed: int, workdir: Path) -> None:
        self.workload = workload
        self.dir = workdir / "replay"
        self.dataset = self.dir / "dataset.csv"
        self.truth_path = self.dir / "truth.csv"
        self.out = self.dir / "fused"
        settings = dict(workload.settings, duration=workload.duration)
        self.filter = settings.pop("filter")
        scenario = settings.pop("scenario")
        self.simulate_argv = ["simulate", "--scenario", scenario, "--seed", str(seed),
                              "--out", str(self.dir)]
        for key, value in settings.items():
            self.simulate_argv += ["--set", f"{key}={value}"]
        self.fuse_argv = ["fuse", "--filter", self.filter, "--seed", str(seed),
                          "--dataset", str(self.dataset), "--truth", str(self.truth_path),
                          "--out", str(self.out)]
        self.setup_digests: Optional[tuple[str, str]] = None
        self.metrics_bytes: Optional[bytes] = None
        self.setup_problems: list[str] = []

    def setup(self) -> None:
        """The in-process ``corfuse simulate`` that writes the two CSV files."""
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(self.simulate_argv)
        if code != 0:
            raise RuntimeError(f"corfuse simulate exited with {code}")

    def prepare_checks(self) -> None:
        digests = (_sha256(self.dataset), _sha256(self.truth_path))
        if self.setup_digests not in (None, digests):
            self.setup_problems.append("corfuse simulate wrote different files for one seed")
        self.setup_digests = digests
        with open(self.dataset, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        times = np.array([float(row[0]) for row in rows])
        is_odom = np.array([row[1] == "odom" for row in rows])
        # fuse starts at the first odometry event, which initializes the state.
        keep = times >= times[is_odom][0]
        self.times = times[keep]
        self.is_odom = is_odom[keep]
        truth = np.loadtxt(self.truth_path, delimiter=",", skiprows=1, ndmin=2)
        dt = truth[1, 0] - truth[0, 0]
        grid = np.rint(self.times[self.is_odom] / dt).astype(int)
        if not np.allclose(truth[grid, 0], self.times[self.is_odom], atol=1e-6):
            raise RuntimeError("odometry times are not on the truth grid")
        self.true_pos = truth[grid, 1:4]
        self.true_quat = truth[grid, 4:8]

    def run_pass(self, time_events: bool) -> PassResult:
        lat: list[int] = []
        odom: list[bool] = []
        ends: list[int] = []
        original = eskf.FusionEngine.process
        cpu = time.thread_time_ns
        wall = time.perf_counter_ns
        cal = calibration.Calibrator()

        # ``fuse`` owns its loop, so process() is timed by a thin wrapper.
        def timed_process(engine, event):
            start = cpu()
            try:
                return original(engine, event)
            finally:
                lat.append(cpu() - start)
                odom.append(isinstance(event, OdometrySample))
                ends.append(end := wall())
                if end >= cal.due:
                    cal.calibrate()

        if time_events:
            eskf.FusionEngine.process = timed_process
        failure: Optional[str] = None
        cal.calibrate()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(self.fuse_argv)
            if code != 0:
                failure = f"corfuse fuse exited with {code}"
        except Exception as exc:  # a failed fuse is counted, not fatal
            failure = f"corfuse fuse raised {exc!r}"
        finally:
            eskf.FusionEngine.process = original
            cal.calibrate()
        wall_s, nominal_s, scale = cal.scale(np.array(ends, dtype=np.int64))
        lat_ns = np.array(lat, dtype=np.int64) * scale
        is_odom = np.array(odom, dtype=bool)
        timing = dict(wall_s=wall_s, nominal_s=nominal_s, step_ns=cal.step_ns(),
                      odom_ns=lat_ns[is_odom], imu_ns=lat_ns[~is_odom])
        return self._check(failure, timing)

    def _check(self, failure: Optional[str], timing: dict) -> PassResult:
        n = len(self.times)
        nan = (float("nan"), float("nan"))
        stream_problems = list(self.setup_problems)
        if failure is not None:
            return PassResult(n, failed=n, rmse=nan,
                              problems=stream_problems + [failure], **timing)
        estimates = np.loadtxt(self.out / "estimates.csv", delimiter=",", skiprows=1, ndmin=2)
        if estimates.shape[0] != n:
            return PassResult(n, failed=n, rmse=nan,
                              problems=stream_problems + [f"estimates.csv has "
                                                          f"{estimates.shape[0]} rows for "
                                                          f"{n} events"], **timing)
        metrics_bytes = (self.out / "metrics.json").read_bytes()
        if self.metrics_bytes is None:
            self.metrics_bytes = metrics_bytes
        elif metrics_bytes != self.metrics_bytes:
            stream_problems.append("metrics.json differs between runs of one seed")
        metrics = json.loads(metrics_bytes)

        bad = ~np.all(np.isfinite(estimates), axis=1)
        dropped = sum(metrics["dropped"].values())
        problems = []
        if bad.any():
            problems.append(f"{int(bad.sum())} estimates.csv rows are not finite")
        if dropped:
            problems.append(f"{dropped} events dropped")
        odom = estimates[self.is_odom]
        error = rmse(odom[:, 1:4], odom[:, 4:8], self.true_pos, self.true_quat)
        stream_problems += _stream_checks(self.workload, int(self.is_odom.sum()),
                                          metrics["correction_count"], error)
        failed = n if stream_problems else min(n, int(bad.sum()) + dropped)
        return PassResult(n, failed=failed, rmse=error,
                          problems=problems + stream_problems, **timing)


@dataclass
class RunResult:
    """Everything one benchmark run measured and checked."""

    setup_s: list[float] = field(default_factory=list)
    setup_wall_s: list[float] = field(default_factory=list)
    passes: list[PassResult] = field(default_factory=list)
    traced: list[bool] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return sum(p.events for p in self.passes)

    @property
    def failed(self) -> int:
        return sum(p.failed for p in self.passes)


def run(workload: Workload, seed: int, seconds: float, workdir: Path,
        tracer: Optional[tracing.Tracer] = None) -> RunResult:
    """Set the workload up ``SETUPS`` times, then fuse passes for ``seconds``.

    A set-up is timed on the thread's CPU clock and scaled to nominal
    machine speed by reference steps timed just before and just after it.
    Its wall time is kept too, but it swings with the time the thread
    spends off the CPU (up to 0.9 s on a 1.5 s set-up of ``imu_dense``),
    which the CPU clock leaves out.

    Without a tracer every pass is untraced.  With one, set-ups are traced
    and passes alternate untraced and traced, at least one of each, so the
    two throughputs give the tracing overhead.  All passes must give
    bitwise-identical RMSE: the estimates are deterministic for a seed and
    tracing must not change them.
    """
    runner = (ReplayRunner(workload, seed, workdir) if workload.replay
              else StreamRunner(workload, seed))
    result = RunResult()
    stream = 0
    cal = calibration.Calibrator()
    for _ in range(SETUPS):
        before = cal.calibrate(SETUP_STEPS)
        if tracer is not None:
            tracer.begin(stream, tracing.SETUP)
            tracer.install()
        try:
            start, start_cpu = time.perf_counter(), time.thread_time()
            runner.setup()
            took, took_cpu = time.perf_counter() - start, time.thread_time() - start_cpu
        finally:
            if tracer is not None:
                tracer.uninstall()
        after = cal.calibrate(SETUP_STEPS)
        result.setup_wall_s.append(took)
        result.setup_s.append(took_cpu * calibration.NOMINAL_STEP_NS / (0.5 * (before + after)))
        runner.prepare_checks()
        stream += 1

    deadline = time.perf_counter() + seconds
    while True:
        traced = tracer is not None and len(result.passes) % 2 == 1
        if traced:
            tracer.begin(stream, tracing.PASS)
            tracer.install()
        try:
            outcome = runner.run_pass(time_events=not traced)
        finally:
            if traced:
                tracer.uninstall()
        stream += 1
        if result.passes and outcome.rmse != result.passes[0].rmse:
            outcome.problems.append("estimates differ between passes over one stream")
            outcome.failed = outcome.events
        result.passes.append(outcome)
        result.traced.append(traced)
        for problem in outcome.problems:
            if problem not in result.problems:
                result.problems.append(problem)
        enough = tracer is None or len(result.passes) >= 2
        if enough and time.perf_counter() >= deadline:
            return result
