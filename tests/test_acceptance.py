"""End-to-end acceptance checklist.

Each test exercises one externally meaningful guarantee of the package at
its stated tolerance and prints a single PASS/FAIL line with the measured
figure, so a full run doubles as a release report.  Scenario-based checks
are seeded and deterministic; timing checks measure wall time directly.
"""

import time

import numpy as np
import pytest

from corfuse.adapt_residual import ResidualNoiseAdapter, check_identity_gamma
from corfuse.adapt_vb import (SmootherWindow, VbNoiseAdapter, WindowSnapshot,
                              backward_smooth, window_statistics)
from corfuse.errors import AdaptationNotReady
from corfuse.eskf import (EngineConfig, FusionEngine, ImuSample, NominalState,
                          OdometrySample, propagate_nominal, error_transition)
from corfuse.experiments import RunConfig, run_experiment
from corfuse.filter_core import CorrentropyWeights, kf_update, mcckf_update
from corfuse.kernel_bandwidth import adapt_bandwidth
from corfuse.sim import (NoiseSpec, ScenarioSpec, SensorSpec, generate_truth,
                         sample_sensors)
from corfuse.so3 import quat_from_rotvec, quat_multiply, quat_normalize


def report(name: str, passed: bool, detail: str) -> None:
    line = f"[acceptance] {name}: {'PASS' if passed else 'FAIL'} ({detail})"
    print(line)
    assert passed, line


def random_spd(rng, n, scale=1.0):
    a = rng.standard_normal((n, n))
    return a @ a.T + scale * n * np.eye(n)


# ---------------------------------------------------------------------------
# 1. huge static bandwidth reduces the weighted filter to the plain one


def test_acceptance_01_gaussian_equivalence_at_huge_bandwidth():
    def config(variant):
        return RunConfig(filter=variant, scenario="hover", duration=15.0,
                         seed=5, sigma_mode="static", sigma_static=1e6,
                         adapt_q=False)

    start = time.perf_counter()
    plain = run_experiment(config("ekf"))
    weighted = run_experiment(config("mcckf"))
    elapsed = time.perf_counter() - start

    a = np.asarray(weighted.estimates)
    b = np.asarray(plain.estimates)
    steps = a.shape[0]
    rel = np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1.0)
    ok = rel < 1e-9 and steps >= 1000 and elapsed < 1.0
    report("gaussian-equivalence", ok,
           f"max rel deviation {rel:.2e} over {steps} steps in {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 2. robustness to heavy measurement jumps


def test_acceptance_02_jump_robustness_beats_plain_and_adaptive_filters():
    start = time.perf_counter()
    failures = []
    details = []
    for seed in (1, 2, 3):
        rmse = {}
        for variant in ("ekf", "akf", "vb-amcckf", "r-amcckf"):
            result = run_experiment(RunConfig(
                filter=variant, scenario="hover", duration=15.0, seed=seed,
                jump_probability=0.05, jump_magnitude=50.0))
            rmse[variant] = result.metrics.rmse_position_total
        for robust in ("vb-amcckf", "r-amcckf"):
            if not (rmse[robust] <= 0.5 * rmse["akf"]
                    and rmse[robust] <= 0.5 * rmse["ekf"]):
                failures.append((seed, robust, rmse))
        details.append(f"seed {seed}: " + ", ".join(
            f"{v}={rmse[v]:.3f}" for v in rmse))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 30.0
    report("jump-robustness", ok,
           "; ".join(details) + f"; {elapsed:.1f}s" +
           (f"; failures={failures}" if failures else ""))


# ---------------------------------------------------------------------------
# 3. per-sensor noise inflation isolates a diverging sensor


def test_acceptance_03_faulty_sensor_noise_inflates_healthy_stays():
    result = run_experiment(RunConfig(
        filter="vb-amcckf", scenario="hover", duration=30.0, seed=3,
        drift_rate=0.1, drift_start=10.0, drift_duration=10.0,
        faulty_sensor="odom1"))
    metrics = result.metrics

    def trace_stats(sensor):
        times = np.asarray(metrics.correction_times[sensor])
        traces = np.asarray(metrics.r_trace[sensor])
        pre = traces[(times >= 8.0) & (times < 10.0)].mean()
        episode = traces[(times >= 10.0) & (times < 22.0)].max()
        whole = traces[times >= 8.0].max()
        return pre, episode, whole

    pre_f, episode_f, _ = trace_stats("odom1")
    pre_h, _, whole_h = trace_stats("odom0")
    faulty_ratio = episode_f / pre_f
    healthy_ratio = whole_h / pre_h
    ok = faulty_ratio >= 5.0 and healthy_ratio <= 2.0
    report("faulty-sensor-isolation", ok,
           f"faulty trace grew {faulty_ratio:.1f}x, healthy {healthy_ratio:.2f}x")


# ---------------------------------------------------------------------------
# 4. measurement-noise identification from a 400x underestimate


def _run_scalar_identification(scheme: str, seed: int, steps: int = 2000):
    """Closed-loop scalar filter with the given noise-adaptation scheme.

    The process noise is held at its true value: jointly identifying Q and
    R on a scalar random walk is ill-posed (the schemes can trade one for
    the other), and this check targets the measurement side.
    """
    rng = np.random.default_rng(seed)
    q_true, r_true = 0.1, 4.0
    x, m, p = 0.0, 0.0, 1.0
    r_hat = 0.01
    if scheme == "vb":
        adapter = VbNoiseAdapter(state_dim=1, obs_dim=1, window=10,
                                 forgetting=0.97)
    else:
        adapter = ResidualNoiseAdapter(["z"], window=10)
    history = []
    for k in range(steps):
        x += rng.normal(0.0, np.sqrt(q_true))
        m_prior, p_prior = m, p + q_true
        z = np.array([x + rng.normal(0.0, np.sqrt(r_true))])
        delta, record = kf_update(np.array([[p_prior]]), z - m_prior, np.eye(1),
                                  np.array([[r_hat]]), sensor_id="z")
        m, p = m_prior + float(delta[0]), float(record.cov_post[0, 0])
        if scheme == "vb":
            adapter.push(WindowSnapshot(record=record, delta=delta, transition=np.eye(1),
                                        steps=1.0, sensor_id="z"))
            try:
                _, by_sensor = adapter.refresh()
                r_hat = float(by_sensor["z"][0, 0])
            except AdaptationNotReady:
                pass
        else:
            adapter.push("z", record)
            _, by_sensor = adapter.refresh()
            r_hat = float(by_sensor["z"][0, 0])
        history.append(r_hat)
    return float(np.mean(history[-200:]))


def test_acceptance_04_scalar_noise_identification_converges():
    seeds = (0, 1, 2, 3, 4)
    summary = []
    ok = True
    for scheme in ("vb", "residual"):
        finals = [_run_scalar_identification(scheme, seed) for seed in seeds]
        passes = sum(1 for value in finals if 3.2 <= value <= 4.8)
        ok = ok and passes >= 4
        summary.append(f"{scheme}: {passes}/5 in band, "
                       + "/".join(f"{v:.2f}" for v in finals))
    report("noise-identification", ok, "; ".join(summary))


# ---------------------------------------------------------------------------
# 5. degrees-of-freedom recursion reaches its analytic fixed point


def test_acceptance_05_dof_recursion_fixed_point():
    # 11 snapshots one predict step apart: every refresh covers 10 transitions.
    adapter = VbNoiseAdapter(state_dim=1, obs_dim=1, window=10, forgetting=0.97)
    cov = np.eye(1)
    for k in range(11):
        if k:
            adapter.advance(np.eye(1), 1.0)
        delta, record = kf_update(cov, np.array([0.1 * k]), np.eye(1),
                                  np.eye(1), sensor_id="z")
        adapter.correct("z", record, delta)
        cov = record.cov_post + 0.1
    for _ in range(500):
        adapter.refresh()
    deviation = abs(adapter.t - 333.33)
    ok = deviation <= 0.01
    report("dof-fixed-point", ok,
           f"t = {adapter.t:.5f} after 500 updates, |t - 333.33| = {deviation:.5f}")


# ---------------------------------------------------------------------------
# 6. bandwidth positivity and monotone response to innovation growth


def test_acceptance_06_bandwidth_positive_and_monotone():
    rng = np.random.default_rng(60)
    min_sigma = np.inf
    total_inputs = 0
    while total_inputs < 100_000:
        m = int(rng.integers(1, 10))
        scale = 10.0 ** rng.uniform(-4, 4)
        y = scale * rng.standard_normal(m)
        noise = random_spd(rng, m, scale=scale)
        h = rng.standard_normal((m, m))
        cov = random_spd(rng, m)
        sigma = adapt_bandwidth(y, noise, h, cov)
        min_sigma = min(min_sigma, float(np.min(sigma)))
        total_inputs += m
    positive_ok = min_sigma > 0.0

    violations = 0
    for _ in range(1000):
        m = int(rng.integers(1, 7))
        direction = rng.standard_normal(m)
        noise = random_spd(rng, m)
        h = rng.standard_normal((m, m))
        cov = random_spd(rng, m)
        magnitudes = np.linspace(0.0, 50.0, 32)
        sweep = np.stack([adapt_bandwidth(mag * direction, noise, h, cov)
                          for mag in magnitudes])
        if np.any(np.diff(sweep, axis=0) > 1e-15):
            violations += 1
    monotone_ok = violations == 0
    report("bandwidth-positivity-monotonicity", positive_ok and monotone_ok,
           f"{total_inputs} inputs, min sigma {min_sigma:.3e}; "
           f"{violations}/1000 sweeps violated monotonicity")


# ---------------------------------------------------------------------------
# 7. innovation/residual identity at the optimal gain


def test_acceptance_07_innovation_residual_identity():
    rng = np.random.default_rng(70)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 5))
        mean, cov = rng.standard_normal(n), random_spd(rng, n)
        h = rng.standard_normal((m, n))
        noise = random_spd(rng, m, scale=0.5)
        z = h @ mean + rng.standard_normal(m)
        _, record = kf_update(cov, z - h @ mean, h, noise, sensor_id="fuzz")
        worst = max(worst, check_identity_gamma(record, noise))
    ok = worst < 1e-8
    report("gain-identity", ok,
           f"max |Gamma^-1 y - R^-1 r| = {worst:.2e} over 1000 updates")


# ---------------------------------------------------------------------------
# 8. numerical hygiene: PSD posteriors, quaternion norm, transition Jacobian


def test_acceptance_08_numerical_hygiene():
    rng = np.random.default_rng(80)
    min_eig = np.inf
    for _ in range(2000):
        n = int(rng.integers(1, 13))
        m = int(rng.integers(1, 10))
        scale = 10.0 ** rng.uniform(-4, 4)
        mean, cov = rng.standard_normal(n), scale * random_spd(rng, n)
        h = rng.standard_normal((m, n))
        noise = scale * random_spd(rng, m, scale=0.5)
        bandwidth = 10.0 ** rng.uniform(-2, 6, size=m)
        z = h @ mean + scale * rng.standard_normal(m)
        _, record = mcckf_update(cov, z - h @ mean, h, noise, bandwidth, sensor_id="fuzz")
        posterior_cov = record.cov_post
        eig = float(np.min(np.linalg.eigvalsh(posterior_cov))
                    / max(np.max(np.abs(posterior_cov)), 1.0))
        min_eig = min(min_eig, eig)
    # covariances from a full adaptive run with heavy jumps
    result = run_experiment(RunConfig(
        filter="vb-amcckf", scenario="hover", duration=10.0, seed=8,
        jump_probability=0.05, jump_magnitude=50.0))
    run_eigs = [float(np.min(np.linalg.eigvalsh(np.asarray(row[11:20]) * np.eye(9))))
                for row in result.estimates]
    min_eig = min(min_eig, min(run_eigs))
    psd_ok = min_eig >= -1e-9

    state = NominalState(np.zeros(3), np.zeros(3),
                         np.array([1.0, 0.0, 0.0, 0.0]), 0.0)
    worst_norm = 0.0
    for k in range(10_000):
        imu = ImuSample(rng.standard_normal(3), 0.3 * rng.standard_normal(3),
                        k * 0.01)
        state = propagate_nominal(state, imu, 0.01)
        worst_norm = max(worst_norm,
                         abs(float(np.linalg.norm(state.orientation)) - 1.0))
    quat_ok = worst_norm < 1e-9

    def apply_error(base, delta):
        return NominalState(
            base.position + delta[0:3], base.velocity + delta[3:6],
            quat_normalize(quat_multiply(base.orientation,
                                         quat_from_rotvec(delta[6:9]))),
            base.time)

    from corfuse.so3 import quat_conjugate, quat_to_rotvec

    def extract_error(nominal, true_state):
        q_rel = quat_multiply(quat_conjugate(nominal.orientation),
                              true_state.orientation)
        return np.concatenate([true_state.position - nominal.position,
                               true_state.velocity - nominal.velocity,
                               quat_to_rotvec(q_rel)])

    fd_worst = 0.0
    dt, eps = 0.01, 1e-5
    for _ in range(10):
        base = NominalState(rng.standard_normal(3), rng.standard_normal(3),
                            quat_normalize(rng.standard_normal(4)), 0.0)
        imu = ImuSample(3.0 * rng.standard_normal(3), rng.standard_normal(3), 0.0)
        model = error_transition(base, imu, dt)
        nominal_next = propagate_nominal(base, imu, dt)
        numeric = np.zeros((9, 9))
        for j in range(9):
            step = np.zeros(9)
            step[j] = eps
            plus = propagate_nominal(apply_error(base, step), imu, dt)
            minus = propagate_nominal(apply_error(base, -step), imu, dt)
            numeric[:, j] = (extract_error(nominal_next, plus)
                             - extract_error(nominal_next, minus)) / (2 * eps)
        fd_worst = max(fd_worst, float(np.max(np.abs(numeric - model))))
    fd_ok = fd_worst < 1e-6

    report("numerical-hygiene", psd_ok and quat_ok and fd_ok,
           f"min scaled eig {min_eig:.2e}, quat norm drift {worst_norm:.2e}"
           f"/1e4 steps, transition FD error {fd_worst:.2e}")


# ---------------------------------------------------------------------------
# 9. compute cost: the smoothing scheme costs more, and linearly in window


def _correction_cost(variant, window, events, sensor_ids, init_state):
    config = EngineConfig(variant=variant, window=window)
    engine = FusionEngine(config, {sid: 0.01 for sid in sensor_ids})
    engine.initialize(init_state, 1e-4)
    times = []
    for event in events:
        if isinstance(event, OdometrySample):
            start = time.perf_counter_ns()
            engine.process(event)
            times.append(time.perf_counter_ns() - start)
        else:
            engine.process(event)
    return float(np.mean(times))


def test_acceptance_09_compute_cost_ordering_and_window_scaling():
    spec = ScenarioSpec(kind="hover", duration=10.0, sensors=[
        SensorSpec("odom0", rate=10.0, noise=NoiseSpec(gaussian_std=0.02)),
        SensorSpec("odom1", rate=10.0, noise=NoiseSpec(gaussian_std=0.02)),
    ])
    truth = generate_truth(spec)
    events = sample_sensors(truth, spec)
    ids = ["odom0", "odom1"]
    init = truth.state(0)

    # warm-up pass for both variants (allocator, caches, JIT-free but fair)
    _correction_cost("vb-amcckf", 10, events, ids, init)
    _correction_cost("r-amcckf", 10, events, ids, init)

    pairs = []
    ordering_ok = True
    for _ in range(3):
        cost_vb = _correction_cost("vb-amcckf", 10, events, ids, init)
        cost_r = _correction_cost("r-amcckf", 10, events, ids, init)
        pairs.append((cost_vb, cost_r))
        ordering_ok = ordering_ok and cost_vb > cost_r

    windows = [5, 10, 20]
    costs = []
    for window in windows:
        reps = [_correction_cost("vb-amcckf", window, events, ids, init)
                for _ in range(2)]
        costs.append(min(reps))
    x = np.asarray(windows, dtype=float)
    y = np.asarray(costs)
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r_squared = 1.0 - ss_res / ss_tot
    linear_ok = r_squared > 0.9 and slope > 0.0

    pair_text = ", ".join(f"{a / 1e3:.0f}us>{b / 1e3:.0f}us" for a, b in pairs)
    report("compute-cost", ordering_ok and linear_ok,
           f"vb vs residual per correction: {pair_text}; "
           f"window costs {[f'{c / 1e3:.0f}us' for c in costs]}, R^2 {r_squared:.3f}")


# ---------------------------------------------------------------------------
# 10. unit kernel weights reduce both schemes to their classical forms


def test_acceptance_10_unit_weight_reductions_are_exact():
    rng = np.random.default_rng(100)
    m, n = 2, 2

    # residual scheme vs a classical windowed residual estimator, bitwise
    library = ResidualNoiseAdapter(["z"], window=10)
    classical: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    estimate, cov = np.zeros(n), np.eye(n)
    h = rng.standard_normal((m, n))
    noise = random_spd(rng, m, scale=0.5)
    bitwise_ok = True
    for k in range(30):
        z = h @ estimate + rng.standard_normal(m)
        delta, record = kf_update(cov, z - h @ estimate, h, noise, sensor_id="z")
        estimate, cov = estimate + delta, record.cov_post + 0.05 * np.eye(n)
        assert np.all(record.weights.weighted == 1.0)
        library.push("z", record)
        classical.append((record.residual, record.obs_jacobian, record.cov_post))
        if len(classical) >= 3:
            window_slice = classical[-10:]
            total = np.outer(window_slice[0][0], window_slice[0][0])
            for res, _, _ in window_slice[1:]:
                total = total + np.outer(res, res)
            mean = total / len(window_slice)
            h_last, p_last = window_slice[-1][1], window_slice[-1][2]
            est = mean + h_last @ p_last @ h_last.T
            est = (est + est.T) / 2.0
            diag = np.diag(est).copy()
            est[np.diag_indices_from(est)] = np.maximum(diag, 1e-12)
            ours = library.refresh()[1]["z"]
            bitwise_ok = bitwise_ok and np.array_equal(ours, est)

    # smoothing scheme's measurement statistic vs the unweighted original
    window = SmootherWindow(length=12)
    x, mm, p = 0.0, 0.0, 1.0
    q_true, r_true = 0.3, 0.8
    for k in range(12):
        x += rng.normal(0.0, np.sqrt(q_true))
        m_prior, p_prior = mm, p + q_true
        z = np.array([x + rng.normal(0.0, np.sqrt(r_true))])
        delta, record = kf_update(np.array([[p_prior]]), z - m_prior, np.eye(1),
                                  np.array([[r_true]]), sensor_id="z")
        mm, p = m_prior + float(delta[0]), float(record.cov_post[0, 0])
        window.push(WindowSnapshot(record=record, delta=delta, transition=np.eye(1),
                                   steps=1.0, sensor_id="z"))
    corrections, covs = backward_smooth(window)
    ours_sum, count = window_statistics(window, corrections, covs)[2]["z"]
    total = np.zeros((1, 1))
    for j, snap in enumerate(window.snapshots):
        h_j = snap.record.obs_jacobian
        re_anchored = snap.record.residual - h_j @ corrections[j]
        total += (np.outer(re_anchored, re_anchored)
                  + h_j @ covs[j] @ h_j.T)
    total = (total + total.T) / 2.0
    stat_ok = np.array_equal(ours_sum, total) and count == len(window)

    report("unit-weight-reduction", bitwise_ok and stat_ok,
           f"windowed estimator bitwise equal: {bitwise_ok}; "
           f"smoothed statistic exact: {stat_ok}")
