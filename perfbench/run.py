"""corfuse benchmark: one workload, one seed, end-to-end or per-layer figures.

    python3 perfbench/run.py --workload vb_outliers --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end figures; with ``--trace 1``
they are the per-layer figures of a traced run, and the spans are written
to ``.perfbench/traces/``.  See README.md beside this file.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench"
WORKLOAD_NAMES = ("vb_outliers", "imu_dense", "replay_csv")


def pin_blas() -> None:
    """Fusion runs on one thread; BLAS must not add threads of its own."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def blas_threads() -> dict[str, int]:
    """Thread count reported by each OpenBLAS library loaded in this process."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return {}
    found = {}
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                found[Path(path).name] = int(getter())
                break
    return found


def environment() -> dict:
    import numpy
    import scipy

    def blas_version(module) -> str:
        try:
            return module.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        except (KeyError, TypeError, ValueError):
            return "unknown"

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas_version(numpy),
        "scipy_blas": blas_version(scipy),
        "blas_threads": blas_threads(),
        "machine": platform.machine(),
    }


def end_to_end(result) -> dict[str, tuple[float, str]]:
    """Every time is scaled to nominal machine speed (see calibration.py).
    Rates and percentiles are medians over passes.  A p99 needs ten samples
    beyond it, so where a pass holds fewer than 1000 events of a kind, that
    p99 is taken over all passes pooled instead.  Odometry latency is bimodal
    (see README.md), so its typical value is the mean over the run."""
    import numpy as np

    passes = [p for p, traced in zip(result.passes, result.traced) if not traced]

    def percentile_us(kind, q):
        samples = [getattr(p, kind) for p in passes]
        if q == 50 or min(len(s) for s in samples) >= 1000:
            value = statistics.median(float(np.percentile(s, q)) for s in samples)
        else:
            value = float(np.percentile(np.concatenate(samples), q))
        return value / 1e3, "us"

    odom = np.concatenate([p.odom_ns for p in passes])
    return {
        "events_per_s": (statistics.median(p.events / p.nominal_s for p in passes), "events/s"),
        "odom_latency_mean_us": (float(np.mean(odom)) / 1e3, "us"),
        "odom_latency_p99_us": percentile_us("odom_ns", 99),
        "imu_latency_p50_us": percentile_us("imu_ns", 50),
        "imu_latency_p99_us": percentile_us("imu_ns", 99),
        "setup_s": (statistics.median(result.setup_s), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(result, summary: dict[str, float]) -> dict[str, tuple[float, str]]:
    import tracing

    def calls(key):
        return summary[f"{key}.calls"], "count"

    def self_us(key):
        return summary[f"{key}.self_ns"] / 1e3, "us"

    def self_s(key):
        return summary[f"{key}.self_ns"] / 1e9, "s"

    def count(key, unit="count"):
        return summary[key], unit

    def ratio(num, den):
        return (summary[num] / summary[den] if summary[den] else 0.0), "ratio"

    def rate(traced):
        return statistics.median(p.events / p.nominal_s for p, t in
                                 zip(result.passes, result.traced) if t is traced)

    out = {}
    for layer in tracing.LAYERS:
        out[f"{layer}.calls"] = calls(layer)
        out[f"{layer}.self_us"] = self_us(layer)
    out.update({
        "eskf.process.self_us": self_us("eskf.process"),
        "eskf.propagate_nominal.calls": calls("eskf.propagate_nominal"),
        "eskf.propagate_nominal.self_us": self_us("eskf.propagate_nominal"),
        "eskf.error_transition.self_us": self_us("eskf.error_transition"),
        "eskf.observation_residual.self_us": self_us("eskf.observation_residual"),
        "eskf.inject_and_reset.self_us": self_us("eskf.inject_and_reset"),
        "eskf.dropped": count("eskf.dropped"),
        "filter_core.predict.calls": calls("filter_core.predict"),
        "filter_core.predict.self_us": self_us("filter_core.predict"),
        "filter_core.update.calls": calls("filter_core.update"),
        "filter_core.update.self_us": self_us("filter_core.update"),
        "filter_core.regularized": count("filter_core.regularized"),
        "filter_core.regularized_ratio": ratio("filter_core.regularized",
                                               "filter_core.update.calls"),
        "kernel_bandwidth.update.calls": calls("kernel_bandwidth.update"),
        "kernel_bandwidth.update.self_us": self_us("kernel_bandwidth.update"),
        "kernel_bandwidth.clamped_ratio": ratio("kernel_bandwidth.clamped",
                                                "kernel_bandwidth.dims"),
        "adapt_vb.refresh.calls": calls("adapt_vb.refresh"),
        "adapt_vb.refresh.self_us": self_us("adapt_vb.refresh"),
        "adapt_vb.snapshots_smoothed": count("adapt_vb.snapshots_smoothed"),
        "adapt_vb.not_ready_ratio": ratio("adapt_vb.refresh.errors", "adapt_vb.refresh.calls"),
        "adapt_residual.refresh.calls": calls("adapt_residual.refresh"),
        "adapt_residual.refresh.self_us": self_us("adapt_residual.refresh"),
        "adapt_residual.push.self_us": self_us("adapt_residual.push"),
        "linalg.spd_solve.calls": calls("linalg.spd_solve"),
        "linalg.spd_solve.fallbacks": count("linalg.spd_solve.fallbacks"),
        "linalg.psd_project.calls": calls("linalg.psd_project"),
        "linalg.psd_project.clipped": count("linalg.psd_project.clipped"),
        "sim.generate_truth_s": self_s("sim.generate_truth"),
        "sim.sample_sensors_s": self_s("sim.sample_sensors"),
        "sim.events": count("sim.events"),
        "dataset.write_events_s": self_s("dataset.write_events"),
        "dataset.write_truth_s": self_s("dataset.write_truth"),
        "dataset.bytes_written": count("dataset.bytes_written", "bytes"),
        "dataset.ingest_dataset_s": self_s("dataset.ingest_dataset"),
        "dataset.read_truth_s": self_s("dataset.read_truth"),
        "dataset.bytes_read": count("dataset.bytes_read", "bytes"),
        "experiments.run_experiment.self_s": self_s("experiments.run_experiment"),
        "experiments.bytes_written": count("experiments.bytes_written", "bytes"),
        "cli.main.self_s": self_s("cli.main"),
    })
    untraced, traced = rate(False), rate(True)
    out["trace.events_per_s_untraced"] = (untraced, "events/s")
    out["trace.events_per_s_traced"] = (traced, "events/s")
    out["trace.overhead_pct"] = (100.0 * (untraced / traced - 1.0), "%")
    out["calibration.step_us"] = (statistics.median(p.step_ns for p in result.passes) / 1e3,
                                  "us")
    return out


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measuring time; whole passes run until it is used up")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "corfuse" / "__init__.py").is_file():
        print(f"corfuse sources not found under {SRC}", file=sys.stderr)
        return 2
    pin_blas()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import calibration
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    run_dir = WORKDIR / f"run-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    tracer = tracing.Tracer() if args.trace else None
    try:
        result = workloads.run(workload, args.seed, args.seconds, run_dir, tracer)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    if tracer is None:
        metrics = end_to_end(result)
    else:
        traced_passes = sum(result.traced)
        metrics = per_layer(result, tracer.summary(len(result.setup_s), traced_passes))
        trace_file = WORKDIR / "traces" / f"{args.workload}-seed{args.seed}.npz"
        tracer.save(trace_file)
        print(f"spans: {trace_file}")

    for problem in result.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"workload {args.workload}, seed {args.seed}: {len(result.passes)} passes, "
          f"{result.attempted} events, {result.failed} failed")
    rmse_pos, rmse_att = result.passes[0].rmse
    print(f"  accuracy (checked against the ceiling, not a bounded metric): "
          f"rmse_pos_m {rmse_pos:.6g} m, rmse_att_rad {rmse_att:.6g} rad")
    untraced = [p for p, traced in zip(result.passes, result.traced) if not traced]
    print(f"  as measured, before scaling to nominal speed: events_per_s "
          f"{statistics.median(p.events / p.wall_s for p in untraced):.6g} events/s, "
          f"set-up wall time {statistics.median(result.setup_wall_s):.6g} s, reference step "
          f"{statistics.median(p.step_ns for p in result.passes) / 1e3:.6g} us "
          f"(nominal {calibration.NOMINAL_STEP_NS / 1e3:g} us)")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:>16.6g} {unit}")
    print("env: " + json.dumps(environment(), sort_keys=True))
    report = {
        "correct": result.failed == 0 and not result.problems,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value if math.isfinite(value) else None, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
