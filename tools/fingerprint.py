"""Print one SHA-256 per (benchmark workload settings, filter variant, seed).

Each digest covers a run's full output in memory: every row of
``estimates`` (time, pose, velocity, covariance diagonal), the final error
covariance, the final process noise Q and every sensor's final measurement
noise R, as raw float64 bytes, and the run's ``MetricsReport`` as the
key-sorted JSON text that ``metrics.json`` holds (per-correction times, R
traces and mean inverse bandwidths included).  Per (workload, seed) two
more lines come first.  The one with ``stream`` in the variant column
digests the synthesized input: every ``TruthTrajectory`` array and every
event's time, sensor id and vectors.  The one with ``cli`` digests a
``corfuse simulate`` then ``corfuse fuse`` round trip through ``cli.main``
in a temporary directory: the bytes of ``dataset.csv``, ``truth.csv``,
``estimates.csv`` and ``metrics.json``.  That fuse reads the workload's
settings from a ``--config`` file whose ``filter = ekf`` its ``--filter``
flag overrides with the workload's filter, and its dataset from a
``--set`` item, so the line moves if the settings merge does.
Two checkouts synthesize and fuse bitwise-identically when the outputs of

    python tools/fingerprint.py > fingerprints.txt

run in each are identical (``diff`` them).  Runs use the workload settings
of ``perfbench/workloads.py``; only the ``cli`` line writes files.

As in ``tools/sweep.py``, ``--seeds A-B`` picks the seeds (default 1-3),
``--workload`` and ``--variant`` may be repeated and default to every
workload and every variant, and ``--duration`` shortens the streams
(seconds):

    python tools/fingerprint.py --seeds 4-6 --workload vb_outliers --variant vb-amcckf

To size a change that is not bitwise, ``--dump DIR`` saves each run's
estimate rows to ``DIR/<workload>_<variant>_seed<seed>.npy``, and
``--against DIR``, run in the other checkout, ends each run's line with the
largest change from those rows: ``dpos``, the largest per-row distance
between the positions (m), and ``dcov``, the largest relative change of a
covariance diagonal entry:

    python tools/fingerprint.py --dump before/      # in the parent checkout
    python tools/fingerprint.py --against before/   # in the changed one
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path
from typing import Optional

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "tools")]

from corfuse import cli  # noqa: E402
from corfuse.dataset import ESTIMATE_HEADER  # noqa: E402
from corfuse.eskf import VARIANTS, OdometrySample  # noqa: E402
from corfuse.experiments import RunConfig, build_scenario, run_experiment  # noqa: E402
from corfuse.sim import generate_truth, sample_sensors  # noqa: E402
from sweep import parse_seeds  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

POSITION = [ESTIMATE_HEADER.index(name) for name in ("px", "py", "pz")]
COV_DIAG = [ESTIMATE_HEADER.index(f"c{i}") for i in range(9)]


def fingerprint(settings: dict, duration: float, variant: str, seed: int
                ) -> tuple[str, np.ndarray]:
    """The run's digest and its estimate rows."""
    result = run_experiment(RunConfig(**{**settings, "filter": variant, "seed": seed,
                                         "duration": duration}))
    engine = result.engine
    rows = np.asarray(result.estimates, dtype=float)
    digest = hashlib.sha256(rows.tobytes())
    digest.update(np.asarray(engine.covariance, dtype=float).tobytes())
    digest.update(np.asarray(engine.process_noise, dtype=float).tobytes())
    for sensor_id in engine.sensor_ids():
        digest.update(sensor_id.encode())
        digest.update(np.asarray(engine.measurement_noise(sensor_id), dtype=float).tobytes())
    # The same text as experiments.write_json, without the file.
    digest.update(json.dumps(dataclasses.asdict(result.metrics), indent=2, sort_keys=True)
                  .encode())
    return digest.hexdigest(), rows


def largest_change(rows: np.ndarray, before: np.ndarray) -> str:
    """``dpos`` and ``dcov`` of ``rows`` against the dumped ``before``."""
    if rows.shape != before.shape:
        return f"rows {before.shape[0]} -> {rows.shape[0]}"
    dpos = np.linalg.norm(rows[:, POSITION] - before[:, POSITION], axis=1).max()
    new, old = rows[:, COV_DIAG], before[:, COV_DIAG]
    with np.errstate(divide="ignore", invalid="ignore"):
        relative = np.where(new == old, 0.0, np.abs(new - old) / np.abs(old))
    return f"dpos={dpos:.2g} dcov={relative.max():.2g}"


def stream_fingerprint(settings: dict, duration: float, seed: int) -> str:
    scenario = build_scenario(RunConfig(**{**settings, "seed": seed, "duration": duration}))
    truth = generate_truth(scenario)
    digest = hashlib.sha256()
    for array in (truth.times, truth.positions, truth.velocities, truth.orientations,
                  truth.accel_body, truth.gyro_body):
        digest.update(array.tobytes())
    for event in sample_sensors(truth, scenario):
        if isinstance(event, OdometrySample):
            digest.update(event.sensor_id.encode())
            vectors = (event.position, event.orientation, event.velocity)
        else:
            digest.update(b"imu")
            vectors = (event.accel, event.gyro)
        digest.update(np.concatenate([[event.time], *vectors]).tobytes())
    return digest.hexdigest()


def cli_fingerprint(settings: dict, duration: float, seed: int) -> str:
    """Digest of the four files of a ``simulate`` then ``fuse`` round trip through ``cli.main``."""
    settings = dict(settings, duration=duration, seed=seed)
    scenario, variant = settings.pop("scenario"), settings.pop("filter")
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        config = work / "run.cfg"
        config.write_text("filter = ekf\n" + "".join(f"{key} = {value}\n"
                                                     for key, value in settings.items()))
        runs = (["simulate", "--config", str(config), "--scenario", scenario,
                 "--out", str(work / "sim")],
                ["fuse", "--config", str(config), "--filter", variant,
                 "--set", f"dataset={work / 'sim' / 'dataset.csv'}",
                 "--truth", str(work / "sim" / "truth.csv"), "--out", str(work / "fused")])
        for argv in runs:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            if code != 0:
                raise RuntimeError(f"corfuse {argv[0]} exited with {code}")
        digest = hashlib.sha256()
        for name in ("sim/dataset.csv", "sim/truth.csv", "fused/estimates.csv",
                     "fused/metrics.json"):
            digest.update((work / name).read_bytes())
    return digest.hexdigest()


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=list(WORKLOADS))
    parser.add_argument("--seeds", type=parse_seeds, default=[1, 2, 3],
                        help="A-B, inclusive (default 1-3)")
    parser.add_argument("--duration", type=float, help="stream length in seconds")
    parser.add_argument("--variant", action="append", choices=VARIANTS,
                        help="filter variant (repeatable; default all)")
    parser.add_argument("--dump", type=Path, metavar="DIR",
                        help="save each run's estimate rows in DIR")
    parser.add_argument("--against", type=Path, metavar="DIR",
                        help="end each run's line with its largest change from DIR's rows")
    args = parser.parse_args(argv)
    if args.dump:
        args.dump.mkdir(parents=True, exist_ok=True)
    for name in args.workload or list(WORKLOADS):
        workload = WORKLOADS[name]
        duration = args.duration or workload.duration
        for seed in args.seeds:
            digest = stream_fingerprint(workload.settings, duration, seed)
            print(f"{name} stream seed={seed} {digest}", flush=True)
            digest = cli_fingerprint(workload.settings, duration, seed)
            print(f"{name} cli seed={seed} {digest}", flush=True)
        for variant in args.variant or VARIANTS:
            for seed in args.seeds:
                digest, rows = fingerprint(workload.settings, duration, variant, seed)
                line = f"{name} {variant} seed={seed} {digest}"
                stem = f"{name}_{variant}_seed{seed}.npy"
                if args.dump:
                    np.save(args.dump / stem, rows)
                if args.against:
                    line += " " + largest_change(rows, np.load(args.against / stem))
                print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
