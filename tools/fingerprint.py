"""Print one SHA-256 per (benchmark workload settings, filter variant, seed 1-3).

Each digest covers a run's full output in memory: every row of
``estimates`` (time, pose, velocity, covariance diagonal), the final error
covariance, the final process noise Q and every sensor's final measurement
noise R, as raw float64 bytes.  Two checkouts fuse bitwise-identically when
the outputs of

    python tools/fingerprint.py > fingerprints.txt

run in each are identical (``diff`` them).  Runs use the workload settings
of ``perfbench/workloads.py`` in scenario mode, so no files are written.
"""
from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from corfuse.eskf import VARIANTS  # noqa: E402
from corfuse.experiments import RunConfig, run_experiment  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEEDS = (1, 2, 3)


def fingerprint(settings: dict, duration: float, variant: str, seed: int) -> str:
    result = run_experiment(RunConfig(**{**settings, "filter": variant, "seed": seed,
                                         "duration": duration}))
    engine = result.engine
    digest = hashlib.sha256(np.asarray(result.estimates, dtype=float).tobytes())
    digest.update(np.asarray(engine.covariance, dtype=float).tobytes())
    digest.update(np.asarray(engine.process_noise, dtype=float).tobytes())
    for sensor_id in engine.sensor_ids():
        digest.update(sensor_id.encode())
        digest.update(np.asarray(engine.measurement_noise(sensor_id), dtype=float).tobytes())
    return digest.hexdigest()


def main() -> int:
    for name, workload in WORKLOADS.items():
        for variant in VARIANTS:
            for seed in SEEDS:
                digest = fingerprint(workload.settings, workload.duration, variant, seed)
                print(f"{name} {variant} seed={seed} {digest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
