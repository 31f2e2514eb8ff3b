"""The many-seed accuracy gate: every filter variant on every benchmark workload's settings.

Each (workload, variant) cell runs ``tools/sweep.py``'s ``sweep_variant`` on
the seeds and the stream length that ``accuracy_gate.json`` records, and is
checked against that file, which ``tools/sweep.py`` wrote.  Regenerate it,
in a change that moves the estimates on purpose and says why, with

    python tools/sweep.py --seeds 1-3 --duration 10 > tests/accuracy_gate.json

The bounds, per cell, against the reference's 3-significant-figure figures:

- the worst seed's position RMSE is at most ``RMSE_MARGIN`` times the
  reference's worst;
- the median of the seeds' mean NEES is within a factor ``NEES_MARGIN`` of
  the reference's median, either way, so an over- or under-confident
  filter fails (R scaled by 4 moves it by a factor of 1.5 to 16);
- the worst seed's mean NEES is at most ``NEES_MARGIN`` times the
  reference's worst;
- no more corrections go unscored than in the reference.

A stated round-off budget, such as the one the IMU step runs under, moves a
healthy cell by far less than a margin; a cell whose filter runs away can
amplify it, which the margins leave room for.  The cells in
``KNOWN_DEFECTS`` carry a defect the roadmap names: their reference figures
are ceilings of the defect as it stands, and the change that mends it
regenerates the reference and tightens them.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from corfuse.eskf import VARIANTS

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = json.loads((Path(__file__).parent / "accuracy_gate.json").read_text())

RMSE_MARGIN = 1.25
NEES_MARGIN = 1.5

KNOWN_DEFECTS = {
    ("imu_dense", "vb-amcckf"): "roadmap item 2: the kernel bandwidth rule, worst seed "
                                "about 4x ekf's position RMSE",
    ("vb_outliers", "r-amcckf"): "roadmap item 3: the process-noise runaway, NEES in the 1,000s",
    ("imu_dense", "r-amcckf"): "roadmap item 3: the process-noise runaway, NEES about 30",
    ("replay_csv", "r-amcckf"): "roadmap item 3: the process-noise runaway, NEES in the 100s",
}


@pytest.fixture(scope="module")
def sweep():
    spec = importlib.util.spec_from_file_location("sweep", ROOT / "tools" / "sweep.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_reference_covers_every_workload_and_variant(sweep):
    assert list(REFERENCE) == list(sweep.WORKLOADS)
    for cells in REFERENCE.values():
        assert [key for key in cells if key in VARIANTS] == list(VARIANTS)
    for workload, variant in KNOWN_DEFECTS:
        assert variant in REFERENCE[workload]


@pytest.mark.parametrize("workload,variant", [(w, v) for w in REFERENCE for v in VARIANTS])
def test_cell_stays_within_its_reference(sweep, workload, variant):
    cells = REFERENCE[workload]
    want = cells[variant]
    got = sweep.sweep_variant(sweep.WORKLOADS[workload].settings, cells["duration_s"], variant,
                              sweep.parse_seeds(cells["seeds"]))
    label = f"{workload} x {variant}"
    if (workload, variant) in KNOWN_DEFECTS:
        label += f" (known defect, {KNOWN_DEFECTS[workload, variant]})"
    rmse, nees = got["rmse_position_m"], got["nees"]
    assert rmse["max"] <= RMSE_MARGIN * want["rmse_position_m"]["max"], (label, rmse)
    median = want["nees"]["median"]
    assert median / NEES_MARGIN <= nees["median"] <= median * NEES_MARGIN, (label, nees)
    assert nees["max"] <= NEES_MARGIN * want["nees"]["max"], (label, nees)
    assert got["unscored_corrections"] <= want["unscored_corrections"], (label, got)
