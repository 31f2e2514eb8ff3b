"""tools/sweep.py: the many-seed sweep runs and its output is deterministic."""

import argparse
import importlib.util
import json
from pathlib import Path

import pytest

from corfuse.eskf import VARIANTS

SWEEP_PATH = Path(__file__).resolve().parent.parent / "tools" / "sweep.py"


@pytest.fixture(scope="module")
def sweep():
    spec = importlib.util.spec_from_file_location("sweep", SWEEP_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_sweep_output_is_deterministic(sweep, capsys):
    outputs = []
    for _ in range(2):
        assert sweep.main(["--workload", "replay_csv", "--seeds", "1-2",
                           "--duration", "2"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    result = json.loads(outputs[0])
    assert list(result) == ["replay_csv"]
    cells = result["replay_csv"]
    assert (cells["seeds"], cells["duration_s"]) == ("1-2", 2.0)
    for variant in VARIANTS:
        for stat in ("rmse_position_m", "rmse_attitude_rad", "nees"):
            spread = cells[variant][stat]
            assert 0.0 < spread["min"] <= spread["median"] <= spread["max"]
        assert cells[variant]["unscored_corrections"] == 0


def test_seed_ranges(sweep):
    assert sweep.parse_seeds("1-3") == [1, 2, 3]
    assert sweep.parse_seeds("7") == [7]
    with pytest.raises(argparse.ArgumentTypeError):
        sweep.parse_seeds("4-2")
