"""tools/sweep.py: the many-seed sweep runs, its output is deterministic, and its flags select."""

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


def test_variant_flag_selects_and_orders_the_variants(sweep, capsys):
    assert sweep.main(["--workload", "replay_csv", "--seeds", "1", "--duration", "2",
                       "--variant", "akf", "--variant", "ekf"]) == 0
    cells = json.loads(capsys.readouterr().out)["replay_csv"]
    assert list(cells) == ["seeds", "duration_s", "akf", "ekf"]


def test_set_flag_overrides_the_workload_settings(sweep, capsys):
    args = ["--workload", "replay_csv", "--seeds", "1", "--duration", "2", "--variant", "ekf"]
    assert sweep.main(args + ["--set", "r0=1e-3", "--set", "r0.odom1 = 4e-4"]) == 0
    cells = json.loads(capsys.readouterr().out)["replay_csv"]
    assert cells["set"] == {"r0": "1e-3", "r0.odom1": "4e-4"}
    settings = {**sweep.WORKLOADS["replay_csv"].settings, "r0": 1e-3,
                "r0_overrides": {"odom1": 4e-4}}
    assert cells["ekf"] == sweep.sweep_variant(settings, 2.0, "ekf", [1])
    assert sweep.main(args) == 0
    assert json.loads(capsys.readouterr().out)["replay_csv"]["ekf"] != cells["ekf"]


@pytest.mark.parametrize("item", ["seed=3", "filter=ekf", "duration=1", "bandwidth=2",
                                  "r0=fast", "r0"])
def test_set_flag_rejects_own_flags_unknown_keys_and_bad_values(sweep, item, capsys):
    with pytest.raises(SystemExit) as exc:
        sweep.main(["--seeds", "1", "--set", item])
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err
