"""tools/pairs.py: the pair summary on canned values, and the run order it keeps."""

import importlib.util
from pathlib import Path

import pytest

PAIRS_PATH = Path(__file__).resolve().parent.parent / "tools" / "pairs.py"


@pytest.fixture(scope="module")
def pairs():
    spec = importlib.util.spec_from_file_location("pairs", PAIRS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_higher_is_better_counts_ties_apart_and_needs_more_than_the_iqr(pairs):
    s = pairs.summarize([1.0, 2.0, 3.0, 4.0, 5.0], [2.0, 3.0, 3.0, 5.0, 6.0], "higher")
    assert (s["wins"], s["ties"], s["losses"], s["pairs"]) == (4, 1, 0, 5)
    assert s["parent"] == (2.0, 3.0, 4.0) and s["change"] == (3.0, 3.0, 5.0)
    assert s["median_pct"] == 0.0 and not s["beyond_iqr"] and not s["better"]


def test_lower_is_better_flags_a_shift_beyond_a_zero_iqr(pairs):
    s = pairs.summarize([10.0, 10.0, 10.0, 10.0], [5.0, 5.0, 10.0, 12.0], "lower")
    assert (s["wins"], s["ties"], s["losses"]) == (2, 1, 1)
    assert s["parent"] == (10.0, 10.0, 10.0) and s["change"][1] == 7.5
    assert s["median_pct"] == pytest.approx(-25.0)
    assert s["beyond_iqr"] and s["better"]


def test_a_shift_beyond_the_iqr_the_wrong_way_is_not_better(pairs):
    s = pairs.summarize([100.0, 101.0, 99.0], [90.0, 91.0, 92.0], "higher")
    assert (s["wins"], s["ties"], s["losses"]) == (0, 0, 3)
    assert s["beyond_iqr"] and not s["better"]


def test_a_shift_equal_to_the_iqr_is_not_beyond_it(pairs):
    s = pairs.summarize([1.0, 2.0, 3.0], [2.0, 3.0, 4.0], "higher")
    assert s["parent"][2] - s["parent"][0] == 1.0 and s["median_pct"] == 50.0
    assert not s["beyond_iqr"]


def test_missing_values_are_left_out_of_the_pairs(pairs):
    s = pairs.summarize([1.0, None, 3.0], [2.0, 5.0, None], "higher")
    assert (s["pairs"], s["wins"]) == (1, 1)
    assert s["parent"] == (1.0, 1.0, 1.0)
    assert pairs.summarize([None], [2.0], "lower") == {"pairs": 0}


def test_pairs_alternate_and_pair_i_runs_seed_i(pairs, monkeypatch, capsys, tmp_path):
    calls = []

    def fake_run(checkout, workload, seed, seconds):
        calls.append((checkout.name, seed))
        fast = checkout.name == "change"
        metrics = {m["name"]: (2.0 if fast else 1.0) for m in pairs.end_to_end_metrics()}
        return {"correct": seed != 2 or fast, "metrics": metrics, "step_us": 1.0}

    monkeypatch.setattr(pairs, "run_once", fake_run)
    assert pairs.main(["--parent", str(tmp_path / "parent"), "--change",
                       str(tmp_path / "change"), "--workload", "vb_outliers",
                       "--pairs", "3", "--seconds", "1"]) == 0
    assert calls == [("parent", 1), ("change", 1), ("change", 2), ("parent", 2),
                     ("parent", 3), ("change", 3)]
    out = capsys.readouterr().out
    assert "pair 2 seed 2 (change first)" in out and "parent NOT CORRECT" in out
    assert "parent: reference step median 1 us; 1 run(s) not correct" in out
    assert "events_per_s (events/s, higher is better)" in out
    assert "change won 3, tied 0, lost 0 of 3" in out


def test_a_repeated_workload_runs_each_in_turn_with_its_own_summary(pairs, monkeypatch, capsys,
                                                                     tmp_path):
    calls = []

    def fake_run(checkout, workload, seed, seconds):
        calls.append((workload, checkout.name, seed))
        value = {"imu_dense": 3.0, "replay_csv": 5.0}[workload]
        return {"correct": True, "metrics": {m["name"]: value
                                             for m in pairs.end_to_end_metrics()},
                "step_us": 1.0}

    monkeypatch.setattr(pairs, "run_once", fake_run)
    assert pairs.main(["--parent", str(tmp_path / "parent"), "--change",
                       str(tmp_path / "change"), "--workload", "imu_dense",
                       "--workload", "replay_csv", "--pairs", "2", "--seconds", "1"]) == 0
    assert calls == [(workload, side, seed) for workload in ("imu_dense", "replay_csv")
                     for side, seed in (("parent", 1), ("change", 1), ("change", 2),
                                        ("parent", 2))]
    out = capsys.readouterr().out
    first, second = out.split("replay_csv pair 1 ")  # the first workload's summary comes first
    assert "imu_dense: 2 pairs of 1 s" in first and "parent 3 [3, 3], change 3 [3, 3]" in first
    assert "replay_csv: 2 pairs of 1 s" in second and "parent 5 [5, 5], change 5 [5, 5]" in second
    assert "imu_dense" not in second and "replay_csv" not in first
    assert out.count("change won 0, tied 2, lost 0 of 2") == 2 * len(pairs.end_to_end_metrics())
