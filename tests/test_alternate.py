"""tools/alternate.py: the run order it keeps, and real runs of a throwaway node."""

import importlib.util
from pathlib import Path

import pytest

ALTERNATE_PATH = Path(__file__).resolve().parent.parent / "tools" / "alternate.py"


@pytest.fixture(scope="module")
def alternate():
    spec = importlib.util.spec_from_file_location("alternate", ALTERNATE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_runs_alternate_and_failures_are_counted_per_side(alternate, monkeypatch, capsys,
                                                          tmp_path):
    calls = []

    def fake_run(checkout, node):
        calls.append(checkout.name)
        run = sum(name == checkout.name for name in calls)
        failed = checkout.name == "change" and run != 2
        return {"outcome": "fail" if failed else "pass",
                "lines": [f"[acceptance] x: {'FAIL' if failed else 'PASS'} (run {run})"]}

    monkeypatch.setattr(alternate, "run_once", fake_run)
    assert alternate.main(["--parent", str(tmp_path / "parent"), "--change",
                           str(tmp_path / "change"), "--node", "t.py::x", "--runs", "3"]) == 0
    assert calls == ["parent", "change", "change", "parent", "parent", "change"]
    out = capsys.readouterr().out
    assert "run 2 change: pass\n  [acceptance] x: PASS (run 2)\nrun 2 parent: pass" in out
    assert "run 3 change: fail\n  [acceptance] x: FAIL (run 3)" in out
    assert "parent: 0 of 3 not passed\n" in out
    assert "change: 2 of 3 not passed (runs 1, 3)" in out


def test_a_real_run_reports_each_checkouts_outcome_and_acceptance_line(alternate, tmp_path):
    node = "test_throwaway.py::test_node"
    for side, passed in (("parent", True), ("change", False)):
        (tmp_path / side / "src").mkdir(parents=True)
        (tmp_path / side / "test_throwaway.py").write_text(
            "def test_node():\n"
            f"    print('[acceptance] throwaway: {'PASS' if passed else 'FAIL'} ({side})')\n"
            f"    assert {passed}\n")
    assert alternate.run_once(tmp_path / "parent", node) == {
        "outcome": "pass", "lines": ["[acceptance] throwaway: PASS (parent)"]}
    assert alternate.run_once(tmp_path / "change", node) == {
        "outcome": "fail", "lines": ["[acceptance] throwaway: FAIL (change)"]}
    assert alternate.run_once(tmp_path / "change", "test_throwaway.py::missing")["outcome"] \
        == "error 4"
