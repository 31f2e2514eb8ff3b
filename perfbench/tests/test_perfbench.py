"""Checks of the benchmark itself: exact traced counts and failure reporting.

Run from the repository root:

    python3 -m pytest -q perfbench/tests

Streams are shortened so the tests take seconds, not minutes.
"""
from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import calibration  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SHORT = {"vb_outliers": 4.0, "imu_dense": 3.0, "replay_csv": 6.0}

# Counts that later changes may cite as exact figures.
EXACT = [f"{layer}.calls" for layer in tracing.LAYERS] + [
    "eskf.dropped", "adapt_vb.snapshots_smoothed", "adapt_vb.not_ready_ratio",
    "linalg.spd_solve.fallbacks", "linalg.psd_project.clipped",
    "kernel_bandwidth.clamped_ratio", "filter_core.regularized", "sim.events",
    "dataset.bytes_written", "dataset.bytes_read", "experiments.bytes_written",
]


def short(name: str) -> workloads.Workload:
    return dataclasses.replace(workloads.WORKLOADS[name], duration=SHORT[name])


def traced_layers(name: str, workdir: Path) -> tuple[workloads.RunResult, dict]:
    """A traced run of the shortened workload: one untraced and one traced pass."""
    tracer = tracing.Tracer()
    result = workloads.run(short(name), seed=3, seconds=0.0, workdir=workdir, tracer=tracer)
    figures = run.per_layer(result, tracer.summary(len(result.setup_s), sum(result.traced)))
    return result, figures


@pytest.fixture(scope="module")
def first_runs(tmp_path_factory):
    return {name: traced_layers(name, tmp_path_factory.mktemp(name)) for name in SHORT}


@pytest.mark.parametrize("name", sorted(SHORT))
def test_traced_counts_repeat_exactly(name, first_runs, tmp_path):
    first, layers = first_runs[name]
    second, again = traced_layers(name, tmp_path)
    assert first.failed == 0 and not first.problems, first.problems
    assert second.failed == 0 and not second.problems, second.problems
    assert first.passes[0].rmse == second.passes[0].rmse
    for key in EXACT:
        assert layers[key] == again[key], key


def test_declared_workloads_and_per_layer_metrics_match(first_runs):
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    names = [w["name"] for w in declared["workloads"]]
    assert names == list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)
    for _, layers in first_runs.values():
        assert {name: unit for name, (_, unit) in layers.items()} == {
            m["name"]: m["unit"] for m in declared["per_layer"]}


def test_layers_are_separated_by_workload(first_runs):
    calls = {name: {key: value for key, (value, _) in figures.items()}
             for name, (_, figures) in first_runs.items()}
    assert calls["vb_outliers"]["adapt_vb.refresh.calls"] > 0
    assert calls["vb_outliers"]["kernel_bandwidth.update.calls"] > 0
    assert calls["imu_dense"]["adapt_vb.calls"] == 0
    assert calls["imu_dense"]["adapt_residual.calls"] == 0
    assert calls["replay_csv"]["adapt_residual.refresh.calls"] > 0
    for layer in ("dataset", "experiments", "cli"):
        assert calls["replay_csv"][f"{layer}.calls"] > 0
        assert calls["vb_outliers"][f"{layer}.calls"] == 0
        assert calls["imu_dense"][f"{layer}.calls"] == 0
    # so3 is counted where eskf calls it, not in trajectory synthesis.
    assert calls["imu_dense"]["so3.calls"] > 0
    assert calls["imu_dense"]["sim.events"] > 0


def test_tracing_leaves_the_program_unpatched(tmp_path):
    from corfuse import eskf, filter_core, so3

    def bindings():
        return (eskf.FusionEngine.process, eskf.predict, filter_core.predict,
                eskf.skew, so3.skew)

    before = bindings()
    traced_layers("imu_dense", tmp_path)
    assert bindings() == before


def broken_update(belief, z, model):
    raise FloatingPointError("deliberately broken correction")


@pytest.mark.parametrize("name", ["imu_dense", "replay_csv"])
def test_broken_filter_is_reported_as_failed(name, tmp_path, monkeypatch, capsys):
    from corfuse import eskf

    monkeypatch.setattr(eskf, "mcckf_update", broken_update)
    monkeypatch.setitem(workloads.WORKLOADS, name, short(name))
    monkeypatch.setattr(run, "WORKDIR", tmp_path)
    code = run.main(["--workload", name, "--seed", "1", "--seconds", "0", "--trace", "0"])
    report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0
    assert report["correct"] is False
    assert report["attempted"] > 0
    assert report["failed"] == report["attempted"]


def test_report_lists_every_end_to_end_metric(tmp_path, monkeypatch, capsys):
    monkeypatch.setitem(workloads.WORKLOADS, "imu_dense", short("imu_dense"))
    monkeypatch.setattr(run, "WORKDIR", tmp_path)
    run.main(["--workload", "imu_dense", "--seed", "2", "--seconds", "0", "--trace", "0"])
    report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert report["correct"] is True and report["failed"] == 0
    assert set(report["metrics"]) == {m["name"] for m in declared["end_to_end"]}
    for metric in declared["end_to_end"]:
        assert report["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert report["metrics"][metric["name"]]["value"] > 0


def test_missing_sources_exit_nonzero(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "imu_dense", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""


def test_calibration_scales_each_stretch_by_its_own_reference_time():
    cal = calibration.Calibrator()
    step = calibration.NOMINAL_STEP_NS
    # Wall start and end, CPU start and end, and ns per reference step of
    # three calibrations: the machine runs at nominal speed, then at half
    # speed, and the thread is off the CPU for 1 ms of the second stretch.
    cal.marks = [(0, 10, 0, 10, step), (1_000_010, 1_000_020, 1_000_010, 1_000_020, step),
                 (4_000_020, 4_000_030, 3_000_020, 3_000_030, 2 * step)]
    wall_s, nominal_s, factor = cal.scale(np.array([500_000, 1_000_010, 2_000_000]))
    assert wall_s == pytest.approx(4e-3)
    assert nominal_s == pytest.approx(1e-3 + 2e-3 / 1.5)
    assert factor == pytest.approx([1.0, 1.0, 1 / 1.5])
