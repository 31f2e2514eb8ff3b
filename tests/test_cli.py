"""Command-line interface: config parsing, subcommands, exit codes."""

import json
import os
import subprocess
import sys
import typing
from pathlib import Path

import pytest

import corfuse
from corfuse.cli import _coerce, build_run_config, load_config_file, main
from corfuse.errors import ConfigError
from corfuse.experiments import RunConfig


def test_load_config_file_parses_keys_comments_and_blanks(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# fusion setup\n"
        "filter = vb-amcckf\n"
        "\n"
        "window=20   # trailing comment\n"
        "r0.odom1 = 0.25\n")
    entries = load_config_file(str(path))
    assert entries == {"filter": "vb-amcckf", "window": "20",
                       "r0.odom1": "0.25"}


def test_load_config_file_reports_line_numbers(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("filter = ekf\nthis line has no equals\n")
    with pytest.raises(ConfigError, match="line 2"):
        load_config_file(str(path))


def test_load_config_file_missing():
    with pytest.raises(ConfigError, match="not found"):
        load_config_file("/nonexistent/run.cfg")


def test_coerce_types():
    assert _coerce("window", "12", int) == 12
    assert _coerce("rho", "0.95", float) == 0.95
    assert _coerce("adapt_q", "TRUE", bool) is True
    assert _coerce("adapt_q", "no", bool) is False
    assert _coerce("filter", "ekf", str) == "ekf"
    with pytest.raises(ConfigError, match="adapt_q"):
        _coerce("adapt_q", "maybe", bool)
    with pytest.raises(ConfigError, match="window"):
        _coerce("window", "ten", int)


def test_build_run_config_merges_sources():
    config = build_run_config(
        {"filter": "ekf", "window": "15", "r0.odom0": "0.5"},
        {"seed": 7, "scenario": "hover", "out": None})
    assert config.filter == "ekf"
    assert config.window == 15
    assert config.r0_overrides == {"odom0": 0.5}
    assert config.seed == 7
    assert config.scenario == "hover"
    assert config.out is None  # None overrides are skipped


def test_every_run_config_field_is_read_from_a_config_file(tmp_path):
    samples = {bool: ("yes", True), int: ("7", 7), float: ("0.25", 0.25),
               str: ("abc", "abc")}
    hints = typing.get_type_hints(RunConfig)
    del hints["r0_overrides"]  # set through "r0.<sensor>" keys instead
    lines, expected = [], {}
    for name, hint in hints.items():
        (declared,) = set(typing.get_args(hint) or (hint,)) - {type(None)}
        raw, expected[name] = samples[declared]
        lines.append(f"{name} = {raw}")
    path = tmp_path / "all.cfg"
    path.write_text("\n".join(lines) + "\n")
    config = build_run_config(load_config_file(str(path)), {})
    for name, value in expected.items():
        got = getattr(config, name)
        assert type(got) is type(value) and got == value, name


def test_build_run_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown config key"):
        build_run_config({"bandwidth": "2.0"}, {})


# ---------------------------------------------------------------------------
# subcommands end to end


def test_simulate_then_fuse_round_trip(tmp_path, capsys):
    sim_out = tmp_path / "sim"
    rc = main(["simulate", "--scenario", "hover", "--seed", "3",
               "--out", str(sim_out), "--set", "duration=2.0",
               "--set", "sensors=1"])
    assert rc == 0
    assert (sim_out / "dataset.csv").exists()
    assert (sim_out / "truth.csv").exists()

    fuse_out = tmp_path / "fused"
    rc = main(["fuse", "--dataset", str(sim_out / "dataset.csv"),
               "--truth", str(sim_out / "truth.csv"),
               "--filter", "ekf", "--out", str(fuse_out),
               "--set", "adapt_q=false"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "ekf:" in out and "rmse_pos=" in out
    assert (fuse_out / "estimates.csv").exists()
    metrics = json.loads((fuse_out / "metrics.json").read_text())
    assert metrics["variant"] == "ekf"
    assert metrics["rmse_position_total"] < 0.05


def test_fuse_scenario_mode_with_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("scenario = hover\nduration = 2.0\nsensors = 1\n"
                   "filter = mcckf\nadapt_q = false\n")
    rc = main(["fuse", "--config", str(cfg), "--seed", "5"])
    assert rc == 0
    assert "mcckf:" in capsys.readouterr().out


def test_cli_flag_overrides_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("scenario = hover\nduration = 2.0\nsensors = 1\nfilter = ekf\n")
    rc = main(["fuse", "--config", str(cfg), "--filter", "mcckf",
               "--set", "adapt_q=false"])
    assert rc == 0
    assert capsys.readouterr().out.startswith("mcckf:")


def test_exit_code_2_on_config_problems(tmp_path, capsys):
    assert main(["fuse", "--set", "filter=ukf", "--scenario", "hover"]) == 2
    assert "configuration error" in capsys.readouterr().err
    assert main(["simulate", "--scenario", "hover"]) == 2  # missing --out
    assert main(["simulate", "--out", str(tmp_path / "x")]) == 2  # no scenario
    assert main(["fuse", "--config", "/nonexistent.cfg", "--scenario", "hover"]) == 2
    assert main(["fuse", "--scenario", "hover", "--set", "badkey"]) == 2


def test_exit_code_3_on_data_problems(tmp_path, capsys):
    assert main(["fuse", "--dataset", str(tmp_path / "missing.csv")]) == 3
    assert "data error" in capsys.readouterr().err
    mangled = tmp_path / "mangled.csv"
    mangled.write_text("time_s,kind\n")
    assert main(["fuse", "--dataset", str(mangled)]) == 3


def test_exit_code_3_on_truth_files_shorter_than_two_rows(tmp_path, capsys):
    sim_out = tmp_path / "sim"
    assert main(["simulate", "--scenario", "hover", "--seed", "1",
                 "--out", str(sim_out), "--set", "duration=1.0",
                 "--set", "sensors=1"]) == 0
    lines = (sim_out / "truth.csv").read_text().splitlines(keepends=True)
    cases = {"rows_0": (lines[:1], "at least two"),
             "rows_1": (lines[:2], "at least two"),
             # the third data row repeats the second one's time
             "repeated_time": (lines[:3] + lines[2:], "row 4")}
    for name, (kept, message) in cases.items():
        truth = tmp_path / f"truth_{name}.csv"
        truth.write_text("".join(kept))
        capsys.readouterr()
        assert main(["fuse", "--dataset", str(sim_out / "dataset.csv"),
                     "--truth", str(truth), "--filter", "ekf"]) == 3, name
        assert message in capsys.readouterr().err, name


def test_exit_code_2_on_r0_override_for_an_unknown_sensor(capsys):
    assert main(["fuse", "--scenario", "hover", "--filter", "ekf",
                 "--set", "duration=1.0", "--set", "sensors=1",
                 "--set", "r0.odmo0=5"]) == 2
    assert "odmo0" in capsys.readouterr().err


def test_compare_writes_summary_json(tmp_path, capsys):
    out = tmp_path / "cmp"
    rc = main(["compare", "--scenario", "hover", "--seed", "2",
               "--filters", "ekf,mcckf", "--out", str(out),
               "--set", "duration=2.0", "--set", "sensors=1",
               "--set", "adapt_q=false"])
    assert rc == 0
    text = capsys.readouterr().out
    assert "variant" in text and "ekf" in text and "mcckf" in text
    summary = json.loads((out / "comparison.json").read_text())
    assert set(summary) == {"ekf", "mcckf"}
    assert summary["ekf"]["correction_count"] == 20


def test_compare_rejects_unknown_variant(capsys):
    rc = main(["compare", "--scenario", "hover", "--filters", "ekf,ukf"])
    assert rc == 2
    assert "ukf" in capsys.readouterr().err


def test_bench_reports_timing_rows(tmp_path, capsys):
    out = tmp_path / "bench"
    rc = main(["bench", "--scenario", "hover", "--filters", "ekf",
               "--windows", "5,10", "--out", str(out),
               "--set", "duration=1.0", "--set", "sensors=1"])
    assert rc == 0
    rows = json.loads((out / "bench.json").read_text())
    assert len(rows) == 2
    assert {r["window"] for r in rows} == {5, 10}
    assert all(r["mean_ns"] > 0 for r in rows)


def test_simulate_outputs_are_deterministic(tmp_path):
    args = ["simulate", "--scenario", "hover", "--seed", "9",
            "--set", "duration=1.0", "--set", "sensors=1"]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    assert (out_a / "dataset.csv").read_bytes() == (out_b / "dataset.csv").read_bytes()
    assert (out_a / "truth.csv").read_bytes() == (out_b / "truth.csv").read_bytes()


def test_module_entry_point_runs():
    # The child imports the same corfuse package as this test, installed or not.
    package_root = str(Path(corfuse.__file__).resolve().parent.parent)
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [package_root, inherited] if inherited else [package_root]))
    proc = subprocess.run([sys.executable, "-m", "corfuse", "--help"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "simulate" in proc.stdout and "bench" in proc.stdout
