"""Command-line interface: config parsing, subcommands, exit codes."""

import argparse
import json
import os
import subprocess
import sys
import typing
from pathlib import Path

import numpy as np
import pytest

import corfuse
from corfuse.cli import (_coerce, _config_from_args, apply_entries, build_parser,
                         load_config_file, main)
from corfuse.dataset import read_truth
from corfuse.errors import ConfigError, DataError
from corfuse.experiments import RunConfig
from corfuse.sim import TRAJECTORIES


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


def test_apply_entries_merges_sources():
    config = apply_entries(RunConfig(), {"filter": "ekf", "window": "15", "r0.odom0": "0.5",
                                         "seed": "7", "scenario": "hover"})
    assert config.filter == "ekf"
    assert config.window == 15
    assert config.r0_overrides == {"odom0": 0.5}
    assert config.seed == 7
    assert config.scenario == "hover"
    assert config.out is None  # a key no entry sets keeps its default


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
    config = apply_entries(RunConfig(), load_config_file(str(path)))
    for name, value in expected.items():
        got = getattr(config, name)
        assert type(got) is type(value) and got == value, name


def test_apply_entries_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown config key"):
        apply_entries(RunConfig(), {"bandwidth": "2.0"})


# Each flag that sets a RunConfig field, with the value the config file, a
# --set item and the flag itself give it.
FLAG_VALUES = {
    "seed": ("1", "2", "3"),
    "scenario": ("hover", "waypoints", "figure8"),
    "dataset": ("file.csv", "set.csv", "flag.csv"),
    "truth": ("file_truth.csv", "set_truth.csv", "flag_truth.csv"),
    "out": ("file_out", "set_out", "flag_out"),
    "filter": ("ekf", "akf", "mcckf"),
}


@pytest.mark.parametrize("sources", [1, 2, 3], ids=["file", "file+set", "file+set+flag"])
def test_a_flag_wins_over_set_which_wins_over_the_config_file(tmp_path, sources):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("window = 5\nrho = 0.95\n"
                   + "".join(f"{key} = {values[0]}\n" for key, values in FLAG_VALUES.items()))
    argv = ["fuse", "--config", str(cfg), "--set", "window=7"]
    if sources >= 2:
        for key, values in FLAG_VALUES.items():
            argv += ["--set", f"{key}={values[1]}"]
    if sources == 3:
        for key, values in FLAG_VALUES.items():
            argv += [f"--{key}", values[2]]
    config = _config_from_args(build_parser().parse_args(argv))
    for key, values in FLAG_VALUES.items():
        assert str(getattr(config, key)) == values[sources - 1], key
    assert config.seed == int(FLAG_VALUES["seed"][sources - 1])
    assert (config.window, config.rho) == (7, 0.95)  # --set over the file; the file alone


def test_scenario_choices_are_the_simulator_kinds():
    (commands,) = [action for action in build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction)]
    for command, parser in commands.choices.items():
        (scenario,) = [action for action in parser._actions if action.dest == "scenario"]
        assert tuple(scenario.choices) == tuple(TRAJECTORIES) == (
            "hover", "waypoints", "figure8"), command


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


def test_truth_without_a_dataset_exits_2(capsys):
    # A scenario run is scored against its own truth, so a truth file would go unread.
    assert main(["fuse", "--scenario", "hover", "--truth", "/nonexistent/truth.csv",
                 "--set", "duration=1"]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "truth needs a dataset" in err


@pytest.mark.parametrize("rate", ["1e-17", "1e-320"])
def test_odometry_slower_than_the_whole_run_fuses_nothing_and_exits_0(rate, capsys):
    assert main(["fuse", "--scenario", "hover", "--set", "duration=1",
                 "--set", f"odom_rate={rate}"]) == 0
    assert capsys.readouterr().out.startswith("vb-amcckf: 0 corrections, dropped=0")


def test_a_vb_window_too_long_to_buffer_exits_2(capsys):
    assert main(["fuse", "--scenario", "hover", "--set", "duration=1",
                 "--filter", "vb-amcckf", "--set", "window=100000000"]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "window must lie in [1, 10000]" in err


def test_odometry_faster_than_the_imu_exits_2(tmp_path, capsys):
    assert main(["simulate", "--scenario", "hover", "--out", str(tmp_path / "x"),
                 "--set", "imu_rate=100", "--set", "odom_rate=200"]) == 2
    assert "odom_rate 200.0 must not exceed imu_rate 100.0" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("settings", [["duration=1e300", "imu_rate=1e10"], ["duration=0.001"]],
                         ids=["overflowing-steps", "under-half-a-step"])
def test_an_imu_grid_of_no_step_or_of_overflowing_steps_exits_2(settings, tmp_path, capsys):
    argv = ["simulate", "--scenario", "waypoints", "--out", str(tmp_path / "x")]
    assert main(argv + [item for setting in settings for item in ("--set", setting)]) == 2
    assert "configuration error: duration * imu_rate must give 1 to" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("setting", ["noise_std=inf", "imu_accel_std=inf",
                                     "imu_gyro_std=inf"])
def test_an_infinite_noise_std_exits_2(setting, tmp_path, capsys):
    assert main(["simulate", "--scenario", "hover", "--out", str(tmp_path / "x"),
                 "--set", setting]) == 2
    assert "must be non-negative and finite, got inf" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_a_noise_std_whose_orientation_noise_overflows_exits_2(tmp_path, capsys):
    # RunConfig.validate refuses it: the rotation vector's squared norm would overflow.
    assert main(["simulate", "--scenario", "hover", "--out", str(tmp_path / "x"),
                 "--set", "noise_std=1e200"]) == 2
    err = capsys.readouterr().err
    assert err == "configuration error: noise_std must be at most 1e+150, got 1e+200\n"
    assert not (tmp_path / "x").exists()
    assert main(["simulate", "--scenario", "hover", "--out", str(tmp_path / "y"),
                 "--set", "noise_std=1e150", "--set", "duration=1"]) == 0


@pytest.mark.parametrize("setting", ["q0=nan", "p0=inf"])
def test_non_finite_noise_scale_is_a_config_error(setting, capsys):
    assert main(["fuse", "--scenario", "hover", "--filter", "mcckf",
                 "--set", setting, "--set", "duration=3"]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_exit_code_3_on_data_problems(tmp_path, capsys):
    assert main(["fuse", "--dataset", str(tmp_path / "missing.csv")]) == 3
    assert "data error" in capsys.readouterr().err
    mangled = tmp_path / "mangled.csv"
    mangled.write_text("time_s,kind\n")
    assert main(["fuse", "--dataset", str(mangled)]) == 3


def test_a_covariance_overflow_exits_3(tmp_path, capsys):
    sim_out = tmp_path / "sim"
    assert main(["simulate", "--scenario", "hover", "--seed", "1", "--out", str(sim_out),
                 "--set", "duration=2.0"]) == 0
    rows = (sim_out / "dataset.csv").read_text().splitlines(keepends=True)
    first = next(i for i, row in enumerate(rows)
                 if ",imu," in row and float(row.split(",", 1)[0]) > 0.5)
    fields = rows[first].split(",")
    fields[3] = "1e200"  # d0, the x specific force
    rows[first] = ",".join(fields)
    huge = tmp_path / "huge.csv"
    huge.write_text("".join(rows))
    capsys.readouterr()
    # F P F^T overflows to inf and symmetrizing inf + -inf makes a NaN, both
    # silently: the filterwarnings setting turns a leaked RuntimeWarning into an error.
    assert main(["fuse", "--dataset", str(huge)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: non-finite variance after propagation")
    assert len(err.splitlines()) == 1


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


def simulate_hover(out, duration, sensors):
    assert main(["simulate", "--scenario", "hover", "--seed", "1", "--out", str(out),
                 "--set", f"duration={duration}", "--set", f"sensors={sensors}"]) == 0
    return out / "dataset.csv", out / "truth.csv"


@pytest.mark.parametrize("command,flag,content,code,error", [
    ("fuse", "--config", None, 2, "configuration error: cannot read config file"),
    ("fuse", "--config", b"scenario = \xff\n", 2, "configuration error: cannot read config file"),
    ("fuse", "--dataset", None, 3, "data error: cannot read"),
    ("fuse", "--dataset", b"\xfftime_s\n", 3, "data error: cannot read"),
    ("fuse", "--truth", None, 3, "data error: cannot read"),
    ("fuse", "--truth", b"time_s,\xff\n", 3, "data error: cannot read"),
    ("fuse", "--out", b"", 2, "configuration error: cannot make output directory"),
    ("simulate", "--out", b"", 2, "configuration error: cannot make output directory"),
], ids=["config-directory", "config-not-utf8", "dataset-directory", "dataset-not-utf8",
        "truth-directory", "truth-not-utf8", "fuse-out-file", "simulate-out-file"])
def test_a_path_that_cannot_be_read_or_made_exits_with_its_code(command, flag, content, code,
                                                                error, tmp_path, capsys):
    """A directory (content None) or a file of the bytes given, named where it cannot serve."""
    path = tmp_path / "given"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    argv = [command, flag, str(path), "--set", "duration=1"]
    if flag == "--truth":
        argv += ["--dataset", str(simulate_hover(tmp_path / "sim", 1.0, 1)[0])]
    elif flag != "--dataset":
        argv += ["--scenario", "hover"]
    capsys.readouterr()
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith(error) and str(path) in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["fuse", "compare", "bench", "simulate"])
def test_an_out_that_names_a_file_exits_2_before_the_stream_loads(command, tmp_path, capsys,
                                                                    monkeypatch):
    """Nothing is loaded, fused or printed: the output directory is made first."""
    def refuse(config):
        raise AssertionError("the stream was loaded")

    monkeypatch.setattr("corfuse.experiments.load_stream", refuse)
    monkeypatch.setattr("corfuse.cli.load_stream", refuse)
    path = tmp_path / "given"
    path.write_bytes(b"")
    assert main([command, "--scenario", "hover", "--set", "duration=1",
                 "--out", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("configuration error: cannot make output directory")
    assert str(path) in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize("command,blocked", [
    ("fuse", "estimates.csv"), ("fuse", "metrics.json"), ("compare", "ekf/estimates.csv"),
    ("compare", "comparison.json"), ("bench", "bench.json"), ("simulate", "dataset.csv"),
    ("simulate", "truth.csv")])
def test_an_output_file_that_cannot_be_opened_exits_2_with_its_path(command, blocked,
                                                                    tmp_path, capsys):
    """A directory where an output file goes is a configuration error, not a traceback."""
    out = tmp_path / "out"
    (out / blocked).mkdir(parents=True)
    argv = [command, "--scenario", "hover", "--set", "duration=1", "--set", "sensors=1",
            "--out", str(out)]
    if command in ("compare", "bench"):
        argv += ["--filters", "ekf"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: cannot write {out / blocked}")
    assert "Traceback" not in err


def fuse_metrics(dataset, truth, out, variant):
    assert main(["fuse", "--dataset", str(dataset), "--truth", str(truth),
                 "--filter", variant, "--out", str(out)]) == 0
    return json.loads((out / "metrics.json").read_text())


@pytest.mark.parametrize("case", ["short", "long", "nan", "inf"])
def test_truth_rows_of_the_wrong_length_or_with_non_finite_values_are_data_errors(
        tmp_path, capsys, case):
    dataset, truth = simulate_hover(tmp_path / "sim", duration=1.0, sensors=1)
    lines = truth.read_text().splitlines(keepends=True)
    fields = lines[11].rstrip("\r\n").split(",")  # row 12, at the 0.1 s correction
    assert float(fields[0]) == pytest.approx(0.1)
    fields = {"short": fields[:6], "long": fields + ["0.0"],
              "nan": fields[:1] + ["nan"] + fields[2:],
              "inf": fields[:5] + ["inf"] + fields[6:]}[case]
    lines[11] = ",".join(fields) + "\r\n"
    bad = tmp_path / "truth_bad.csv"
    bad.write_text("".join(lines), newline="")
    with pytest.raises(DataError, match="row 12"):
        read_truth(bad)
    capsys.readouterr()
    assert main(["fuse", "--dataset", str(dataset), "--truth", str(bad),
                 "--filter", "ekf"]) == 3
    assert "row 12" in capsys.readouterr().err


def test_fuse_counts_a_refused_correction_and_exits_0(tmp_path, capsys):
    dataset, truth = simulate_hover(tmp_path / "sim", duration=6.0, sensors=2)
    rows = dataset.read_text().splitlines(keepends=True)
    odom = [i for i, row in enumerate(rows) if ",odom," in row]
    fields = rows[odom[len(odom) // 2]].split(",")
    fields[3] = repr(float(fields[3]) + 1000.0)  # move one position by 1 km
    rows[odom[len(odom) // 2]] = ",".join(fields)
    jumped = tmp_path / "jumped.csv"
    jumped.write_text("".join(rows))
    metrics = fuse_metrics(jumped, truth, tmp_path / "fused", "akf")
    assert metrics["dropped"] == {"non_finite": 0, "out_of_order": 0, "rejected": 1}
    assert metrics["correction_count"] == len(odom) - 1
    assert metrics["rmse_position_total"] < 0.05
    assert "dropped=1" in capsys.readouterr().out


def test_fuse_starts_at_the_first_odometry_row_with_finite_values(tmp_path, capsys):
    dataset, truth = simulate_hover(tmp_path / "sim", duration=2.0, sensors=2)
    rows = dataset.read_text().splitlines(keepends=True)
    first = next(i for i, row in enumerate(rows) if ",odom," in row)
    fields = rows[first].split(",")
    fields[3] = "nan"  # px
    rows[first] = ",".join(fields)
    broken = tmp_path / "broken.csv"
    broken.write_text("".join(rows))
    metrics = fuse_metrics(broken, truth, tmp_path / "fused", "vb-amcckf")
    assert metrics["correction_count"] == sum(",odom," in row for row in rows) - 1
    assert metrics["dropped"] == {"non_finite": 1, "out_of_order": 0, "rejected": 0}
    assert metrics["rmse_position_total"] < 0.05
    estimates = np.loadtxt(tmp_path / "fused" / "estimates.csv", delimiter=",", skiprows=1)
    assert np.isfinite(estimates).all()


def test_fuse_exits_3_when_no_odometry_row_is_finite(tmp_path, capsys):
    dataset, truth = simulate_hover(tmp_path / "sim", duration=1.0, sensors=1)
    rows = dataset.read_text().splitlines(keepends=True)
    for i, row in enumerate(rows):
        if ",odom," in row:
            fields = row.rstrip("\n").split(",")
            fields[3 + i % 9] = "nan"  # one field per row, every field in turn
            rows[i] = ",".join(fields) + "\n"
    broken = tmp_path / "broken.csv"
    broken.write_text("".join(rows))
    capsys.readouterr()
    rc = main(["fuse", "--dataset", str(broken), "--filter", "ekf"])
    assert rc == 3
    assert "finite" in capsys.readouterr().err


def test_fuse_reports_corrections_the_truth_file_cannot_score(tmp_path, capsys):
    dataset, truth = simulate_hover(tmp_path / "sim", duration=2.0, sensors=1)
    lines = truth.read_text().splitlines(keepends=True)
    shifted = [lines[0]]
    for i, line in enumerate(lines[1:]):
        time, rest = line.split(",", 1)
        shifted.append(f"{float(time) + 1e-4 * i!r},{rest}")
    truth.write_text("".join(shifted))
    capsys.readouterr()
    metrics = fuse_metrics(dataset, truth, tmp_path / "fused", "ekf")
    assert metrics["correction_count"] == 20
    assert metrics["unscored_corrections"] == 20
    assert metrics["rmse_position_total"] is None
    assert "unscored=20" in capsys.readouterr().out


def test_fuse_scores_every_correction_on_an_uneven_truth_grid(tmp_path, capsys):
    dataset, truth = simulate_hover(tmp_path / "sim", duration=2.0, sensors=1)
    full = fuse_metrics(dataset, truth, tmp_path / "full", "ekf")
    odom_times = {row.split(",", 1)[0] for row in dataset.read_text().splitlines()
                  if ",odom," in row}
    lines = truth.read_text().splitlines(keepends=True)
    # Keep the header, every odometry time and an uneven pattern of the rest.
    kept = [line for i, line in enumerate(lines)
            if i < 2 or line.split(",", 1)[0] in odom_times or i % 3 == 0 or i % 7 == 0]
    uneven = tmp_path / "uneven.csv"
    uneven.write_text("".join(kept))
    metrics = fuse_metrics(dataset, uneven, tmp_path / "uneven", "ekf")
    assert metrics["unscored_corrections"] == full["unscored_corrections"] == 0
    assert metrics["rmse_position_total"] == full["rmse_position_total"]
    assert metrics["nees_mean"] == full["nees_mean"]
    assert "unscored" not in capsys.readouterr().out


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


@pytest.mark.parametrize("command", ["compare", "bench"])
def test_an_empty_variant_list_exits_2(command, capsys):
    rc = main([command, "--scenario", "hover", "--filters", ",",
               "--set", "duration=1.0", "--set", "sensors=1"])
    assert rc == 2
    captured = capsys.readouterr()
    assert "configuration error" in captured.err and "variant" in captured.err
    assert "rmse_pos" not in captured.out


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


def test_bench_exits_2_on_bad_windows_or_repeats(capsys):
    base = ["bench", "--scenario", "hover", "--filters", "ekf",
            "--set", "duration=1.0", "--set", "sensors=1"]
    assert main(base + ["--windows", "10,x"]) == 2
    assert "configuration error" in capsys.readouterr().err
    assert main(base + ["--repeats", "0"]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "repeats" in err
    assert main(base + ["--windows", ","]) == 2  # an empty table is no result
    assert "configuration error" in capsys.readouterr().err


def test_bench_exits_2_on_a_stream_without_odometry(capsys):
    assert main(["bench", "--scenario", "hover", "--filters", "ekf",
                 "--set", "duration=1.0", "--set", "odom_rate=1e-5"]) == 2
    captured = capsys.readouterr()
    assert "configuration error" in captured.err and "no odometry" in captured.err
    assert captured.out == ""


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
