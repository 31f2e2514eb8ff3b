"""tools/fingerprint.py: the seed, workload, duration and variant flags, the stream and cli
lines, determinism, and the --dump/--against comparison."""

import contextlib
import hashlib
import importlib.util
import io
from pathlib import Path

import numpy as np

from corfuse import cli
from corfuse.dataset import ESTIMATE_HEADER
from corfuse.eskf import VARIANTS

FINGERPRINT_PATH = Path(__file__).resolve().parent.parent / "tools" / "fingerprint.py"


def load_fingerprint():
    spec = importlib.util.spec_from_file_location("fingerprint", FINGERPRINT_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_fingerprint_flags_select_runs_and_output_is_deterministic(capsys):
    module = load_fingerprint()
    outputs = []
    for _ in range(2):
        assert module.main(["--workload", "replay_csv", "--seeds", "4-4",
                            "--duration", "2"]) == 0
        outputs.append(capsys.readouterr().out.splitlines())
    assert outputs[0] == outputs[1]
    assert len(outputs[0]) == 2 + len(VARIANTS) == 7
    for line, variant in zip(outputs[0], ("stream", "cli") + VARIANTS):
        name, got_variant, seed, digest = line.split()
        assert (name, got_variant, seed) == ("replay_csv", variant, "seed=4")
        assert len(digest) == 64 and int(digest, 16) >= 0


def test_variant_flag_repeats_and_keeps_the_lines_of_a_full_run(capsys):
    module = load_fingerprint()
    flags = ["--workload", "vb_outliers", "--seeds", "2-2", "--duration", "1"]
    assert module.main(flags) == 0
    full = capsys.readouterr().out.splitlines()
    assert module.main(flags + ["--variant", "vb-amcckf", "--variant", "ekf"]) == 0
    picked = capsys.readouterr().out.splitlines()
    # the stream and cli lines, then the picked variants in the order given
    assert [line.split()[1] for line in picked] == ["stream", "cli", "vb-amcckf", "ekf"]
    assert set(picked) <= set(full)


def test_dump_and_against_report_the_largest_change_per_run(capsys, tmp_path):
    module = load_fingerprint()
    flags = ["--workload", "vb_outliers", "--seeds", "1-1", "--duration", "1",
             "--variant", "akf"]
    assert module.main(flags + ["--dump", str(tmp_path)]) == 0
    dumped = capsys.readouterr().out.splitlines()
    saved = tmp_path / "vb_outliers_akf_seed1.npy"
    rows = np.load(saved)
    assert rows.shape[1] == len(ESTIMATE_HEADER) and len(rows) > 100

    assert module.main(flags + ["--against", str(tmp_path)]) == 0
    same = capsys.readouterr().out.splitlines()
    assert same[:2] == dumped[:2]  # the stream and cli lines get no figures
    assert same[2] == dumped[2] + " dpos=0 dcov=0"

    # move one row's position by (3, 4, 0) nm and halve one covariance entry of another
    rows[7, [ESTIMATE_HEADER.index("px"), ESTIMATE_HEADER.index("py")]] += [3e-9, 4e-9]
    rows[9, ESTIMATE_HEADER.index("c4")] *= 0.5
    np.save(saved, rows)
    assert module.main(flags + ["--against", str(tmp_path)]) == 0
    line = capsys.readouterr().out.splitlines()[2]
    assert line == dumped[2] + " dpos=5e-09 dcov=1"


def test_cli_line_digests_the_files_the_command_line_writes_from_flags_alone(capsys, tmp_path):
    """The tool's fuse takes its settings from a file, a --set item and a flag; plain flags
    and --set items give the same four files."""
    module = load_fingerprint()
    assert module.main(["--workload", "vb_outliers", "--seeds", "3-3", "--duration", "2",
                        "--variant", "ekf"]) == 0
    name, kind, seed, digest = capsys.readouterr().out.splitlines()[1].split()
    assert (name, kind, seed) == ("vb_outliers", "cli", "seed=3")

    settings = dict(module.WORKLOADS["vb_outliers"].settings, duration=2.0)
    scenario, variant = settings.pop("scenario"), settings.pop("filter")
    sim, fused = tmp_path / "sim", tmp_path / "fused"
    items = [item for key, value in settings.items() for item in ("--set", f"{key}={value}")]
    simulate = ["simulate", "--scenario", scenario, "--seed", "3", "--out", str(sim), *items]
    fuse = ["fuse", "--filter", variant, "--seed", "3", "--dataset", str(sim / "dataset.csv"),
            "--truth", str(sim / "truth.csv"), "--out", str(fused), *items]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(simulate) == 0
        assert cli.main(fuse) == 0
    expected = hashlib.sha256()
    for path in (sim / "dataset.csv", sim / "truth.csv", fused / "estimates.csv",
                 fused / "metrics.json"):
        expected.update(path.read_bytes())
    assert digest == expected.hexdigest()
