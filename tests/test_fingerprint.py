"""tools/fingerprint.py: the seed, workload, duration and variant flags, the stream line,
determinism, and the --dump/--against comparison."""

import importlib.util
from pathlib import Path

import numpy as np

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
    assert len(outputs[0]) == 1 + len(VARIANTS) == 6
    for line, variant in zip(outputs[0], ("stream",) + VARIANTS):
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
    # the stream line, then the picked variants in the order given
    assert [line.split()[1] for line in picked] == ["stream", "vb-amcckf", "ekf"]
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
    assert same[0] == dumped[0]  # the stream line gets no figures
    assert same[1] == dumped[1] + " dpos=0 dcov=0"

    # move one row's position by (3, 4, 0) nm and halve one covariance entry of another
    rows[7, [ESTIMATE_HEADER.index("px"), ESTIMATE_HEADER.index("py")]] += [3e-9, 4e-9]
    rows[9, ESTIMATE_HEADER.index("c4")] *= 0.5
    np.save(saved, rows)
    assert module.main(flags + ["--against", str(tmp_path)]) == 0
    line = capsys.readouterr().out.splitlines()[1]
    assert line == dumped[1] + " dpos=5e-09 dcov=1"
