"""tools/fingerprint.py: the seed, workload, duration and variant flags, the stream line,
and determinism."""

import importlib.util
from pathlib import Path

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
