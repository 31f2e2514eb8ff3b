"""tools/fingerprint.py: the seed, workload and duration flags, the stream line, and determinism."""

import importlib.util
from pathlib import Path

from corfuse.eskf import VARIANTS

FINGERPRINT_PATH = Path(__file__).resolve().parent.parent / "tools" / "fingerprint.py"


def test_fingerprint_flags_select_runs_and_output_is_deterministic(capsys):
    spec = importlib.util.spec_from_file_location("fingerprint", FINGERPRINT_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
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
