"""Many-seed accuracy and consistency sweep on the benchmark workloads' settings.

For every filter variant, runs ``run_experiment`` in memory on the settings
of a ``perfbench`` workload (scenario mode, so no files are written), once
per seed, and prints as JSON, per workload and variant:

- position RMSE (m), attitude RMSE (rad) and mean NEES, each as the
  min/median/max over the seeds;
- the number of corrections the truth could not score, summed over seeds.

Figures are rounded to 3 significant figures, so ``diff`` of two outputs
shows only the cells that moved at that precision:

    python tools/sweep.py --seeds 1-20 > after.json      # in each checkout
    diff before.json after.json

``--workload`` and ``--variant`` may be repeated and default to every
workload and every variant; ``--duration`` shortens the streams (seconds).
``--set KEY=VALUE`` (repeatable) overrides a run-config key on top of the
workload's settings, parsed as ``corfuse --set`` parses it; the overrides
are echoed under ``"set"`` in each workload's entry:

    python tools/sweep.py --seeds 1-20 --variant akf --variant vb-amcckf --set r0=4e-4

``filter``, ``seed`` and ``duration`` have their own flags and cannot be
set.  Every run's settings are validated before the first run, so a bad
``--set`` exits 2 before any work is done.  Everything runs in one
process; seeds 1-20 over the three workloads and five variants take about
18 minutes on one core.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from corfuse.cli import apply_entries, parse_assignments  # noqa: E402
from corfuse.errors import ConfigError  # noqa: E402
from corfuse.eskf import VARIANTS  # noqa: E402
from corfuse.experiments import RunConfig, run_experiment  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Run-config keys that the sweep sets from its own flags.
OWN_FLAGS = {"filter": "--variant", "seed": "--seeds", "duration": "--duration"}

STATS = (("rmse_position_m", "rmse_position_total"),
         ("rmse_attitude_rad", "rmse_orientation_total"),
         ("nees", "nees_mean"))


def _round(x: float) -> float:
    return float(f"{x:.3g}")


def _spread(values: list[float]) -> Optional[dict[str, float]]:
    if not values:
        return None
    return {"min": _round(min(values)), "median": _round(float(np.median(values))),
            "max": _round(max(values))}


def run_config(settings: dict, duration: float, variant: str, seed: int,
               entries: Optional[dict[str, str]] = None) -> RunConfig:
    """A workload's settings for one run, with ``--set`` style ``entries`` applied."""
    config = RunConfig(**{**settings, "filter": variant, "seed": seed, "duration": duration})
    return apply_entries(config, entries or {})


def sweep_variant(settings: dict, duration: float, variant: str, seeds: list[int],
                  entries: Optional[dict[str, str]] = None) -> dict:
    """Spread of each statistic over ``seeds``, with ``--set`` style ``entries`` applied."""
    reports = [run_experiment(run_config(settings, duration, variant, seed, entries)).metrics
               for seed in seeds]
    out = {name: _spread([getattr(m, field) for m in reports
                          if getattr(m, field) is not None])
           for name, field in STATS}
    out["unscored_corrections"] = sum(m.unscored_corrections for m in reports)
    return out


def parse_seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range '{text}'")
    return seeds


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=list(WORKLOADS))
    parser.add_argument("--seeds", type=parse_seeds, required=True, help="A-B, inclusive")
    parser.add_argument("--duration", type=float, help="stream length in seconds")
    parser.add_argument("--variant", action="append", choices=VARIANTS,
                        help="filter variant (repeatable; default all)")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override a run-config key, as corfuse --set (repeatable)")
    args = parser.parse_args(argv)
    try:
        entries = parse_assignments(args.set)
    except ConfigError as exc:
        parser.error(str(exc))
    for key in entries:
        if key in OWN_FLAGS:
            parser.error(f"--set {key} is not allowed; use {OWN_FLAGS[key]}")
    names, variants = args.workload or list(WORKLOADS), args.variant or VARIANTS
    for name in names:
        workload = WORKLOADS[name]
        for variant in variants:
            for seed in args.seeds:
                try:
                    run_config(workload.settings, args.duration or workload.duration, variant,
                               seed, entries).validate()
                except ConfigError as exc:
                    parser.error(f"{name} with {variant}: {exc}")
    result = {}
    for name in names:
        workload = WORKLOADS[name]
        duration = args.duration or workload.duration
        result[name] = {"seeds": f"{args.seeds[0]}-{args.seeds[-1]}", "duration_s": duration}
        if entries:
            result[name]["set"] = entries
        for variant in variants:
            result[name][variant] = sweep_variant(workload.settings, duration, variant,
                                                  args.seeds, entries)
    print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
