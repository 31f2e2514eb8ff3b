"""Command-line front end.

Subcommands:

    simulate   synthesize a scenario and write dataset + truth CSVs
    fuse       run one filter variant over a scenario or dataset
    compare    run several variants on the identical stream
    bench      CPU time per correction across variants and window lengths

Configuration comes from an optional key=value text file (via --config),
then repeatable --set KEY=VALUE items, then the flags; a later source
wins.  Exit codes: 0 on success, 2 for configuration/validation problems,
3 for data problems (a covariance overflow included).
"""
from __future__ import annotations

import argparse
import dataclasses
import sys
import typing
import warnings
from pathlib import Path
from typing import Optional

from .dataset import write_events, write_truth
from .errors import ConfigError, DataError, PropagationError
from .eskf import VARIANTS
from .experiments import RunConfig, bench, compare, load_stream, run_experiment, write_json
from .sim import TRAJECTORIES

_BOOL_STRINGS = {"true": True, "1": True, "yes": True,
                 "false": False, "0": False, "no": False}


def _split(text: str, error: str) -> tuple[str, str]:
    """``text`` split at its first '=' into a stripped key and value; ConfigError(error) if none."""
    if "=" not in text:
        raise ConfigError(error)
    key, value = text.split("=", 1)
    return key.strip(), value.strip()


def load_config_file(path: str) -> dict[str, str]:
    """Parse a key = value config file; '#' starts a comment."""
    file = Path(path)
    if not file.exists():
        raise ConfigError(f"config file not found: {path}")
    entries: dict[str, str] = {}
    for line_num, raw in enumerate(file.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            key, value = _split(line, f"line {line_num} of {path} is not 'key = value': {raw!r}")
            entries[key] = value
    return entries


def parse_assignments(items: list[str]) -> dict[str, str]:
    """``--set`` arguments as config entries; a later KEY wins."""
    return dict(_split(item, f"--set expects KEY=VALUE, got {item!r}") for item in items)


def _coerce(name: str, value: str, target_type) -> object:
    try:
        if target_type is bool:
            lowered = value.lower()
            if lowered not in _BOOL_STRINGS:
                raise ValueError(f"expected a boolean, got {value!r}")
            return _BOOL_STRINGS[lowered]
        if target_type is int:
            return int(value)
        if target_type is float:
            return float(value)
        return value
    except ValueError as exc:
        raise ConfigError(f"bad value for '{name}': {exc}") from None


# Config key -> value type, read off RunConfig's annotations; every Optional
# field is a str, which _coerce passes through.  Per-sensor noise overrides
# arrive as "r0.<sensor>" keys instead of r0_overrides.
_SIMPLE_TYPES = {name: hint for name, hint in typing.get_type_hints(RunConfig).items()
                 if name != "r0_overrides"}


def apply_entries(config: RunConfig, entries: dict[str, str]) -> RunConfig:
    """Set config-file style entries on ``config``, coercing each to its field's type."""
    for key, raw in entries.items():
        if key.startswith("r0."):
            sensor = key[3:]
            config.r0_overrides[sensor] = float(_coerce(key, raw, float))
            continue
        if key not in _SIMPLE_TYPES:
            raise ConfigError(f"unknown config key '{key}'")
        setattr(config, key, _coerce(key, raw, _SIMPLE_TYPES[key]))
    return config


def _common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key = value configuration file")
    parser.add_argument("--seed", type=int, help="random seed")
    parser.add_argument("--scenario", choices=tuple(TRAJECTORIES), help="synthetic scenario name")
    parser.add_argument("--dataset", help="event CSV to fuse instead of a scenario")
    parser.add_argument("--truth", help="truth CSV for dataset-mode metrics")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override any config key (repeatable)")


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    """The run's settings: the --config file, then --set items, then the flags; later wins."""
    entries = load_config_file(args.config) if args.config else {}
    entries.update(parse_assignments(args.set))
    entries.update((key, str(value)) for key, value in vars(args).items()
                   if key in _SIMPLE_TYPES and value is not None)
    return apply_entries(RunConfig(), entries)


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    if config.scenario is None:
        raise ConfigError("simulate requires a scenario")
    if config.out is None:
        raise ConfigError("simulate requires --out")
    config.dataset = None
    events, truth, _, _ = load_stream(config)
    out_dir = Path(config.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_events(out_dir / "dataset.csv", events)
    write_truth(out_dir / "truth.csv", truth)
    print(f"wrote {len(events)} events to {out_dir / 'dataset.csv'}")
    return 0


def _cmd_fuse(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    result = run_experiment(config)
    metrics = result.metrics
    line = (f"{metrics.variant}: {metrics.correction_count} corrections, "
            f"dropped={sum(metrics.dropped.values())}")
    if metrics.unscored_corrections:
        line += f", unscored={metrics.unscored_corrections} (no truth row at their times)"
    if metrics.rmse_position_total is not None:
        line += (f", rmse_pos={metrics.rmse_position_total:.4f} m"
                 f", rmse_vel={metrics.rmse_velocity_total:.4f} m/s"
                 f", nees={metrics.nees_mean:.2f}")
    print(line)
    if config.out:
        print(f"outputs in {config.out}")
    return 0


def _variants(text: str) -> list[str]:
    """Parse a comma-separated variant list, rejecting unknown names and an empty list."""
    variants = [v.strip() for v in text.split(",") if v.strip()]
    if not variants:
        raise ConfigError(f"no filter variant in '{text}'")
    for variant in variants:
        if variant not in VARIANTS:
            raise ConfigError(f"unknown filter variant '{variant}'")
    return variants


def _cmd_compare(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    results = compare(config, _variants(args.filters))
    header = f"{'variant':<12}{'rmse_pos':>12}{'rmse_vel':>12}{'nees':>10}{'dropped':>9}"
    print(header)
    summary = {}
    for variant, result in results.items():
        m = result.metrics
        pos = f"{m.rmse_position_total:.4f}" if m.rmse_position_total is not None else "n/a"
        vel = f"{m.rmse_velocity_total:.4f}" if m.rmse_velocity_total is not None else "n/a"
        nees = f"{m.nees_mean:.2f}" if m.nees_mean is not None else "n/a"
        print(f"{variant:<12}{pos:>12}{vel:>12}{nees:>10}{sum(m.dropped.values()):>9}")
        summary[variant] = dataclasses.asdict(m)
    if config.out:
        write_json(Path(config.out) / "comparison.json", summary)
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    variants = _variants(args.filters)
    try:
        windows = [int(w) for w in args.windows.split(",") if w.strip()]
    except ValueError:
        raise ConfigError(f"window lengths must be integers, got '{args.windows}'") from None
    rows = bench(config, variants, windows, repeats=args.repeats)
    print(f"{'variant':<12}{'window':>7}{'repeat':>7}{'odom':>6}{'mean_us':>10}{'max_us':>10}")
    for row in rows:
        print(f"{row['variant']:<12}{row['window']:>7}{row['repeat']:>7}{row['odometry_events']:>6}"
              f"{row['mean_ns'] / 1e3:>10.1f}{row['max_ns'] / 1e3:>10.1f}")
    if config.out:
        write_json(Path(config.out) / "bench.json", rows)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="corfuse",
        description="Robust adaptive sensor fusion: simulate, fuse, compare, bench.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="synthesize a dataset from a scenario")
    _common_flags(p_sim)
    p_sim.set_defaults(func=_cmd_simulate)

    p_fuse = sub.add_parser("fuse", help="run one filter over a stream")
    _common_flags(p_fuse)
    p_fuse.add_argument("--filter", choices=VARIANTS, help="filter variant")
    p_fuse.set_defaults(func=_cmd_fuse)

    p_cmp = sub.add_parser("compare", help="run several filters on one stream")
    _common_flags(p_cmp)
    p_cmp.add_argument("--filters", default=",".join(VARIANTS),
                       help="comma-separated variant list")
    p_cmp.set_defaults(func=_cmd_compare)

    p_bench = sub.add_parser("bench", help="time filters across window lengths")
    _common_flags(p_bench)
    p_bench.add_argument("--filters", default="r-amcckf,vb-amcckf",
                         help="comma-separated variant list")
    p_bench.add_argument("--windows", default="10", help="comma-separated window lengths")
    p_bench.add_argument("--repeats", type=int, default=1)
    p_bench.set_defaults(func=_cmd_bench)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # A covariance overflow is reported by its PropagationError alone, without
        # the overflow and invalid-value warnings NumPy raises inside the
        # propagation ahead of it; warnings from any other module still show.
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", category=RuntimeWarning,
                                    module=r"corfuse\.filter_core\Z")
            return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (DataError, PropagationError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
