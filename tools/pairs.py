"""Alternating before/after benchmark pairs: two checkouts, some workloads, N seeds.

Runs ``perfbench/run.py --trace 0`` in a parent checkout and a change
checkout, alternately: pair i runs seed ``--first-seed + i - 1`` in both,
the parent first in odd pairs and the change first in even ones, so a slow
or fast phase of the host falls on both sides alike.  ``--workload`` may be
repeated; the workloads run in turn, each with its own pairs and summary.

    python tools/pairs.py --parent ../before --change . --workload vb_outliers \\
        --workload imu_dense --workload replay_csv --pairs 10 --seconds 30

Every pair is printed as it finishes.  Then, for each end-to-end metric of
``BENCHMARK.json`` (read for names, units and directions; never written):
each side's median and quartiles, the count of pairs the change won, tied
and lost, and whether the medians differ by more than the parent's
interquartile range.  Any run that does not report ``correct`` is flagged.
The reference step time (``calibration.step_us``) of each side is quoted
from the runs' text output.
"""
from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
STEP = re.compile(r"reference step ([0-9.eE+-]+) us")


def end_to_end_metrics(benchmark: Path = ROOT / "BENCHMARK.json") -> list[dict]:
    return json.loads(benchmark.read_text())["end_to_end"]


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run: its report, plus the measured reference step."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        report = {"correct": False, "metrics": {}}
    step = STEP.search(proc.stdout)
    return {"correct": proc.returncode == 0 and bool(report.get("correct")),
            "metrics": {k: v["value"] for k, v in report.get("metrics", {}).items()},
            "step_us": float(step.group(1)) if step else None}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3), interpolated linearly between order statistics."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def summarize(parent: list[Optional[float]], change: list[Optional[float]],
              better: str) -> dict:
    """Pairwise wins and the median shift of one metric; None values are not compared."""
    pairs = [(p, c) for p, c in zip(parent, change) if p is not None and c is not None]
    if not pairs:
        return {"pairs": 0}
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0.0 for p, c in pairs)
    ties = sum(c == p for p, c in pairs)
    p_q1, p_med, p_q3 = quartiles([p for p, _ in pairs])
    c_q1, c_med, c_q3 = quartiles([c for _, c in pairs])
    shift = c_med - p_med
    beyond = abs(shift) > p_q3 - p_q1
    return {"pairs": len(pairs), "wins": wins, "ties": ties, "losses": len(pairs) - wins - ties,
            "parent": (p_q1, p_med, p_q3), "change": (c_q1, c_med, c_q3),
            "median_pct": 100.0 * shift / p_med if p_med else float("nan"),
            "beyond_iqr": beyond, "better": beyond and sign * shift > 0.0}


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout measured first")
    parser.add_argument("--change", type=Path, required=True, help="checkout compared to it")
    parser.add_argument("--workload", action="append", required=True,
                        help="workload to run (repeatable; run in turn)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    for workload in args.workload:
        compare_workload(args, workload)
    return 0


def compare_workload(args: argparse.Namespace, workload: str) -> None:
    """Run one workload's pairs, printing each, then its summary block."""
    metrics = end_to_end_metrics()
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for i in range(1, args.pairs + 1):
        seed = args.first_seed + i - 1
        order = ("parent", "change") if i % 2 else ("change", "parent")
        for side in order:
            checkout = args.parent if side == "parent" else args.change
            runs[side].append(run_once(checkout, workload, seed, args.seconds))
        cells = []
        for m in metrics:
            p, c = (runs[side][-1]["metrics"].get(m["name"]) for side in ("parent", "change"))
            cells.append(f"{m['name']} {p:.6g} -> {c:.6g}" if p is not None and c is not None
                         else f"{m['name']} {p} -> {c}")
        flags = [f"{side} NOT CORRECT" for side in ("parent", "change")
                 if not runs[side][-1]["correct"]]
        print(f"{workload} pair {i} seed {seed} ({order[0]} first): "
              + "; ".join(cells + flags), flush=True)

    print(f"\n{workload}: {args.pairs} pairs of {args.seconds:g} s, "
          f"seeds {args.first_seed}-{args.first_seed + args.pairs - 1}")
    for side in ("parent", "change"):
        steps = [r["step_us"] for r in runs[side] if r["step_us"] is not None]
        wrong = sum(not r["correct"] for r in runs[side])
        print(f"  {side}: reference step median "
              f"{statistics.median(steps) if steps else float('nan'):.4g} us; "
              f"{wrong} run(s) not correct")
    for m in metrics:
        s = summarize(*([r["metrics"].get(m["name"]) for r in runs[side]]
                        for side in ("parent", "change")), m["better"])
        if not s["pairs"]:
            print(f"  {m['name']}: no pair reported it")
            continue
        (p_q1, p_med, p_q3), (c_q1, c_med, c_q3) = s["parent"], s["change"]
        verdict = "yes, better" if s["better"] else "yes, worse" if s["beyond_iqr"] else "no"
        print(f"  {m['name']} ({m['unit']}, {m['better']} is better): "
              f"parent {p_med:.6g} [{p_q1:.6g}, {p_q3:.6g}], "
              f"change {c_med:.6g} [{c_q1:.6g}, {c_q3:.6g}], median {s['median_pct']:+.1f} %; "
              f"change won {s['wins']}, tied {s['ties']}, lost {s['losses']} of {s['pairs']}; "
              f"beyond the parent's IQR: {verdict}")
    sys.stdout.flush()


if __name__ == "__main__":
    sys.exit(main())
