"""Run one pytest node N times in each of two checkouts, alternating which goes first.

Meant for wall-clock tests that pass or fail with the host's load, such as
acceptance 09: run i runs the parent checkout first when i is odd and the
change first when it is even, so a slow or fast phase of the host falls on
both sides alike.

    python tools/alternate.py --parent ../before --change . --runs 25 \\
        --node tests/test_acceptance.py::test_acceptance_09_compute_cost_ordering_and_window_scaling

Every run is a fresh ``python -m pytest -q -s NODE`` in the checkout, with
that checkout's ``src`` on ``PYTHONPATH``.  Each run's outcome (pass, fail,
or error with pytest's exit code) is printed as it finishes, with the
``[acceptance]`` lines the run printed; then the failures per side.
"""
from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path
from typing import Optional

OUTCOMES = {0: "pass", 1: "fail"}


def run_once(checkout: Path, node: str) -> dict:
    """One pytest run of ``node``: its outcome and its ``[acceptance]`` lines."""
    env = dict(os.environ, PYTHONPATH=str(checkout.resolve() / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-s", "-p", "no:cacheprovider", node],
        cwd=checkout, env=env, capture_output=True, text=True, check=False)
    lines = [line.strip() for line in proc.stdout.splitlines()]
    return {"outcome": OUTCOMES.get(proc.returncode, f"error {proc.returncode}"),
            "lines": list(dict.fromkeys(line for line in lines
                                        if line.startswith("[acceptance]")))}


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout run first in run 1")
    parser.add_argument("--change", type=Path, required=True, help="checkout compared to it")
    parser.add_argument("--node", required=True, help="pytest node id, relative to a checkout")
    parser.add_argument("--runs", type=int, default=25, help="runs per side")
    args = parser.parse_args(argv)
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for i in range(1, args.runs + 1):
        order = ("parent", "change") if i % 2 else ("change", "parent")
        for side in order:
            result = run_once(args.parent if side == "parent" else args.change, args.node)
            runs[side].append(result)
            print(f"run {i} {side}: {result['outcome']}", flush=True)
            for line in result["lines"]:
                print(f"  {line}", flush=True)

    print(f"\n{args.node}: {args.runs} runs per side")
    for side in ("parent", "change"):
        failed = [i for i, r in enumerate(runs[side], 1) if r["outcome"] != "pass"]
        print(f"  {side}: {len(failed)} of {args.runs} not passed"
              + (f" (runs {', '.join(map(str, failed))})" if failed else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
