#!/usr/bin/env python3
"""Paired A/B runs of the benchmark of record, with a trajectory.

    python3 benchmarks/ab.py PARENT CHANGE              # 10 pairs, full length
    python3 benchmarks/ab.py HEAD HEAD --pairs 1 --smoke --history smoke-history.jsonl

Both refs are exported with ``git archive`` and each export runs its own
``benchmarks/e2e/run.py --trace 0``; pairs alternate which side goes first.
Every run appends one line (commit, seed, side, the end-to-end metrics of all
four workloads) to the history file, so numbers accumulate instead of being
overwritten in place.  The summary applies the rule of the
``simplicity-review`` guide per metric x workload (DESIGN.md, "Measurement").
Nothing here gates: the exit code is non-zero only when a run failed its own
output checks.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def export(ref: str, target: Path) -> str:
    """``git archive`` one ref into ``target``; returns the short commit id."""
    commit = subprocess.run(
        ["git", "rev-parse", "--short", f"{ref}^{{commit}}"],
        cwd=ROOT, check=True, capture_output=True, text=True,
    ).stdout.strip()
    target.mkdir(parents=True)
    # An archive that fails feeds tar nothing, which fails the check.
    subprocess.run(f"git archive {commit} | tar -x -C '{target}'",
                   shell=True, cwd=ROOT, check=True)
    return commit


def run_once(tree: Path, seed: int, smoke: bool) -> dict:
    """One untraced run of all four workloads in ``tree``; the result line."""
    argv = [sys.executable, "benchmarks/e2e/run.py", "--trace", "0", "--seed", str(seed)]
    if smoke:
        argv.append("--smoke")
    completed = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = completed.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        raise SystemExit(
            f"{tree}: run.py produced no result line (exit {completed.returncode})\n"
            + completed.stdout[-2000:] + completed.stderr[-2000:]
        ) from None


def quartile_spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def summarize(rows: list[dict], manifest: dict) -> list[dict]:
    """Per metric x workload verdicts from the history rows of complete pairs."""
    runs = {side: sorted((r for r in rows if r["side"] == side), key=lambda r: r["pair"])
            for side in SIDES}
    table = []
    for workload in manifest["workloads"]:
        for metric in manifest["end_to_end"]:
            key = f"{workload['name']}/{metric['name']}"
            sign = 1.0 if metric["better"] == "higher" else -1.0
            parent = [run["metrics"][key] for run in runs["parent"]]
            change = [run["metrics"][key] for run in runs["change"]]
            wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
            parent_median = statistics.median(parent)
            change_median = statistics.median(change)
            spread = quartile_spread(parent)
            scale = abs(parent_median) or 1.0
            worse_by = sign * (parent_median - change_median) / scale
            if worse_by > metric["bound"]:
                verdict = "OUTSIDE bound"
            elif spread / scale > metric["bound"]:
                verdict = "unresolved (parent spread > bound)"
            else:
                verdict = "within bound"
            table.append({
                "workload": workload["name"], "metric": metric["name"],
                "wins": wins, "pairs": len(parent),
                "parent_median": parent_median, "change_median": change_median,
                "parent_iqr": spread, "worse_by": worse_by, "bound": metric["bound"],
                "verdict": verdict,
            })
    return table


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="git ref of the baseline")
    parser.add_argument("change", help="git ref under test")
    parser.add_argument("--pairs", type=int, default=10)
    frozen = json.loads((ROOT / "benchmarks" / "e2e" / "workloads.json").read_text())
    parser.add_argument("--seed", type=int, default=frozen["default_seed"],
                        help="workload seed (default: the benchmark's own)")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes: proves it runs")
    parser.add_argument("--history", type=Path, default=ROOT / "benchmarks" / "history.jsonl",
                        help="JSON-lines file every run is appended to")
    args = parser.parse_args()

    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = []
    all_correct = True
    with tempfile.TemporaryDirectory(prefix="repro-ab-") as scratch:
        trees = {side: Path(scratch) / side for side in SIDES}
        commits = {side: export(ref, trees[side])
                   for side, ref in zip(SIDES, (args.parent, args.change))}
        for pair in range(args.pairs):
            for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
                result = run_once(trees[side], args.seed, args.smoke)
                all_correct &= bool(result["correct"])
                row = {
                    "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
                    "commit": commits[side], "side": side, "pair": pair,
                    "seed": args.seed, "smoke": args.smoke, "correct": result["correct"],
                    "metrics": {name: float(f"{metric['value']:.6g}")
                                for name, metric in result["metrics"].items()},
                }
                rows.append(row)
                with args.history.open("a") as history:
                    history.write(json.dumps(row, sort_keys=True) + "\n")
                print(f"pair {pair} {side} {commits[side]} correct={row['correct']}", flush=True)

    print(f"\n{commits['parent']} (parent) vs {commits['change']} (change), "
          f"{args.pairs} pairs, seed {args.seed}, history in {args.history}")
    print(f"{'workload':12s} {'metric':18s} {'wins':>6s} {'parent median':>14s} "
          f"{'change median':>14s} {'parent IQR':>11s} {'worse by':>9s} {'bound':>6s}  verdict")
    for line in summarize(rows, manifest):
        print(f"{line['workload']:12s} {line['metric']:18s} "
              f"{line['wins']:>3d}/{line['pairs']:<2d} {line['parent_median']:14.6g} "
              f"{line['change_median']:14.6g} {line['parent_iqr']:11.4g} "
              f"{line['worse_by']:+9.1%} {line['bound']:6.1%}  {line['verdict']}")
    return 0 if all_correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
