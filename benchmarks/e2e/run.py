#!/usr/bin/env python3
"""The repository's benchmark: four workloads, end to end and layer by layer.

    python3 benchmarks/e2e/run.py                       # everything, untraced then traced
    python3 benchmarks/e2e/run.py --workload serve_live --seed 7 --seconds 24 --trace 0
    python3 benchmarks/e2e/run.py --aa                  # the untraced set twice, with spreads
    python3 benchmarks/e2e/run.py --smoke               # tiny sizes, a few seconds

Every metric is printed by name with its unit; the last line of standard
output is one JSON object (``correct``, ``attempted``, ``failed``,
``metrics``).  The exit code is non-zero when any output check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent


def log(message: str = "") -> None:
    print(message, flush=True)


def pin_hash_seed() -> None:
    """Re-exec with ``PYTHONHASHSEED=0``: set and dict-of-string orders, hence the
    layout of generated kernels, then repeat from run to run."""
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])


def environment(seed: int, smoke: bool) -> None:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent (the vector backend falls back to scalar)"
    log(f"nproc={os.cpu_count()} python={platform.python_version()} numpy={numpy_version} "
        f"seed={seed} smoke={smoke}")


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """One workload, one pass; returns the result line's dictionary."""
    import embed
    import inputs
    import metrics
    import pipeline
    import served

    started = perf_counter()
    streams = inputs.Streams(seed, smoke)
    log(f"== {name} ({'traced' if trace else 'untraced'}, seed {seed}, {seconds:g}s)")
    if trace:
        if name in (embed.EVENT, embed.BATCH):
            result = embed.run_traced(name, streams, log)
        elif name == "serve_bulk":
            result = pipeline.traced_bulk(streams, log)
        else:
            result = pipeline.traced_live(streams, seconds, log)
        result["tracer"].write(served.OUT / f"trace-{name}.jsonl")
        units = metrics.LAYER_UNITS
        values = {key: 0 for key in units}  # a layer the workload never enters reads 0
        values.update(result["metrics"])
        values["failed_frac"] = result["failed"] / max(1, result["attempted"])
    else:
        if name in (embed.EVENT, embed.BATCH):
            result = embed.run(name, streams, seconds, log)
        elif name == "serve_bulk":
            result = served.run_bulk(streams, seconds, log)
        else:
            result = served.run_live(streams, seconds, log)
        units = metrics.E2E_UNITS
        values = dict(result["metrics"])
        values["ok_frac"] = 1.0 - result["failed"] / max(1, result["attempted"])
    unknown = set(values) - set(units)
    if unknown or set(units) - set(values):
        raise SystemExit(f"metric names out of step with metrics.py: "
                         f"{sorted(unknown)} / {sorted(set(units) - set(values))}")
    for problem in result["problems"][:20]:
        log(f"  FAILED {problem}")
    for key in units:
        log(f"  {key:42s} {values[key]:16.6g} {units[key]}")
    log(f"  ({name} took {perf_counter() - started:.1f}s)")
    return {
        "correct": result["failed"] == 0,
        "attempted": max(1, int(result["attempted"])),
        "failed": int(result["failed"]),
        "metrics": {key: {"value": values[key], "unit": units[key]} for key in units},
    }


def run_aa(names, seed: int, seconds: float, smoke: bool) -> bool:
    """The untraced set twice, in alternating order; per metric and workload both
    values, their distance as a share of the first, and pass/fail at the bound."""
    import metrics

    rounds = []
    for order in (names, list(reversed(names))):
        rounds.append({name: run_workload(name, seed, seconds, False, smoke) for name in order})
    passed = all(r[name]["correct"] for r in rounds for name in names)
    log("== A/A: two rounds of the same code")
    log(f"  {'workload':12s} {'metric':20s} {'first':>14s} {'second':>14s} {'worse by':>9s} "
        f"{'bound':>6s}")
    for name in names:
        for metric, unit, better, bound in metrics.END_TO_END:
            first = rounds[0][name]["metrics"][metric]["value"]
            second = rounds[1][name]["metrics"][metric]["value"]
            worse = (second - first) / first if better == metrics.LOWER else (first - second) / first
            verdict = "ok" if abs(worse) <= bound else "OUTSIDE"
            passed &= verdict == "ok"
            log(f"  {name:12s} {metric:20s} {first:14.6g} {second:14.6g} {worse:+9.2%} "
                f"{bound:6.1%} {verdict}")
    return passed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        help="embed_event, embed_batch, serve_bulk, serve_live or all")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", choices=["0", "1"], default=None,
                        help="0: end-to-end metrics, 1: per-layer metrics (default: both)")
    parser.add_argument("--aa", action="store_true", help="run the untraced set twice")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, seconds not minutes")
    parser.add_argument("--manifest", action="store_true", help="print BENCHMARK.json and exit")
    args = parser.parse_args()

    pin_hash_seed()
    sys.path.insert(0, str(HERE))
    import inputs
    import metrics

    if args.manifest:
        print(json.dumps(metrics.manifest(RUN_SECONDS), indent=2))
        return 0
    seed = inputs.FROZEN["default_seed"] if args.seed is None else args.seed
    seconds = args.seconds if args.seconds is not None else (SMOKE_SECONDS if args.smoke else RUN_SECONDS)
    names = [name for name, _ in metrics.WORKLOADS]
    if args.workload != "all":
        if args.workload not in names:
            parser.error(f"unknown workload {args.workload!r}; expected one of {names}")
        names = [args.workload]
    environment(seed, args.smoke)

    if args.aa:
        passed = run_aa(names, seed, seconds, args.smoke)
        log(json.dumps({"aa_passed": passed}))
        return 0 if passed else 1

    passes = [False, True] if args.trace is None else [args.trace == "1"]
    results = {}
    for trace in passes:
        for name in names:
            results[(name, trace)] = run_workload(name, seed, seconds, trace, args.smoke)
    if len(results) == 1:
        (final,) = results.values()
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}/{key}": value
                for (name, _), r in results.items() for key, value in r["metrics"].items()
            },
        }
    print(json.dumps(final), flush=True)
    return 0 if final["correct"] else 1


#: ``run_seconds`` of BENCHMARK.json: the measuring time of one run.
RUN_SECONDS = 28
SMOKE_SECONDS = 1.0

if __name__ == "__main__":
    raise SystemExit(main())
