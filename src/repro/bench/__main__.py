"""Command-line entry point for the benchmark scenarios.

Examples
--------
Regenerate the Figure 6/7 refresh-rate table for two queries::

    python -m repro.bench rates --queries Q3 VWAP --events 1000

Trace one query (Figure 8 style)::

    python -m repro.bench trace Q3 --events 2000

Scaling experiment (Figure 11)::

    python -m repro.bench scaling --queries Q3 Q6 --scales 1 2 5

Workload feature table (Figure 2)::

    python -m repro.bench features

Compare the scale-out strategies against per-event HO-IVM::

    python -m repro.bench rates --queries Q1 --strategies dbtoaster \
        dbtoaster-batch dbtoaster-par --batch-size 100 --partitions 4

Per-map / per-partition memory statistics::

    python -m repro.bench stats Q3 --strategy dbtoaster-par --partitions 4

Throughput, latency, freshness, durability and overhead numbers of the whole
stack are the job of ``benchmarks/e2e`` (see ``BENCHMARK.json``), not of this
command.
"""

from __future__ import annotations

import argparse

from repro.bench.report import (
    format_engine_statistics,
    format_feature_table,
    format_refresh_rate_table,
    format_scaling_table,
    format_speedup_summary,
    format_trace,
)
from repro.bench.scenarios import (
    DEFAULT_STRATEGIES,
    run_ablation,
    run_engine_statistics,
    run_refresh_rate_table,
    run_scaling,
    run_trace_figure,
    workload_feature_table,
)
from repro.workloads import all_workloads


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's tables and figures from the command line.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    rates = sub.add_parser("rates", help="Figure 6/7: refresh rates per query and strategy")
    rates.add_argument("--queries", nargs="*", default=None, help="default: all workload queries")
    rates.add_argument("--strategies", nargs="*", default=list(DEFAULT_STRATEGIES))
    rates.add_argument("--events", type=int, default=1500)
    rates.add_argument("--budget", type=float, default=5.0, help="seconds per (query, strategy) run")
    rates.add_argument("--batch-size", type=int, default=None,
                       help="delta batch size for the dbtoaster-batch/-par strategies")
    rates.add_argument("--partitions", type=int, default=None,
                       help="partition count for the dbtoaster-par strategy")
    rates.add_argument("--backend", choices=["sequential", "process"], default=None,
                       help="partition placement for the dbtoaster-par strategy")

    trace = sub.add_parser("trace", help="Figures 8-10: time/rate/memory trace for one query")
    trace.add_argument("query")
    trace.add_argument("--strategies", nargs="*", default=["dbtoaster", "ivm"])
    trace.add_argument("--events", type=int, default=2000)
    trace.add_argument("--samples", type=int, default=20)
    trace.add_argument("--budget", type=float, default=30.0)

    scaling = sub.add_parser("scaling", help="Figure 11: refresh rate vs scale factor")
    scaling.add_argument("--queries", nargs="*", default=None)
    scaling.add_argument("--scales", nargs="*", type=float, default=[1.0, 2.0, 5.0, 10.0])
    scaling.add_argument("--events-per-unit", type=int, default=800)

    ablation = sub.add_parser("ablation", help="Effect of individual compiler heuristics")
    ablation.add_argument("query")
    ablation.add_argument("--events", type=int, default=1200)

    stats = sub.add_parser("stats", help="Per-map / per-partition memory statistics")
    stats.add_argument("query")
    stats.add_argument("--strategy", default="dbtoaster")
    stats.add_argument("--events", type=int, default=1000)
    stats.add_argument("--batch-size", type=int, default=None)
    stats.add_argument("--partitions", type=int, default=None)
    stats.add_argument("--backend", choices=["sequential", "process"], default=None)
    stats.add_argument("--json", action="store_true",
                       help="emit the engine's statistics document (repro.stats/1) "
                            "as JSON instead of the formatted table")

    sub.add_parser("features", help="Figure 2: workload features and compiled-program stats")
    sub.add_parser("list", help="List the available workload queries")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)

    if args.command == "list":
        for name, spec in sorted(all_workloads().items()):
            print(f"{name:8s} {spec.family:8s} {spec.description}")
        return 0

    if args.command == "rates":
        results = run_refresh_rate_table(
            queries=args.queries,
            strategies=tuple(args.strategies),
            events=args.events,
            max_seconds_per_run=args.budget,
            engine_config={
                "batch_size": args.batch_size,
                "partitions": args.partitions,
                "backend": args.backend,
            },
        )
        print(format_refresh_rate_table(results, tuple(args.strategies)))
        if "rep" in args.strategies and "dbtoaster" in args.strategies:
            print()
            print(format_speedup_summary(results, baseline="rep"))
        return 0

    if args.command == "trace":
        traces = run_trace_figure(
            args.query,
            strategies=tuple(args.strategies),
            events=args.events,
            samples=args.samples,
            max_seconds_per_run=args.budget,
        )
        for trace in traces.values():
            print(format_trace(trace))
            print()
        return 0

    if args.command == "scaling":
        results = run_scaling(
            queries=tuple(args.queries) if args.queries else ("Q1", "Q3", "Q6", "Q11a"),
            scales=tuple(args.scales),
            events_per_scale_unit=args.events_per_unit,
        )
        print(format_scaling_table(results, base_scale=min(args.scales)))
        return 0

    if args.command == "ablation":
        results = run_ablation(args.query, events=args.events)
        for label, result in results.items():
            print(f"{label:22s} {result.refresh_rate:12,.1f} refreshes/s")
        return 0

    if args.command == "stats":
        statistics = run_engine_statistics(
            args.query,
            strategy=args.strategy,
            events=args.events,
            engine_config={
                "batch_size": args.batch_size,
                "partitions": args.partitions,
                "backend": args.backend,
            },
        )
        if args.json:
            import json

            print(json.dumps(statistics, indent=2, sort_keys=True, default=str))
        else:
            print(format_engine_statistics(statistics, f"{args.query} / {args.strategy}"))
        return 0

    if args.command == "features":
        print(format_feature_table(workload_feature_table()))
        return 0

    return 1


if __name__ == "__main__":
    raise SystemExit(main())
