"""Live profiling CLI: inspect a running view server's telemetry.

Point it at a server started with ``python -m repro.service serve
--telemetry`` (or ``REPRO_TELEMETRY=1``)::

    python -m repro.telemetry summary --port 7641
    python -m repro.telemetry top-triggers -n 10 --port 7641
    python -m repro.telemetry watch --interval 2 --port 7641
    python -m repro.telemetry dump --prom --port 7641

``summary`` prints the headline health figures (event rates, per-trigger
latency quantiles, service staleness, subscription lag); ``top-triggers``
ranks triggers by total time spent; ``watch`` refreshes the summary
periodically with interval deltas; ``dump`` emits the raw JSON snapshot or
the Prometheus text exposition for piping into other tools.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Any


def _connect(args: argparse.Namespace):
    from repro.service.client import ServiceClient

    return ServiceClient(args.host, args.port, timeout=args.timeout)


def _fetch(args: argparse.Namespace) -> dict[str, Any]:
    with _connect(args) as client:
        return client.metrics()


def _fmt_seconds(value: float | None) -> str:
    if value is None:
        return "-"
    if value >= 1.0:
        return f"{value:.3f}s"
    if value >= 1e-3:
        return f"{value * 1e3:.2f}ms"
    return f"{value * 1e6:.1f}us"


def _series(metrics: dict[str, Any], name: str) -> list[dict[str, Any]]:
    family = metrics.get(name)
    if not family:
        return []
    return list(family.get("series", ()))


def _merged_histogram(metrics: dict[str, Any], name: str) -> dict[str, Any] | None:
    """Aggregate a histogram family's series (approximate: count-weighted)."""
    series = [s for s in _series(metrics, name) if "count" in s]
    total = sum(s["count"] for s in series)
    if not total:
        return None
    return {
        "count": total,
        "sum": sum(s["sum"] for s in series),
        # Count-weighted quantile estimate across series; exact per-series
        # quantiles are available in the dump.
        "p50": sum(s["p50"] * s["count"] for s in series) / total,
        "p99": sum(s["p99"] * s["count"] for s in series) / total,
    }


def _trigger_rows(metrics: dict[str, Any]) -> list[dict[str, Any]]:
    rows = []
    for entry in _series(metrics, "repro_engine_trigger_latency_seconds"):
        if not entry.get("count"):
            continue
        labels = entry.get("labels", {})
        rows.append(
            {
                "trigger": f"on_{labels.get('op', '?')}_{labels.get('relation', '?')}",
                "count": entry["count"],
                "total": entry["sum"],
                "p50": entry.get("p50"),
                "p99": entry.get("p99"),
            }
        )
    return rows


def _print_summary(response: dict[str, Any]) -> None:
    metrics = response.get("metrics", {})
    if not response.get("enabled"):
        print("telemetry disabled on the server "
              "(start it with --telemetry or REPRO_TELEMETRY=1)")
        return

    stats = response.get("statistics", {})
    version = stats.get("version")
    mode = stats.get("engine", {}).get("mode", "?")
    header = f"engine mode: {mode}"
    if version is not None:
        header += f"   service version: {version}"
    print(header)

    events = _merged_histogram(metrics, "repro_engine_trigger_latency_seconds")
    if events:
        print(f"events measured: {events['count']}   "
              f"per-event p50 {_fmt_seconds(events['p50'])}   "
              f"p99 {_fmt_seconds(events['p99'])}")

    staleness = _merged_histogram(metrics, "repro_service_staleness_seconds")
    if staleness:
        print(f"ingest->visible staleness: p50 {_fmt_seconds(staleness['p50'])}   "
              f"p99 {_fmt_seconds(staleness['p99'])}   "
              f"(batches: {staleness['count']})")

    queries = _merged_histogram(metrics, "repro_service_query_latency_seconds")
    if queries:
        print(f"query latency: p50 {_fmt_seconds(queries['p50'])}   "
              f"p99 {_fmt_seconds(queries['p99'])}   (queries: {queries['count']})")

    rows = _trigger_rows(metrics)
    if rows:
        print("\ntriggers (by total time):")
        rows.sort(key=lambda r: r["total"], reverse=True)
        for row in rows[:8]:
            print(f"  {row['trigger']:<28s} n={row['count']:<9d} "
                  f"p50 {_fmt_seconds(row['p50']):>9s}  "
                  f"p99 {_fmt_seconds(row['p99']):>9s}  "
                  f"total {_fmt_seconds(row['total'])}")

    depth = _series(metrics, "repro_service_subscription_depth")
    if depth:
        pending = sum(int(s.get("value", 0)) for s in depth)
        overflow = _series(metrics, "repro_service_subscription_overflows_total")
        overflows = int(overflow[0]["value"]) if overflow else 0
        print(f"\nsubscriptions: {len(depth)} live, {pending} pending deltas, "
              f"{overflows} overflow(s)")


def _cmd_summary(args: argparse.Namespace) -> int:
    _print_summary(_fetch(args))
    return 0


def _cmd_top_triggers(args: argparse.Namespace) -> int:
    response = _fetch(args)
    if not response.get("enabled"):
        print("telemetry disabled on the server")
        return 1
    rows = _trigger_rows(response.get("metrics", {}))
    if not rows:
        print("no trigger samples yet")
        return 0
    rows.sort(key=lambda r: r["total"], reverse=True)
    print(f"{'trigger':<28s} {'events':>9s} {'p50':>10s} {'p99':>10s} {'total':>10s}")
    for row in rows[: args.count]:
        print(f"{row['trigger']:<28s} {row['count']:>9d} "
              f"{_fmt_seconds(row['p50']):>10s} {_fmt_seconds(row['p99']):>10s} "
              f"{_fmt_seconds(row['total']):>10s}")
    return 0


def _cmd_watch(args: argparse.Namespace) -> int:
    previous_events = None
    try:
        while True:
            response = _fetch(args)
            merged = _merged_histogram(
                response.get("metrics", {}), "repro_engine_trigger_latency_seconds"
            )
            now = time.strftime("%H:%M:%S")
            print(f"--- {now} ---")
            _print_summary(response)
            if merged is not None:
                if previous_events is not None:
                    delta = merged["count"] - previous_events
                    print(f"events in last {args.interval:g}s interval: {delta} "
                          f"({delta / args.interval:.0f}/s)")
                previous_events = merged["count"]
            print(flush=True)
            time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0


def _cmd_dump(args: argparse.Namespace) -> int:
    response = _fetch(args)
    if args.prom:
        sys.stdout.write(response.get("prometheus", ""))
    else:
        json.dump(
            {
                "enabled": response.get("enabled"),
                "metrics": response.get("metrics", {}),
                "statistics": response.get("statistics", {}),
            },
            sys.stdout,
            indent=2,
            sort_keys=True,
            default=str,
        )
        sys.stdout.write("\n")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    connection = argparse.ArgumentParser(add_help=False)
    connection.add_argument("--host", default="127.0.0.1")
    connection.add_argument("--port", type=int, default=7641)
    connection.add_argument("--timeout", type=float, default=10.0)

    parser = argparse.ArgumentParser(
        prog="python -m repro.telemetry",
        description="Inspect a running view server's metrics and latency profiles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    summary = sub.add_parser("summary", parents=[connection],
                             help="headline health figures")
    summary.set_defaults(func=_cmd_summary)

    top = sub.add_parser("top-triggers", parents=[connection],
                         help="triggers ranked by total time")
    top.add_argument("-n", "--count", type=int, default=20)
    top.set_defaults(func=_cmd_top_triggers)

    watch = sub.add_parser("watch", parents=[connection],
                           help="refresh the summary periodically")
    watch.add_argument("--interval", type=float, default=2.0)
    watch.set_defaults(func=_cmd_watch)

    dump = sub.add_parser("dump", parents=[connection],
                          help="raw snapshot (JSON, or --prom text)")
    dump.add_argument("--prom", action="store_true",
                      help="Prometheus text exposition instead of JSON")
    dump.set_defaults(func=_cmd_dump)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConnectionRefusedError:
        print(f"no server at {args.host}:{args.port}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
