"""Command-line entry point for correctness observability.

Explain the physical design of a workload query offline (optionally replaying
a synthetic stream first, so observed probe/scan counters appear)::

    python -m repro.inspect explain Q3 --events 2000
    python -m repro.inspect explain Q3 --json

Ask a running view server instead (its live statistics are joined in)::

    python -m repro.inspect explain --host 127.0.0.1 --port 7641

Replay the recent provenance history of one view row against a server that
runs with ``--provenance-depth``::

    python -m repro.inspect explain-row Q3_revenue --key '"1995-03-05",42,0' \\
        --host 127.0.0.1 --port 7641

Key parts are JSON values separated by commas (bare words pass through as
strings, so ``--key BUILDING,42`` works too).
"""

from __future__ import annotations

import argparse
import json
from typing import Any

from repro.errors import ReproError


def _parse_key(text: str | None) -> list[Any] | None:
    """``--key`` value: comma-separated JSON scalars (bare words = strings)."""
    if text is None:
        return None
    parts: list[Any] = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        try:
            parts.append(json.loads(chunk))
        except json.JSONDecodeError:
            parts.append(chunk)
    return parts


def _offline_report(args: argparse.Namespace) -> dict[str, Any]:
    """Compile one workload query and (optionally) replay events through it."""
    from repro.codegen.engine import CompiledEngine
    from repro.compiler.hoivm import compile_query
    from repro.inspect.explain import build_explain_report
    from repro.workloads import workload

    spec = workload(args.query)
    translated = spec.query_factory()
    program = compile_query(
        translated.roots(),
        translated.schemas(),
        static_relations=translated.static_relations(),
    )
    statistics = None
    if args.events > 0:
        agenda, static = spec.prepare(args.events, args.seed, args.scale)
        engine = CompiledEngine(program)
        for relation, rows in (static or {}).items():
            engine.load_static(relation, rows)
        for event in agenda:
            engine.apply(event)
        statistics = engine.statistics()
    return build_explain_report(program, query=spec.name, statistics=statistics)


def _remote_report(args: argparse.Namespace) -> dict[str, Any]:
    from repro.service.client import ServiceClient

    with ServiceClient(args.host, args.port) as client:
        return client.explain(args.query)


def _run_explain(args: argparse.Namespace) -> int:
    from repro.inspect.explain import render_explain_text

    if args.host is not None:
        report = _remote_report(args)
    else:
        if args.query is None:
            raise SystemExit("explain: name a query, or point at a server with --host")
        report = _offline_report(args)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True, default=str))
    else:
        print(render_explain_text(report))
    return 0


def _format_history(report: dict[str, Any]) -> str:
    lines = [
        f"view {report['view']} (map {report['map']}, "
        f"columns [{', '.join(report['columns'])}], depth {report['depth']})"
    ]
    if report.get("key") is not None:
        current = report.get("current")
        lines.append(f"key {report['key']!r}: current value {current!r}")
    history = report["history"]
    if not history:
        lines.append("  (no recorded mutations in the ring)")
    for entry in history:
        cause = entry["cause"] or {}
        kind = cause.get("kind", "?")
        if kind == "event":
            origin = f"{cause['op']} {cause['relation']}{tuple(cause['values'])!r}"
        elif kind == "fold":
            origin = (
                f"fold {cause['op']} {cause['relation']} "
                f"({cause['events']} events / {cause['tuples']} tuples)"
            )
        elif kind == "restore":
            origin = f"checkpoint restore (version {cause.get('version')})"
        else:
            origin = kind
        where = f" [p{entry['partition']}]" if "partition" in entry else ""
        lines.append(
            f"  v{entry['version']}{where} {tuple(entry['key'])!r}: "
            f"{entry['old']!r} -> {entry['new']!r}  <- {origin}"
        )
    return "\n".join(lines)


def _run_explain_row(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceClient

    with ServiceClient(args.host, args.port) as client:
        report = client.explain_row(args.view, _parse_key(args.key))
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True, default=str))
    else:
        print(_format_history(report))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.inspect",
        description="Row provenance and physical-design explain.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    explain = sub.add_parser(
        "explain", help="physical-design report: planned kernels + observed stats"
    )
    explain.add_argument("query", nargs="?", default=None,
                         help="workload query (see: python -m repro.bench list)")
    explain.add_argument("--events", type=int, default=0,
                         help="replay this many synthetic events first, so the "
                              "report includes observed probe/scan counters")
    explain.add_argument("--scale", type=float, default=0.05,
                         help="synthetic data scale factor for --events")
    explain.add_argument("--seed", type=int, default=7,
                         help="stream generator seed for --events")
    explain.add_argument("--host", default=None,
                         help="explain a running view server instead")
    explain.add_argument("--port", type=int, default=7641)
    explain.add_argument("--json", action="store_true",
                         help="emit the repro.explain/1 document as JSON")

    row = sub.add_parser(
        "explain-row", help="recent provenance history of one view row (remote)"
    )
    row.add_argument("view", nargs="?", default=None,
                     help="view name (defaults to the single served view)")
    row.add_argument("--key", default=None,
                     help="comma-separated key values (JSON scalars)")
    row.add_argument("--host", default="127.0.0.1")
    row.add_argument("--port", type=int, default=7641)
    row.add_argument("--json", action="store_true")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "explain":
            return _run_explain(args)
        if args.command == "explain-row":
            return _run_explain_row(args)
    except ReproError as exc:
        print(f"error: {exc}")
        return 1
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
