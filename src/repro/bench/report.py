"""Rendering benchmark results in the shape the paper reports them.

The formatting helpers return plain strings (monospace tables) so benchmark
runs can print them directly.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from repro.bench.harness import RunResult, TraceResult


def _format_rate(value: float) -> str:
    if value >= 1000:
        return f"{value:,.0f}"
    if value >= 10:
        return f"{value:.1f}"
    return f"{value:.2f}"


def format_refresh_rate_table(
    results: Mapping[str, Mapping[str, RunResult]],
    strategies: Sequence[str],
) -> str:
    """Figure 6/7 style table: one row per query, one column per strategy."""
    header = ["Query"] + list(strategies)
    widths = [max(10, len(h) + 2) for h in header]
    lines = ["".join(h.ljust(w) for h, w in zip(header, widths))]
    lines.append("".join("-" * (w - 1) + " " for w in widths))
    for query in sorted(results):
        row = [query]
        for strategy in strategies:
            result = results[query].get(strategy)
            row.append("-" if result is None else _format_rate(result.refresh_rate))
        lines.append("".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def format_speedup_summary(
    results: Mapping[str, Mapping[str, RunResult]],
    baseline: str,
    subject: str = "dbtoaster",
) -> str:
    """Per-query speed-up of ``subject`` over ``baseline`` (who wins, by how much)."""
    lines = [f"speed-up of {subject} over {baseline}:"]
    for query in sorted(results):
        subject_result = results[query].get(subject)
        baseline_result = results[query].get(baseline)
        if subject_result is None or baseline_result is None:
            continue
        if baseline_result.refresh_rate <= 0:
            lines.append(f"  {query:10s}  baseline produced no refreshes")
            continue
        ratio = subject_result.refresh_rate / baseline_result.refresh_rate
        lines.append(f"  {query:10s}  {ratio:10.1f}x")
    return "\n".join(lines)


def format_trace(trace: TraceResult) -> str:
    """Figure 8-10 style series: fraction, cumulative time, rate, memory."""
    lines = [
        f"trace for {trace.query} / {trace.strategy} "
        f"({'complete' if trace.completed else 'timed out'})",
        f"{'fraction':>10} {'time (s)':>10} {'refreshes/s':>14} {'memory (KB)':>12}",
    ]
    for point in trace.points:
        lines.append(
            f"{point.fraction:>10.2f} {point.cumulative_seconds:>10.2f} "
            f"{point.window_refresh_rate:>14.1f} {point.memory_bytes / 1024:>12.1f}"
        )
    return "\n".join(lines)


def format_scaling_table(
    results: Mapping[str, Mapping[float, RunResult]], base_scale: float
) -> str:
    """Figure 11 style table: refresh rate relative to the smallest scale factor."""
    scales = sorted({scale for rows in results.values() for scale in rows})
    header = ["Query"] + [f"x{scale:g}" for scale in scales]
    widths = [max(9, len(h) + 2) for h in header]
    lines = ["".join(h.ljust(w) for h, w in zip(header, widths))]
    lines.append("".join("-" * (w - 1) + " " for w in widths))
    for query in sorted(results):
        base = results[query].get(base_scale)
        row = [query]
        for scale in scales:
            result = results[query].get(scale)
            if result is None or base is None or base.refresh_rate == 0:
                row.append("-")
            else:
                row.append(f"{result.refresh_rate / base.refresh_rate:.2f}")
        lines.append("".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def _format_map_stats_rows(maps: Mapping[str, Mapping[str, object]]) -> list[str]:
    lines = [f"  {'map':30s} {'entries':>10} {'memory (KB)':>12}  indexes"]
    for name in sorted(maps):
        stats = maps[name]
        indexes = stats.get("indexes") or {}
        parts = [
            f"[{cols}] {idx['entries']} entries/{idx['buckets']} buckets"
            for cols, idx in sorted(indexes.items())
        ]
        for column, idx in sorted((stats.get("ordered_indexes") or {}).items()):
            regime = "exact" if idx.get("exact") else "scan"
            parts.append(
                f"[{column} ordered] {idx['keys']} keys, {idx['probes']} probes"
                f"/{idx['scan_fallbacks']} scans, {idx['rebuilds']} rebuilds ({regime})"
            )
        index_text = "; ".join(parts) or "-"
        lines.append(
            f"  {name:30s} {stats.get('entries', 0):>10} "
            f"{stats.get('memory_bytes', 0) / 1024:>12.1f}  {index_text}"
        )
    return lines


def format_engine_statistics(statistics: Mapping[str, object], label: str = "") -> str:
    """Per-map and per-secondary-index entry/memory counts for one engine.

    Reads the ``repro.stats/1`` document every engine returns; a partitioned
    engine's maps are summed across partitions, and its layout, routing
    counters and each partition's size get a line.
    """
    lines: list[str] = []
    header = f"statistics for {label}" if label else "engine statistics"
    lines.append(header)
    lines.append(
        f"  {statistics.get('events_processed', 0)} events, "
        f"{statistics.get('memory_bytes', 0) / 1024:.1f} KB resident"
    )
    batching = statistics.get("batching")
    if batching:
        lines.append(
            f"  batching: size {batching['batch_size']}, "
            f"{batching['batches_flushed']} batches, "
            f"{batching['bulk_events']} bulk / {batching['fallback_events']} replayed events"
        )
    codegen = statistics.get("codegen")
    if codegen:
        lines.append(
            f"  codegen: {codegen['compiled_statements']} compiled / "
            f"{codegen['fallback_statements']} fallback statements; "
            f"{codegen.get('fused_kernels', 0)} fused kernels "
            f"({codegen.get('deduped_probes', 0)} probes + "
            f"{codegen.get('deduped_scalars', 0)} scalars deduped)"
        )
    partitioning = statistics.get("partitioning")
    if partitioning:
        spec = partitioning["spec"]
        keys = ", ".join(f"{r} by ({', '.join(c)})" for r, c in spec["keys"].items())
        lines.append(
            f"  partitioning: {spec['partitions']} partitions; keys: {keys or '-'}; "
            f"replicated: {', '.join(spec['replicated']) or '-'}; "
            f"routed {partitioning['events_routed']}, "
            f"broadcast {partitioning['events_broadcast']}"
        )
        for index, partition in enumerate(partitioning["partitions"]):
            lines.append(
                f"  partition {index}: {partition['events_processed']} events, "
                f"{partition['memory_bytes'] / 1024:.1f} KB"
            )
    lines.extend(_format_map_stats_rows(statistics.get("maps", {})))
    relations = statistics.get("relations") or {}
    if relations:
        lines.append("stored base relations:")
        lines.extend(_format_map_stats_rows(relations))
    return "\n".join(lines)


def format_feature_table(features: Mapping[str, Mapping[str, object]]) -> str:
    """Figure 2 style workload feature matrix."""
    columns = ["tables", "join", "where", "group_by", "nesting", "maps", "statements"]
    header = ["Query"] + columns
    widths = [max(9, len(h) + 2) for h in header]
    lines = ["".join(h.ljust(w) for h, w in zip(header, widths))]
    lines.append("".join("-" * (w - 1) + " " for w in widths))
    for query in sorted(features):
        row = [query] + [str(features[query].get(column, "-")) for column in columns]
        lines.append("".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)
