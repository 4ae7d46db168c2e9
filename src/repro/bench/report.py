"""Rendering benchmark results in the shape the paper reports them.

The formatting helpers return plain strings (monospace tables) so benchmark
runs can print them directly and EXPERIMENTS.md can embed them verbatim.
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


def format_batch_sweep(results: Mapping[str, tuple[RunResult, float | None]]) -> str:
    """Throughput-vs-batch-size table: speedup over the per-event baseline and
    the share of events that ran through numpy kernels."""
    baseline = results.get("dbtoaster")
    base_rate = baseline[0].refresh_rate if baseline else 0.0
    lines = [
        f"{'mode':>14} {'events':>8} {'time (s)':>10} {'refreshes/s':>14} "
        f"{'speedup':>9} {'vector':>8}"
    ]
    for label, (result, vector_fraction) in results.items():
        speedup = (
            f"{result.refresh_rate / base_rate:.2f}x" if base_rate > 0 else "-"
        )
        vector = f"{vector_fraction:.0%}" if vector_fraction is not None else "-"
        lines.append(
            f"{label:>14} {result.events_processed:>8} {result.elapsed_seconds:>10.2f} "
            f"{_format_rate(result.refresh_rate):>14} {speedup:>9} {vector:>8}"
        )
    return "\n".join(lines)


def format_codegen_sweep(results: Mapping[str, Mapping[str, object]]) -> str:
    """Fused/per-statement/interpreted table: rates, speedups, coverage."""
    lines = [
        f"{'query':>8} {'events':>8} {'interp/s':>12} {'compiled/s':>12} "
        f"{'fused/s':>12} {'speedup':>9} {'fusion':>8} {'stmts':>12} "
        f"{'vector/s':>12} {'vec spd':>8} "
        f"{'tele ovh':>9} {'prov ovh':>9} {'wal ovh':>8} {'ev p50/p99':>16}"
    ]
    for query, row in results.items():
        interpreted: RunResult = row["interpreted"]  # type: ignore[assignment]
        compiled: RunResult = row["compiled"]  # type: ignore[assignment]
        fused: RunResult = row["fused"]  # type: ignore[assignment]
        coverage = f"{row['compiled_statements']}+{row['fallback_statements']}fb"
        overhead = row.get("telemetry_overhead")
        overhead_text = f"{overhead:+.1%}" if overhead is not None else "-"
        prov = row.get("provenance_overhead")
        prov_text = f"{prov:+.1%}" if prov is not None else "-"
        wal = row.get("wal_overhead")
        wal_text = f"{wal:+.1%}" if wal is not None else "-"
        p50 = row.get("event_p50_us")
        p99 = row.get("event_p99_us")
        quantiles = (
            f"{p50:.1f}/{p99:.1f}us" if p50 is not None and p99 is not None else "-"
        )
        vector: RunResult | None = row.get("vector")  # type: ignore[assignment]
        vector_text = _format_rate(vector.refresh_rate) if vector is not None else "-"
        vector_speedup = row.get("vector_speedup")
        vector_speedup_text = (
            f"{vector_speedup:.1f}x" if vector_speedup is not None else "-"
        )
        lines.append(
            f"{query:>8} {row['events']:>8} "
            f"{_format_rate(interpreted.refresh_rate):>12} "
            f"{_format_rate(compiled.refresh_rate):>12} "
            f"{_format_rate(fused.refresh_rate):>12} "
            f"{row['speedup']:>8.2f}x {row['fused_speedup']:>7.2f}x {coverage:>12} "
            f"{vector_text:>12} {vector_speedup_text:>8} "
            f"{overhead_text:>9} {prov_text:>9} {wal_text:>8} {quantiles:>16}"
        )
    return "\n".join(lines)


def codegen_sweep_json(results: Mapping[str, Mapping[str, object]]) -> dict:
    """The ``BENCH_codegen.json`` payload: one record per query, plain types.

    ``compiled_rate``/``speedup`` describe per-statement kernels against the
    interpreter (the historical record the CI gate reads);
    ``fused_rate``/``fused_speedup`` describe whole-trigger fusion against
    the per-statement kernels.
    """
    payload = {}
    for query, row in results.items():
        interpreted: RunResult = row["interpreted"]  # type: ignore[assignment]
        compiled: RunResult = row["compiled"]  # type: ignore[assignment]
        fused: RunResult = row["fused"]  # type: ignore[assignment]
        record = {
            "events": row["events"],
            "interpreted_rate": interpreted.refresh_rate,
            "compiled_rate": compiled.refresh_rate,
            "fused_rate": fused.refresh_rate,
            "speedup": row["speedup"],
            "fused_speedup": row["fused_speedup"],
            "compiled_statements": row["compiled_statements"],
            "fallback_statements": row["fallback_statements"],
            "fused_kernels": row["fused_kernels"],
            "deduped_probes": row["deduped_probes"],
            "deduped_scalars": row["deduped_scalars"],
        }
        telemetry: RunResult | None = row.get("telemetry")  # type: ignore[assignment]
        if telemetry is not None:
            record["telemetry_rate"] = telemetry.refresh_rate
            record["telemetry_overhead"] = row["telemetry_overhead"]
            record["event_p50_us"] = row["event_p50_us"]
            record["event_p99_us"] = row["event_p99_us"]
        provenance: RunResult | None = row.get("provenance")  # type: ignore[assignment]
        if provenance is not None:
            record["provenance_rate"] = provenance.refresh_rate
            record["provenance_overhead"] = row["provenance_overhead"]
        durable: RunResult | None = row.get("durable")  # type: ignore[assignment]
        if durable is not None:
            wal = row.get("wal") or {}
            record["durable_rate"] = durable.refresh_rate
            record["wal_overhead"] = row["wal_overhead"]
            record["wal_fsyncs"] = wal.get("fsyncs", 0)
            record["wal_bytes"] = wal.get("bytes_appended", 0)
        vector: RunResult | None = row.get("vector")  # type: ignore[assignment]
        if vector is not None:
            record["vector_rate"] = vector.refresh_rate
            record["vector_batch_size"] = row["vector_batch_size"]
            record["vector_statements"] = row["vector_statements"]
            record["vector_fallbacks"] = dict(row["vector_fallbacks"])
            if "vector_speedup" in row:
                record["vector_speedup"] = row["vector_speedup"]
            else:
                record["vector_reason"] = row["vector_reason"]
        payload[query] = record
    return payload


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

    Understands the plain engine shape (``maps`` / ``relations``), the
    batched shape (plus ``batching`` counters) and the partitioned shape
    (``partitions`` holding one nested statistics block per partition).
    """
    lines: list[str] = []
    header = f"statistics for {label}" if label else "engine statistics"
    lines.append(header)
    if "spec" in statistics:  # partitioned engine
        spec = statistics["spec"]
        keys = ", ".join(f"{r} by ({', '.join(c)})" for r, c in spec["keys"].items())
        lines.append(
            f"  {spec['partitions']} partitions; keys: {keys or '-'}; "
            f"replicated: {', '.join(spec['replicated']) or '-'}"
        )
        lines.append(
            f"  routed per partition: {statistics['events_routed']}; "
            f"broadcast: {statistics['events_broadcast']}"
        )
        for index, partition in enumerate(statistics.get("partitions", [])):
            lines.append(
                f"partition {index}: {partition.get('events_processed', 0)} events, "
                f"{partition.get('memory_bytes', 0) / 1024:.1f} KB"
            )
            lines.extend(_format_map_stats_rows(partition.get("maps", {})))
        return "\n".join(lines)
    lines.append(
        f"  {statistics.get('events_processed', 0)} events, "
        f"{statistics.get('memory_bytes', 0) / 1024:.1f} KB resident"
    )
    batching = statistics.get("batching")
    if batching:
        lines.append(
            f"  batching: size {batching['batch_size']}, "
            f"{batching['batches_flushed']} batches, "
            f"{batching['bulk_events']} bulk / {batching['fallback_events']} fallback events"
        )
    codegen = statistics.get("codegen")
    if codegen:
        lines.append(
            f"  codegen: {codegen['compiled_statements']} compiled / "
            f"{codegen['fallback_statements']} fallback statements; "
            f"{codegen.get('fused_kernels', 0)} fused kernels "
            f"({codegen.get('fused_statements', 0)} statements, "
            f"{codegen.get('deduped_probes', 0)} probes + "
            f"{codegen.get('deduped_scalars', 0)} scalars deduped)"
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


def format_durability_bench(result) -> str:
    """One durable-ingest + recovery-time run (the ``durability`` scenario)."""
    wal = result.wal or {}
    lines = [
        f"durability run: {result.query} ({result.engine_mode} engine)",
        f"  durable ingest: {result.events} events in "
        f"{result.durable_elapsed_seconds:.2f}s -> "
        f"{_format_rate(result.durable_ingest_rate)} events/s "
        f"({result.checkpoints} incremental checkpoints, "
        f"{wal.get('fsyncs', 0)} fsyncs, "
        f"{wal.get('bytes_appended', 0) / 1024:.0f} KB logged)",
        f"  recovery (base + deltas + WAL tail): {result.recovery_seconds:.3f}s "
        f"to version {result.recovered_version} "
        f"(restored={result.restored_from_checkpoint}, "
        f"{result.wal_batches_replayed} WAL batches replayed)",
        f"  full replay from source: {result.full_replay_seconds:.3f}s "
        f"({_format_rate(result.full_replay_rate)} events/s)",
        f"  recovery speedup over full replay: {result.recovery_speedup:.1f}x",
    ]
    return "\n".join(lines)


def durability_bench_json(result) -> dict:
    """The ``BENCH_durability.json`` payload for one run, plain types."""
    return {
        "query": result.query,
        "engine_mode": result.engine_mode,
        "events": result.events,
        "ingest_batch": result.ingest_batch,
        "checkpoints": result.checkpoints,
        "durable_elapsed_seconds": result.durable_elapsed_seconds,
        "durable_ingest_rate": result.durable_ingest_rate,
        "wal": dict(result.wal or {}),
        "recovery_seconds": result.recovery_seconds,
        "recovered_version": result.recovered_version,
        "restored_from_checkpoint": result.restored_from_checkpoint,
        "wal_batches_replayed": result.wal_batches_replayed,
        "full_replay_seconds": result.full_replay_seconds,
        "full_replay_rate": result.full_replay_rate,
        "recovery_speedup": result.recovery_speedup,
    }


def format_service_run(result) -> str:
    """One served-view freshness/throughput run (the ``service`` scenario)."""
    lines = [
        f"service run: {result.query} ({result.engine_mode} engine)",
        f"  ingested {result.events} events over the wire in "
        f"{result.elapsed_seconds:.2f}s -> {_format_rate(result.ingest_rate)} events/s",
        f"  {result.queries} concurrent snapshot queries: "
        f"mean {result.mean_latency_ms:.2f} ms, p95 {result.p95_latency_ms:.2f} ms",
        f"  staleness (submitted - served version): max {result.max_staleness} events",
        f"  final served version: {result.final_version}",
    ]
    return "\n".join(lines)
