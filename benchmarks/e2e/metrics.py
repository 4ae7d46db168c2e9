"""Every metric the benchmark reports: name, unit, direction, regression bound.

``BENCHMARK.json`` at the repository root is generated from this module
(``run.py --manifest``); the smoke test checks that the two agree.
"""

from __future__ import annotations

import inputs

WORKLOADS = [
    ("embed_event",
     "library use: all 22 queries, one apply per event; codegen and runtime do all the "
     "work, exec, service and durability are bypassed"),
    ("embed_batch",
     "same streams for the six core queries through the batched vector engine; exec "
     "fold/columnarize and codegen.vector do the work"),
    ("serve_bulk",
     "Q1 server process with WAL and checkpoints, closed loop of 1000-event batches, "
     "kill -9 and restart; the engine is a third of the wall"),
    ("serve_live",
     "BSV server process, 32-event batches on an open-loop schedule at three rates with "
     "a subscriber and snapshot queries; per-batch fixed costs dominate"),
]

LOWER, HIGHER = "lower", "higher"

#: name, unit, better, bound (share of the parent's median the metric may worsen by).
END_TO_END = [
    ("setup_s", "s", LOWER, 0.25),
    ("refresh_rate_eps", "events/s", HIGHER, 0.25),
    ("ingest_rate_eps", "events/s", HIGHER, 0.25),
    ("state_mb", "MB", LOWER, 0.15),
    ("ack_p50_ms", "ms", LOWER, 0.25),
    ("ack_p95_ms", "ms", LOWER, 0.25),
    ("freshness_p50_ms", "ms", LOWER, 0.25),
    ("freshness_p95_ms", "ms", LOWER, 0.25),
    ("query_p50_ms", "ms", LOWER, 0.25),
    ("query_p95_ms", "ms", LOWER, 0.25),
    ("recovery_s", "s", LOWER, 0.25),
    ("wal_write_amp", "ratio", LOWER, 0.15),
    ("server_rss_mb", "MB", LOWER, 0.25),
    ("ok_frac", "share", HIGHER, 0.001),
]

QUERIES = list(inputs.FROZEN["queries"])
CORE6 = list(inputs.FROZEN["embed_batch"]["queries"])


def _per_layer() -> list[tuple[str, str, str]]:
    rows = [
        ("workloads.gen_s", "s", LOWER),
        ("streams.events", "count", HIGHER),
        ("streams.delete_frac", "share", LOWER),
        ("sql.parse_s", "s", LOWER),
        ("compiler.compile_s", "s", LOWER),
        ("compiler.statements", "count", LOWER),
        ("compiler.maps", "count", LOWER),
        ("codegen.build_s", "s", LOWER),
        ("codegen.fused_kernels", "count", HIGHER),
        ("codegen.fallback_statements", "count", LOWER),
        ("codegen.fallback_hits_per_event", "1/event", LOWER),
    ]
    rows += [(f"query.{q}.rate_eps", "events/s", HIGHER) for q in QUERIES]
    rows += [(f"codegen.event_p50_us.{q}", "us", LOWER) for q in CORE6]
    rows += [(f"codegen.event_p99_us.{q}", "us", LOWER) for q in CORE6]
    rows += [
        ("runtime.map_entries", "count", LOWER),
        ("runtime.result_dict_us", "us", LOWER),
    ]
    rows += [(f"exec.rate_eps.{q}", "events/s", HIGHER) for q in CORE6]
    rows += [(f"exec.batch_over_fused.{q}", "ratio", HIGHER) for q in CORE6]
    rows += [(f"exec.stage_frac.{q}", "share", LOWER) for q in CORE6]
    rows += [(f"exec.vector_event_frac.{q}", "share", HIGHER) for q in CORE6]
    rows += [(f"exec.replayed_event_frac.{q}", "share", LOWER) for q in CORE6]
    rows += [
        ("exec.small_group_fallbacks", "count", LOWER),
        ("client.encode_us_per_event", "us", LOWER),
        ("wire.decode_us_per_event", "us", LOWER),
        ("wire.bytes_per_event", "bytes", LOWER),
        ("wire.snapshot_encode_us", "us", LOWER),
        ("service.ingest_overhead_us_per_batch", "us", LOWER),
        ("service.diff_us_per_batch", "us", LOWER),
        ("service.query_us", "us", LOWER),
        ("subscriptions.publish_us_per_batch", "us", LOWER),
        ("subscriptions.poll_encode_us_per_batch", "us", LOWER),
        ("subscriptions.notifications_per_batch", "count", LOWER),
        ("server.residual_frac", "share", LOWER),
        ("server.ack_p99_ms", "ms", LOWER),
        ("server.freshness_p99_ms", "ms", LOWER),
        ("server.freshness_p95_ms.low", "ms", LOWER),
        ("server.freshness_p95_ms.high", "ms", LOWER),
        ("server.rate_steps_within_limit", "count", HIGHER),
        ("server.gen_late_p95_ms", "ms", LOWER),
        ("wal.append_us_per_event", "us", LOWER),
        ("wal.fsync_p50_ms", "ms", LOWER),
        ("wal.fsync_p95_ms", "ms", LOWER),
        ("wal.bytes_per_event", "bytes", LOWER),
        ("wal.fsyncs", "count", LOWER),
        ("wal.replay_us_per_event", "us", LOWER),
        ("checkpoint.full_s", "s", LOWER),
        ("checkpoint.delta_s", "s", LOWER),
        ("checkpoint.bytes", "bytes", LOWER),
        ("checkpoint.stall_ack_ms", "ms", LOWER),
        ("recover.process_start_s", "s", LOWER),
        ("recover.restore_s", "s", LOWER),
        ("recover.replay_s", "s", LOWER),
        ("recover.replayed_events", "count", LOWER),
        ("telemetry.on_over_off", "ratio", LOWER),
        ("trace.coverage", "share", HIGHER),
        ("trace.overhead_frac", "share", LOWER),
        ("trace.engine_share", "share", HIGHER),
        ("failed_frac", "share", LOWER),
    ]
    return rows


PER_LAYER = _per_layer()

E2E_UNITS = {name: unit for name, unit, _, _ in END_TO_END}
LAYER_UNITS = {name: unit for name, unit, _ in PER_LAYER}


def manifest(run_seconds: int) -> dict:
    """The contents of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": run_seconds,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in PER_LAYER
        ],
    }
