"""Telemetry contract across every execution mode.

The invariant under test: **events in == events accounted, nothing counted
twice**.  Each mode accounts differently (per-event histograms, batched bulk
counters, partitioned routing counters), but the scraped
``repro_engine_events_total`` family must always sum to the number of events
applied.  Alongside: histogram monotonicity, metric continuity across
checkpoint/restore, and the disabled-mode zero-cost guarantee.
"""

import pytest

from repro.runtime.engine import IncrementalEngine
from repro.service.core import ViewService, engine_for_mode
from repro.telemetry import Telemetry

MODES = [
    pytest.param("incremental", {}, id="incremental"),
    pytest.param("compiled", {}, id="compiled-fused"),
    pytest.param("batched", {"batch_size": 50}, id="batched"),
    pytest.param("partitioned", {"partitions": 2}, id="partitioned-sequential"),
    pytest.param(
        "partitioned",
        {"partitions": 2, "backend": "process"},
        id="partitioned-process",
    ),
]


def _events_total(registry):
    snapshot = registry.snapshot()
    family = snapshot.get("repro_engine_events_total", {"series": []})
    return sum(entry["value"] for entry in family["series"])


def _replay(q1, mode, config, telemetry):
    engine = engine_for_mode(q1.program, mode, telemetry=telemetry, **config)
    try:
        q1.load_statics(engine)
        for event in q1.events:
            engine.apply(event)
        engine.flush()
        return engine.result_dict(q1.root), _events_total(telemetry.registry)
    finally:
        if hasattr(engine, "close"):
            engine.close()


@pytest.mark.parametrize("mode,config", MODES)
def test_events_in_equals_events_accounted(q1, mode, config):
    telemetry = Telemetry(enabled=True)
    reference = IncrementalEngine(q1.program)
    q1.load_statics(reference)
    reference.apply_many(q1.events)

    entries, accounted = _replay(q1, mode, config, telemetry)
    assert accounted == len(q1.events)
    assert entries == reference.result_dict(q1.root)


@pytest.mark.parametrize("mode,config", MODES[:3])
def test_latency_histograms_are_monotone_and_consistent(q1, mode, config):
    telemetry = Telemetry(enabled=True)
    _replay(q1, mode, config, telemetry)
    snapshot = telemetry.registry.snapshot()
    family = snapshot.get("repro_engine_trigger_latency_seconds")
    assert family is not None
    for series in family["series"]:
        if not series["count"]:
            continue
        assert series["sum"] > 0.0
        assert 0.0 < series["p50"] <= series["p90"] <= series["p99"]
    merged = telemetry.registry.histogram_family(
        "repro_engine_trigger_latency_seconds"
    )
    assert merged["count"] == sum(s["count"] for s in family["series"])


def test_batched_mode_counts_bulk_and_fallback_exactly_once(q1):
    """Bulk-folded groups and per-event fallback replays partition the stream."""
    telemetry = Telemetry(enabled=True)
    engine = engine_for_mode(q1.program, "batched", batch_size=50, telemetry=telemetry)
    q1.load_statics(engine)
    for event in q1.events:
        engine.apply(event)
    engine.flush()
    stats = engine.statistics()["batching"]
    sampled = telemetry.registry.histogram_family(
        "repro_engine_trigger_latency_seconds"
    )
    per_event_observed = sampled["count"] if sampled else 0
    assert per_event_observed + stats["bulk_events"] == len(q1.events)


@pytest.mark.parametrize(
    "mode,config",
    [
        pytest.param("compiled", {}, id="compiled"),
        pytest.param("batched", {"batch_size": 50}, id="batched-50"),
        pytest.param("batched", {"batch_size": 1000}, id="batched-1000"),
    ],
)
def test_burst_profiling_disarms_after_burst(q1, mode, config):
    telemetry = Telemetry(enabled=True, profile_interval=3600.0, profile_burst=16)
    engine = engine_for_mode(q1.program, mode, telemetry=telemetry, **config)
    q1.load_statics(engine)
    for event in q1.events:
        engine.apply(event)
    engine.flush()
    assert engine.events_processed == len(q1.events)
    # The interval is an hour: exactly the initial burst gets sampled, after
    # which the hot path runs with observers disarmed (None).  A batched
    # engine samples only events its replayed runs apply one by one.
    sampled = telemetry.registry.histogram_family(
        "repro_engine_trigger_latency_seconds"
    )
    if mode == "compiled":
        assert sampled["count"] == 16
        assert engine._trigger_observers is None
    else:
        assert sampled["count"] <= 16
    # Samples scale up to the events that went through per-event apply; bulk
    # runs add their exact counts once.  Events in == events accounted, up to
    # one rounding per trigger.
    accounted = _events_total(telemetry.registry)
    assert abs(accounted - len(q1.events)) <= len(q1.program.triggers)


def test_disabled_mode_keeps_hot_path_bare(q1):
    telemetry = Telemetry(enabled=False)
    engine = engine_for_mode(q1.program, "compiled", telemetry=telemetry)
    assert engine._trigger_observers is None
    q1.load_statics(engine)
    for event in q1.events[:20]:
        engine.apply(event)
    assert engine.events_processed == 20
    # Nothing registered anywhere: the null registry stays empty.
    assert telemetry.registry.snapshot() == {}


def test_checkpoint_restore_keeps_metrics_monotonic(q1, tmp_path):
    telemetry = Telemetry(enabled=True)
    engine = engine_for_mode(q1.program, "compiled", telemetry=telemetry)
    service = ViewService(engine, checkpoint_dir=tmp_path, telemetry=telemetry)
    q1.load_statics(service)
    half = len(q1.events) // 2
    service.ingest(q1.events[:half])
    service.checkpoint()
    service.ingest(q1.events[half:])
    entries_full = dict(service.query(q1.root).entries)
    before = _events_total(telemetry.registry)

    restored = service.restore()
    assert restored == half
    # Metrics are process-lifetime: restoring state must not rewind them.
    assert _events_total(telemetry.registry) >= before
    service.ingest(q1.events[half:])
    assert dict(service.query(q1.root).entries) == entries_full
    # Replaying the tail again advances the accounting deterministically.
    assert _events_total(telemetry.registry) == before + (len(q1.events) - half)
    service.close()
