"""Checkpoint/restore: a restarted service converges to bit-identical views."""

import pickle

import pytest

from repro.errors import ExecutionError, RuntimeEngineError, ServiceError
from repro.service import CheckpointStore, ViewService, engine_for_mode
from svc_helpers import build_service, load_statics, reference_entries

ENGINE_MODES = [
    ("incremental", {}),
    ("batched", {"batch_size": 11}),
    ("partitioned", {"partitions": 2}),
    ("partitioned", {"partitions": 2, "batch_size": 7}),
]


def typed(entries):
    """Entries with value types pinned: bit-identical, not merely ==."""
    return {key: (type(value), value) for key, value in entries.items()}


# -- the store --------------------------------------------------------------------


def test_store_lists_and_loads_checkpoints_in_version_order(tmp_path):
    store = CheckpointStore(tmp_path / "ckpt")
    assert store.latest() is None
    store.save(10, {"kind": "single"})
    store.save(200, {"kind": "single", "marker": True})
    store.save(30, {"kind": "single"})
    versions = [info.version for info in store.list()]
    assert versions == [10, 30, 200]
    assert store.latest().version == 200
    payload = store.load()
    assert payload["version"] == 200
    assert payload["engine_state"]["marker"] is True
    # No stray temp files survive the atomic writes.
    assert not list((tmp_path / "ckpt").glob("*.tmp"))


def test_store_load_falls_back_past_corrupt_checkpoints(tmp_path):
    """A truncated newest file (crash mid-durability) must not break restore:
    the next older intact checkpoint is loaded instead."""
    store = CheckpointStore(tmp_path)
    store.save(10, {"kind": "single", "marker": "old"})
    newest = store.save(20, {"kind": "single"})
    newest.path.write_bytes(newest.path.read_bytes()[:16])  # the "power loss"
    payload = store.load()
    assert payload["version"] == 10
    assert payload["engine_state"]["marker"] == "old"
    # An explicitly requested checkpoint still fails loudly.
    with pytest.raises(Exception):
        store.load(newest)
    # With every file corrupt, load reports them all instead of guessing.
    for info in store.list():
        info.path.write_bytes(b"\x80garbage")
    with pytest.raises(ServiceError, match="no intact checkpoint"):
        store.load()


def test_store_prune_keeps_two_bases_and_drops_delta_files(tmp_path):
    """``delta-*.ckpt`` files of older builds are never read; GC deletes them."""
    store = CheckpointStore(tmp_path)
    assert store.prune() is None
    for version in (10, 20, 30):
        store.save(version, {"kind": "single"})
    (tmp_path / "delta-000000000025.ckpt").write_bytes(b"from an older build")
    assert store.prune() == 20
    assert sorted(path.name for path in tmp_path.iterdir()) == [
        "checkpoint-000000000020.ckpt",
        "checkpoint-000000000030.ckpt",
    ]


def test_store_reset_deletes_every_checkpoint_file(tmp_path):
    store = CheckpointStore(tmp_path)
    store.save(10, {"kind": "single"})
    (tmp_path / "delta-000000000015.ckpt").write_bytes(b"from an older build")
    store.reset()
    assert store.latest() is None
    assert not list(tmp_path.iterdir())


def test_store_rejects_unknown_formats_and_empty_dirs(tmp_path):
    store = CheckpointStore(tmp_path)
    with pytest.raises(ServiceError, match="no checkpoints"):
        store.load()
    info = store.save(5, {"kind": "single"})
    payload = pickle.loads(info.path.read_bytes())
    payload["format"] = 99
    info.path.write_bytes(pickle.dumps(payload))
    with pytest.raises(ServiceError, match="format"):
        store.load()


# -- service restart --------------------------------------------------------------


@pytest.mark.parametrize("mode,kwargs", ENGINE_MODES)
def test_interrupted_run_restores_to_bit_identical_views(q1, tmp_path, mode, kwargs):
    """Kill mid-stream, restore, replay the tail: same result_dict, same types."""
    cut = 130
    # The uninterrupted run.
    uninterrupted = build_service(q1, mode, **kwargs)
    uninterrupted.ingest(q1.events)
    expected = uninterrupted.query(q1.root).entries
    uninterrupted.close()

    # A service that checkpoints mid-stream and then dies.
    first = build_service(q1, mode, checkpoint_dir=tmp_path, **kwargs)
    first.ingest(q1.events[:cut])
    info = first.checkpoint()
    assert info.version == cut
    first.close()  # the "crash": everything after the checkpoint is lost

    # A fresh process: new engine, restore, replay the same source from scratch.
    restored = ViewService(
        engine_for_mode(q1.program, mode, **kwargs), checkpoint_dir=tmp_path
    )
    assert restored.restore() == cut
    applied = restored.replay(q1.events, batch_size=32)
    assert applied == len(q1.events) - cut
    assert restored.version == len(q1.events)
    got = restored.query(q1.root).entries
    assert typed(got) == typed(expected)
    assert typed(got) == typed(
        reference_entries(q1.program, q1.statics, q1.events, None, q1.root)
    )
    restored.close()


def test_restore_falls_back_when_the_newest_checkpoint_is_corrupt(q1, tmp_path):
    """End to end: newest checkpoint truncated, service restores the older
    one and the tail replay still converges to the reference."""
    first = build_service(q1, checkpoint_dir=tmp_path)
    first.ingest(q1.events[:100])
    intact = first.checkpoint()
    first.ingest(q1.events[100:150])
    corrupt = first.checkpoint()
    first.close()
    corrupt.path.write_bytes(corrupt.path.read_bytes()[:64])

    restored = ViewService(
        engine_for_mode(q1.program, "incremental"), checkpoint_dir=tmp_path
    )
    assert restored.restore() == intact.version == 100
    restored.replay(q1.events, batch_size=40)
    assert typed(restored.query(q1.root).entries) == typed(
        reference_entries(q1.program, q1.statics, q1.events, None, q1.root)
    )
    restored.close()


def test_restore_closes_live_subscriptions(q1, tmp_path):
    """The version can jump backwards across a restore, so stale subscribers
    are closed (resubscribe-with-fresh-snapshot, like overflow) instead of
    receiving duplicate or rewound deltas."""
    service = build_service(q1, checkpoint_dir=tmp_path)
    service.ingest(q1.events[:50])
    service.checkpoint()
    subscription = service.subscribe(q1.root)
    service.ingest(q1.events[50:100])
    assert service.restore() == 50
    assert subscription.closed and not subscription.overflowed
    pending = len(subscription)
    service.ingest(q1.events[50:100])  # the replayed tail
    assert len(subscription) == pending, "closed subscriber received replayed deltas"
    service.close()


def test_checkpoint_preserves_static_tables(q3, tmp_path):
    """Restore must not require (or tolerate) reloading static relations."""
    first = build_service(q3, checkpoint_dir=tmp_path)
    first.ingest(q3.events[:80])
    first.checkpoint()
    first.close()

    restored = ViewService(
        engine_for_mode(q3.program, "incremental"), checkpoint_dir=tmp_path
    )
    restored.restore()  # statics are inside the state; nothing else loaded
    restored.replay(q3.events)
    baseline = build_service(q3)
    baseline.ingest(q3.events)
    assert typed(restored.query(q3.root).entries) == typed(
        baseline.query(q3.root).entries
    )


def test_restore_returns_none_without_checkpoints(q1, tmp_path):
    service = build_service(q1, checkpoint_dir=tmp_path)
    assert service.restore() is None
    with pytest.raises(ServiceError, match="without a checkpoint directory"):
        build_service(q1).restore()


def test_replay_checkpoint_every_leaves_periodic_checkpoints(q1, tmp_path):
    """Cuts land every 50 events, each a full base; GC keeps the newest two."""
    service = build_service(q1, checkpoint_dir=tmp_path)
    service.replay(q1.events[:200], batch_size=25, checkpoint_every=50)
    assert [info.version for info in service.checkpoints.list()] == [150, 200]
    assert sorted(path.name for path in tmp_path.iterdir()) == [
        "checkpoint-000000000150.ckpt",
        "checkpoint-000000000200.ckpt",
    ]


def test_stream_stats_survive_restarts(q1, tmp_path):
    first = build_service(q1, checkpoint_dir=tmp_path)
    first.ingest(q1.events[:90])
    stats_before = first.statistics()["stream"]
    first.checkpoint()
    restored = ViewService(
        engine_for_mode(q1.program, "incremental"), checkpoint_dir=tmp_path
    )
    restored.restore()
    assert restored.statistics()["stream"] == stats_before


# -- engine-state compatibility ---------------------------------------------------


def test_single_states_are_interchangeable_between_incremental_and_batched(q1):
    batched = build_service(q1, "batched", batch_size=17)
    batched.ingest(q1.events[:100])
    state = batched.engine.checkpoint_state()
    incremental = engine_for_mode(q1.program, "incremental")
    incremental.restore_state(state)
    assert typed(incremental.result_dict(q1.root)) == typed(
        batched.engine.result_dict(q1.root)
    )
    assert incremental.events_processed == 100


def test_mismatched_state_kinds_are_rejected(q1):
    partitioned = engine_for_mode(q1.program, "partitioned", partitions=2)
    incremental = engine_for_mode(q1.program, "incremental")
    with pytest.raises(RuntimeEngineError, match="single"):
        incremental.restore_state(partitioned.checkpoint_state())
    with pytest.raises(ExecutionError, match="partitioned"):
        partitioned.restore_state(incremental.checkpoint_state())
    three = engine_for_mode(q1.program, "partitioned", partitions=3)
    with pytest.raises(ExecutionError, match="partitions"):
        three.restore_state(partitioned.checkpoint_state())
    partitioned.close()
    three.close()


def test_restore_rejects_unknown_state_formats(q1):
    incremental = engine_for_mode(q1.program, "incremental")
    state = incremental.checkpoint_state()
    state["format"] = 99
    with pytest.raises(RuntimeEngineError, match="format"):
        incremental.restore_state(state)
    partitioned = engine_for_mode(q1.program, "partitioned", partitions=2)
    state = partitioned.checkpoint_state()
    state["format"] = 99
    with pytest.raises(ExecutionError, match="format"):
        partitioned.restore_state(state)
    partitioned.close()


def test_restore_rejects_states_from_other_programs(q1, q3):
    foreign = engine_for_mode(q3.program, "incremental")
    state = foreign.checkpoint_state()
    engine = engine_for_mode(q1.program, "incremental")
    with pytest.raises(RuntimeEngineError, match=q3.program.digest):
        engine.restore_state(state)
    # A state written before checkpoints named their program: the map names
    # are all there is to go by.
    del state["program"]
    with pytest.raises(RuntimeEngineError, match="not declared"):
        engine.restore_state(state)


def test_process_backend_checkpoints_round_trip(q1):
    """Worker processes serve state/restore over their pipes."""
    engine = engine_for_mode(q1.program, "partitioned", partitions=2, backend="process")
    try:
        engine.apply_many(q1.events[:60])
        state = engine.checkpoint_state()
        fresh = engine_for_mode(
            q1.program, "partitioned", partitions=2, backend="process"
        )
        try:
            fresh.restore_state(state)
            assert typed(fresh.result_dict(q1.root)) == typed(
                engine.result_dict(q1.root)
            )
            fresh.apply_many(q1.events[60:90])
            engine.apply_many(q1.events[60:90])
            assert typed(fresh.result_dict(q1.root)) == typed(
                engine.result_dict(q1.root)
            )
        finally:
            fresh.close()
    finally:
        engine.close()
