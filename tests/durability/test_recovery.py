"""Recovery orchestration: the newest intact checkpoint + WAL tail replay.

Every test asserts *bit-identical* recovery — values and their runtime types
(int vs float vs Fraction) — because the paper's aggregates are only correct
if exactness survives a restart.
"""

import pickle
import shutil
from pathlib import Path

import pytest

from repro.codegen import CompiledEngine
from repro.errors import ServiceError
from repro.exec import BatchedEngine
from repro.runtime.engine import IncrementalEngine
from dur_helpers import (
    build_durable_service,
    inject_enospc,
    inject_fsync_eio,
    load_statics,
    make_workload_fixture,
    reference_entries,
    typed,
)

ENGINE_MODES = [
    ("incremental", {}),
    ("compiled", {}),
    ("batched", {"batch_size": 13}),
]


def run_with_cuts(fixture, tmp_path, mode="incremental", events=200, step=20,
                  **kwargs):
    """Ingest ``events`` in ``step``-sized batches, checkpointing every batch."""
    service = build_durable_service(fixture, mode, base=tmp_path, **kwargs)
    for start in range(0, events, step):
        service.ingest(fixture.events[start:start + step])
        service.checkpoint()
    return service


def recover_and_finish(fixture, tmp_path, mode="incremental", **kwargs):
    """Recover a fresh service, ingest whatever the stream still holds."""
    service = build_durable_service(fixture, mode, base=tmp_path, statics=False,
                                    **kwargs)
    report = service.recover(
        load_statics=lambda: load_statics(service, fixture.program, fixture.statics)
    )
    service.ingest(fixture.events[service.version:])
    return service, report


def reference_views(fixture):
    return reference_entries(
        fixture.program, fixture.statics, fixture.events, None, fixture.root
    )


# -- the happy path ---------------------------------------------------------------


@pytest.mark.parametrize("mode,kwargs", ENGINE_MODES)
def test_chain_plus_wal_tail_recovers_bit_identically(q3, tmp_path, mode, kwargs):
    """Newest base + WAL tail: a service killed mid-stream recovers to
    exactly the state an uninterrupted run reaches."""
    first = run_with_cuts(q3, tmp_path, mode, events=200,
                          **kwargs)
    first.ingest(q3.events[200:240])  # tail lives only in the WAL
    first.close()

    recovered, report = recover_and_finish(q3, tmp_path, mode, **kwargs)
    assert report["restored"] and report["wal_batches_replayed"] >= 1
    assert typed(recovered.query(q3.root).entries) == typed(reference_views(q3))
    stats = recovered.statistics()
    assert stats["recovering"] is False
    assert stats["durability"]["wal"]["end_offset"] == len(q3.events)
    recovered.close()


def test_cold_start_replays_the_whole_wal(q3, tmp_path):
    """No checkpoints at all: statics load via the callback, then the log
    replays from offset zero."""
    first = build_durable_service(q3, base=tmp_path)
    first.ingest(q3.events[:120])
    first.close()

    recovered, report = recover_and_finish(q3, tmp_path)
    assert not report["restored"]
    assert report["wal_batches_replayed"] == 1
    assert typed(recovered.query(q3.root).entries) == typed(reference_views(q3))
    recovered.close()


def test_reads_are_refused_until_recovery_catches_up(q1, tmp_path):
    first = build_durable_service(q1, base=tmp_path)
    first.ingest(q1.events[:100])
    first.checkpoint()
    first.close()

    service = build_durable_service(q1, base=tmp_path, statics=False)
    probed = {}

    # A service with checkpoints never fires the statics hook, so probe the
    # mid-recovery contract on the cold-start path of a checkpoint-less
    # sibling: while its recover() runs, reads and ingest must raise but
    # statistics() must keep working (and say so).
    sibling = build_durable_service(q1, base=tmp_path / "cold", statics=False)

    def probe():  # runs mid-recovery (the cold-start statics hook)
        probed["stats"] = sibling.statistics()
        with pytest.raises(ServiceError, match="recovering"):
            sibling.query(q1.root)
        with pytest.raises(ServiceError, match="recovering"):
            sibling.ingest(q1.events[:1])

    sibling.recover(load_statics=probe)
    assert probed["stats"]["recovering"] is True
    sibling.close()

    report = service.recover()
    assert report["restored"] and service.statistics()["recovering"] is False
    assert service.version == 100
    service.close()


# -- corruption: a corrupt newest base, a torn WAL tail ----------------------------


def test_corrupt_newest_base_falls_back_and_walks_the_shared_chain(q3, tmp_path):
    """The older kept base restores and the WAL, pruned no further than that
    base, replays the batch the corrupt base covered."""
    service = run_with_cuts(q3, tmp_path, events=200)
    service.close()
    bases = service.checkpoints.list()
    assert [info.version for info in bases] == [180, 200]
    bases[-1].path.write_bytes(bases[-1].path.read_bytes()[:32])

    recovered, report = recover_and_finish(q3, tmp_path)
    assert report["restored"] and report["version"] == 200
    assert report["wal_batches_replayed"] == 1
    assert typed(recovered.query(q3.root).entries) == typed(reference_views(q3))
    recovered.close()


def test_corrupt_wal_tail_truncates_to_the_durable_prefix(q3, tmp_path):
    service = run_with_cuts(q3, tmp_path, events=200)
    service.ingest(q3.events[200:220])
    service.ingest(q3.events[220:240])
    service.close()
    # Tear the newest WAL segment mid-record: the 220..240 batch is damaged.
    segments = sorted((tmp_path / "wal").glob("wal-*.log"))
    tail = segments[-1]
    tail.write_bytes(tail.read_bytes()[:-40])

    recovered, report = recover_and_finish(q3, tmp_path)
    assert report["restored"]
    # Recovery caught up to the last *intact* record, then our re-ingest of
    # events[version:] replayed the torn batch from the source.
    assert typed(recovered.query(q3.root).entries) == typed(reference_views(q3))
    recovered.close()


# -- idempotent ingest -------------------------------------------------------------


def test_batch_ids_deduplicate_within_a_run(q1, tmp_path):
    service = build_durable_service(q1, base=tmp_path)
    first = service.ingest(q1.events[:30], batch_id="batch-a")
    assert not first.deduplicated and service.version == 30
    again = service.ingest(q1.events[:30], batch_id="batch-a")
    assert again.deduplicated and again.version == 30
    assert service.version == 30
    assert typed(service.query(q1.root).entries) == typed(
        reference_views_prefix(q1, 30)
    )
    service.close()


def test_batch_ids_deduplicate_across_restart_via_the_wal(q1, tmp_path):
    """The retry window a crash opens: the ack is lost but the batch is in
    the log, so the client's retry after recovery must not double-apply."""
    service = build_durable_service(q1, base=tmp_path)
    service.ingest(q1.events[:30], batch_id="batch-a")
    service.close()

    recovered, _ = recover_and_finish(q1, tmp_path)
    assert recovered.version == len(q1.events)
    retried = recovered.ingest(q1.events[:30], batch_id="batch-a")
    assert retried.deduplicated
    assert recovered.version == len(q1.events)
    assert typed(recovered.query(q1.root).entries) == typed(reference_views(q1))
    recovered.close()


def reference_views_prefix(fixture, version):
    return reference_entries(
        fixture.program, fixture.statics, fixture.events, version, fixture.root
    )


# -- a directory written before the v2 record frame --------------------------------------


@pytest.mark.parametrize("mode,kwargs", ENGINE_MODES)
def test_parent_written_chain_and_v1_wal_recover_bit_identically(tmp_path, mode, kwargs):
    """``fixtures/v1/service``: a checkpoint chain and a v1-format WAL written
    by the commit before the v2 frame (see ``make_v1_fixture.py`` there)."""
    shutil.copytree(Path(__file__).parent / "fixtures" / "v1" / "service", tmp_path,
                    dirs_exist_ok=True)
    q1 = make_workload_fixture("Q1", events=240, max_live_orders=20)
    service = build_durable_service(q1, mode, base=tmp_path, statics=False,
                                    **kwargs)
    report = service.recover()
    assert report["restored"] and report["version"] == 200
    assert report["wal_batches_replayed"] == 1  # b4, the only batch past the last cut
    assert service.ingest(q1.events[160:200], batch_id="b4").deduplicated
    assert service.ingest(q1.events[40:80], batch_id="b1").deduplicated
    service.ingest(q1.events[200:], batch_id="b5")  # a v2 record after the v1 ones
    service.checkpoint()
    service.close()

    again = build_durable_service(q1, mode, base=tmp_path, statics=False,
                                  **kwargs)
    assert again.recover()["version"] == 240
    assert again.ingest(q1.events[200:], batch_id="b5").deduplicated
    for root in sorted(q1.program.roots):
        assert typed(again.query(root).entries) == typed(
            reference_entries(q1.program, q1.statics, q1.events, None, root)
        )
    again.close()


# -- a default directory written while cuts were incremental deltas ----------------


@pytest.mark.parametrize("mode,kwargs", ENGINE_MODES)
def test_parent_written_delta_chain_restores_its_base_and_replays_the_wal(
    tmp_path, mode, kwargs
):
    """``fixtures/chain/service``: a base at 40, deltas at 80 and 120 and a WAL
    up to 160 (see ``make_chain_fixture.py`` there).  The deltas are ignored:
    the base restores and the three logged batches after it replay."""
    shutil.copytree(Path(__file__).parent / "fixtures" / "chain" / "service", tmp_path,
                    dirs_exist_ok=True)
    q1 = make_workload_fixture("Q1", events=160, max_live_orders=20)
    service = build_durable_service(q1, mode, base=tmp_path, statics=False, **kwargs)
    report = service.recover()
    assert report["restored"] and report["version"] == 160
    assert report["wal_batches_replayed"] == 3
    for root in sorted(q1.program.roots):
        assert typed(service.query(root).entries) == typed(
            reference_entries(q1.program, q1.statics, q1.events, None, root)
        )
    service.checkpoint()
    assert not list((tmp_path / "ckpt").glob("delta-*.ckpt"))
    assert [info.version for info in service.checkpoints.list()] == [40, 160]
    service.close()


# -- engine states written while tables keyed by Rows ------------------------------


@pytest.mark.parametrize(
    "make", [CompiledEngine, lambda program: BatchedEngine(program, 1000)],
    ids=["compiled", "batched-1000"],
)
@pytest.mark.parametrize("query,total,cut,stream_kwargs", [
    ("Q3", 800, 400, {"max_live_orders": 25}),
    ("VWAP", 300, 150, {}),
])
def test_parent_written_single_state_restores_bit_identically(
    query, total, cut, stream_kwargs, make
):
    """``fixtures/single/<query>.state``: a compiled engine's mid-stream
    ``checkpoint_state()`` written while tables keyed by ``Row``s (see
    ``make_single_fixture.py`` there).  Restored and continued, every map
    matches the interpreter over the whole stream: values, types and order."""
    with open(Path(__file__).parent / "fixtures" / "single" / f"{query}.state", "rb") as handle:
        state = pickle.load(handle)
    fixture = make_workload_fixture(query, events=total, **stream_kwargs)
    reference = IncrementalEngine(fixture.program)
    load_statics(reference, fixture.program, fixture.statics)
    reference.apply_many(fixture.events)
    engine = make(fixture.program)
    engine.restore_state(state)
    assert engine.events_processed == cut
    engine.apply_many(fixture.events[cut:])
    engine.flush()
    assert any(reference.result_dict(root) for root in fixture.program.roots)
    for name in fixture.program.maps:
        expected = reference.result_dict(name)
        got = engine.result_dict(name)
        assert typed(got) == typed(expected)
        assert list(got) == list(expected)
    engine.close()


# -- a failing log append ------------------------------------------------------------


def _fail_second_batch(fixture, tmp_path, inject, mode="compiled"):
    """Ingest 40 events, then fail the append of the next 40; returns the service."""
    service = build_durable_service(fixture, mode, base=tmp_path)
    service.ingest(fixture.events[:40])
    inject(service.wal)
    with pytest.raises(OSError):
        service.ingest(fixture.events[40:80])
    # Failed, like a mid-batch engine failure: nothing is served or logged.
    with pytest.raises(ServiceError, match="failed mid-ingest"):
        service.query(fixture.root)
    with pytest.raises(ServiceError, match="failed mid-ingest"):
        service.ingest(fixture.events[40:80])
    service.close()
    return service


def _restart(fixture, tmp_path, mode="compiled"):
    service = build_durable_service(fixture, mode, base=tmp_path, statics=False)
    report = service.recover(
        load_statics=lambda: load_statics(service, fixture.program, fixture.statics)
    )
    return service, report


def test_a_torn_append_fails_the_service_and_a_restart_drops_the_torn_batch(
    q3, tmp_path
):
    _fail_second_batch(q3, tmp_path, inject_enospc)
    recovered, report = _restart(q3, tmp_path)
    assert report["version"] == 40 and report["wal"]["truncated_bytes"] > 0
    assert typed(recovered.query(q3.root).entries) == typed(
        reference_views_prefix(q3, 40)
    )
    recovered.ingest(q3.events[40:80])  # the log appends again after the restart
    assert recovered.version == 80
    recovered.close()


def test_a_failed_fsync_fails_the_service_and_a_restart_replays_the_logged_batch(
    q3, tmp_path, monkeypatch
):
    with monkeypatch.context() as patch:
        _fail_second_batch(q3, tmp_path, lambda wal: inject_fsync_eio(patch))
    recovered, report = _restart(q3, tmp_path)
    # The record reached the file before its fsync failed: the log holds it.
    assert report["version"] == 80 and report["wal"]["truncated_bytes"] == 0
    assert typed(recovered.query(q3.root).entries) == typed(
        reference_views_prefix(q3, 80)
    )
    recovered.close()
