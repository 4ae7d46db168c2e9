"""Write-ahead log unit tests: append/replay round trips, group fsync,
torn-tail truncation, segment rotation and GC, and the batch-id dedup index."""

import os
import subprocess
import sys
from fractions import Fraction

import pytest

from repro.delta.events import delete, insert
from repro.durability import WriteAheadLog
from repro.durability import wal as wal_module
from repro.errors import DurabilityError


def batch(start, count=2):
    """A deterministic little batch mixing signs and value types."""
    out = []
    for i in range(count):
        n = start + i
        if n % 3 == 2:
            out.append(delete("R", n, float(n), Fraction(n, 7)))
        else:
            out.append(insert("R", n, float(n), Fraction(n, 7)))
    return out


def fill(wal, batches, size=2, batch_ids=False):
    for i in range(batches):
        wal.append(
            wal.end_offset,
            batch(i * size, size),
            batch_id=f"b{i}" if batch_ids else None,
        )


# -- round trips ------------------------------------------------------------------


def test_append_replay_round_trip_preserves_values_and_types(tmp_path):
    with WriteAheadLog(tmp_path) as wal:
        events = batch(0, 5)
        wal.append(0, events, batch_id="first")
        wal.append(5, batch(5, 3))
    reopened = WriteAheadLog(tmp_path)
    records = list(reopened.replay())
    assert [(r.offset, r.count, r.batch_id) for r in records] == [
        (0, 5, "first"), (5, 3, None),
    ]
    replayed = records[0].events
    assert [type(e) for e in replayed] == [type(e) for e in events]
    for got, sent in zip(replayed, events):
        assert got.relation == sent.relation and got.sign == sent.sign
        assert got.values == sent.values
        assert [type(v) for v in got.values] == [type(v) for v in sent.values]
    reopened.close()


def test_replay_from_offset_skips_checkpointed_batches(tmp_path):
    with WriteAheadLog(tmp_path) as wal:
        fill(wal, 4, size=3)
        assert [r.offset for r in wal.replay(6)] == [6, 9]
        assert list(wal.replay(12)) == []
        with pytest.raises(DurabilityError, match="cuts must align"):
            list(wal.replay(7))  # a cut inside a batch is a history mismatch


def test_append_must_continue_at_the_tip(tmp_path):
    with WriteAheadLog(tmp_path) as wal:
        wal.append(0, batch(0))
        with pytest.raises(DurabilityError, match="ends at 2"):
            wal.append(5, batch(5))


# -- group fsync -------------------------------------------------------------------


def test_fsync_every_groups_commits(tmp_path):
    with WriteAheadLog(tmp_path, fsync_every=3) as wal:
        assert wal.append(0, batch(0)) is False
        assert wal.append(2, batch(2)) is False
        assert wal.append(4, batch(4)) is True  # third record closes the group
        assert wal.synced_offset == wal.end_offset == 6
        wal.append(6, batch(6))
        assert wal.stats()["lag_events"] == 2
        wal.sync()
        assert wal.stats()["lag_events"] == 0
        assert wal.fsyncs == 2


def test_fsync_interval_flushes_stale_groups(tmp_path):
    with WriteAheadLog(tmp_path, fsync_every=None, fsync_interval_ms=0.0) as wal:
        # Interval 0: every append is already overdue, so each one syncs.
        assert wal.append(0, batch(0)) is True
    with WriteAheadLog(tmp_path / "lazy", fsync_every=None,
                       fsync_interval_ms=60_000) as wal:
        assert wal.append(0, batch(0)) is False  # within the interval: deferred


# -- crash tolerance ---------------------------------------------------------------


def test_torn_tail_is_truncated_on_open(tmp_path):
    with WriteAheadLog(tmp_path) as wal:
        fill(wal, 3)
        (_, path), = wal.segments()
    # The "power loss": half a record at the end of the newest segment.
    with open(path, "ab") as handle:
        handle.write(b'{"o": 6, "n": 2, "e": [')
    reopened = WriteAheadLog(tmp_path)
    assert reopened.end_offset == 6
    assert reopened.truncated_bytes > 0
    assert len(list(reopened.replay())) == 3
    # The log is appendable again right where the torn record was cut.
    reopened.append(6, batch(6))
    assert reopened.end_offset == 8
    reopened.close()


def test_corruption_in_an_older_segment_fails_loudly(tmp_path):
    with WriteAheadLog(tmp_path, segment_max_bytes=1) as wal:
        fill(wal, 3)  # 1-byte bound: every batch seals its own segment
        segments = wal.segments()
    assert len(segments) > 2
    segments[0][1].write_bytes(b"garbage\n")
    with pytest.raises(DurabilityError, match="non-tail segment"):
        WriteAheadLog(tmp_path)


# -- rotation and GC ---------------------------------------------------------------


def test_rotate_seals_segments_and_prune_drops_checkpointed_ones(tmp_path):
    with WriteAheadLog(tmp_path) as wal:
        fill(wal, 2, batch_ids=True)
        wal.rotate()
        wal.append(4, batch(4), batch_id="late")
        wal.rotate()
        wal.rotate()  # empty segment: rotating again is a no-op
        starts = [start for start, _ in wal.segments()]
        assert starts == [0, 4, 6]
        assert wal.prune(keep_from_offset=6) == 2
        assert [start for start, _ in wal.segments()] == [6]
        # Pruned segments surrender their dedup entries; the tail keeps its.
        assert wal.seen_batch("b0") is None
        assert wal.seen_batch("late") is None  # lived in the pruned 4..6 segment
        assert wal.end_offset == 6
        wal.append(6, batch(6))  # still appendable at the tip


def test_prune_forgets_pruned_batch_ids_without_reading_any_segment(tmp_path, monkeypatch):
    ids = ("b0", "b1", "b2", "kept", "tail")
    with WriteAheadLog(tmp_path) as wal:
        fill(wal, 3, batch_ids=True)  # segment 0 holds b0..b2 (versions 0..6)
        wal.rotate()
        wal.append(6, batch(6), batch_id="kept")
        wal.rotate()
        wal.append(8, batch(8), batch_id="tail")
        before = {batch_id: wal.seen_batch(batch_id) for batch_id in ids}
        assert None not in before.values()

        opened = []
        real_open = open

        def spying_open(path, mode="r", *args, **kwargs):
            opened.append((os.fspath(path), mode))
            return real_open(path, mode, *args, **kwargs)

        monkeypatch.setattr(wal_module, "open", spying_open, raising=False)
        assert wal.prune(keep_from_offset=7) == 1  # only the 0..6 segment goes
        monkeypatch.undo()
        assert opened == [], "prune forgets ids from the index, not by re-reading"

        after = {batch_id: wal.seen_batch(batch_id) for batch_id in ids}
        assert after == {**before, "b0": None, "b1": None, "b2": None}
    # The live index equals what a scan of the retained segments rebuilds.
    with WriteAheadLog(tmp_path) as reopened:
        assert {batch_id: reopened.seen_batch(batch_id) for batch_id in ids} == after


def test_prune_never_removes_the_active_segment(tmp_path):
    with WriteAheadLog(tmp_path) as wal:
        fill(wal, 2)
        assert wal.prune(keep_from_offset=10) == 0
        assert len(wal.segments()) == 1


def test_align_to_restarts_a_stale_log(tmp_path):
    with WriteAheadLog(tmp_path) as wal:
        fill(wal, 2, batch_ids=True)
        with pytest.raises(DurabilityError, match="already ends"):
            wal.align_to(1)
        wal.align_to(4)  # no-op at the tip
        assert wal.seen_batch("b0") is not None
        wal.align_to(50)
        assert wal.end_offset == wal.synced_offset == 50
        assert wal.seen_batch("b0") is None
        assert list(wal.replay(50)) == []
        wal.append(50, batch(50))
        assert [r.offset for r in wal.replay(50)] == [50]


def test_reset_clears_everything(tmp_path):
    with WriteAheadLog(tmp_path) as wal:
        fill(wal, 3, batch_ids=True)
        wal.reset()
        assert wal.end_offset == 0
        assert wal.seen_batch("b1") is None
        assert list(wal.replay()) == []


# -- dedup index -------------------------------------------------------------------


def test_batch_index_survives_reopen(tmp_path):
    with WriteAheadLog(tmp_path) as wal:
        wal.append(0, batch(0, 3), batch_id="alpha")
        wal.append(3, batch(3, 2), batch_id="beta")
    reopened = WriteAheadLog(tmp_path)
    assert reopened.seen_batch("alpha") == (3, 3)
    assert reopened.seen_batch("beta") == (2, 5)
    assert reopened.seen_batch("gamma") is None
    reopened.close()


# -- import order ------------------------------------------------------------------


@pytest.mark.parametrize(
    "module", ["repro.durability", "repro.durability.wal", "repro.service"]
)
def test_packages_import_first_in_a_fresh_interpreter(module):
    """No service<->durability cycle: either side may be the first import."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
    subprocess.run([sys.executable, "-c", f"import {module}"], check=True, env=env)
