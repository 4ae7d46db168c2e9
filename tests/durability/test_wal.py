"""Write-ahead log unit tests: append/replay round trips, the v2 frame and
its damage matrix, v1 read compatibility, what open/prune/replay decode, group
fsync, torn-tail truncation, failing writes, segment rotation and GC, the
batch-id index."""

import errno
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from repro.delta.events import delete, insert
from repro.durability import WriteAheadLog
from repro.durability import wal as wal_module
from repro.errors import DurabilityError
from repro.service.wire import dump_line, encode_value
from repro.streams.adapters import encode_ingest_request, event_to_dict
from repro.telemetry import Telemetry
from dur_helpers import inject_enospc, inject_fsync_eio

V1_FIXTURE = Path(__file__).parent / "fixtures" / "v1"


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


def request_line(events, batch_id):
    """The line ``ServiceClient.ingest`` sends (Fractions tagged by hand: the
    client itself only ships JSON-native values)."""
    payloads = [
        {**event_to_dict(e), "values": [encode_value(v) for v in e.values]}
        for e in events
    ]
    request = {"op": "ingest", "events": payloads}
    if batch_id is not None:
        request["batch_id"] = batch_id
    return dump_line(request)


def typed_events(events):
    return [(e.relation, e.sign, [(type(v), v) for v in e.values]) for e in events]


def test_passthrough_and_encoder_built_records_hold_the_request_line(tmp_path):
    events = batch(0, 5)
    line = request_line(events, "wire")
    assert encode_ingest_request(events, "wire") == line  # one wire encoder
    with WriteAheadLog(tmp_path) as wal:
        wal.append(0, events, batch_id="wire", encoded=line)
        wal.append(5, events, batch_id="wire")  # no bytes: the log encodes
        assert wal.stats()["records_appended"] == 2
        assert wal.stats()["records_passthrough"] == 1
        (_, path), = wal.segments()
    first, second = path.read_bytes().splitlines(keepends=True)
    for record in (first, second):
        header, _, payload = record.partition(b"\t")
        assert header.startswith(b"W2 ") and payload == line  # byte for byte
    telemetry = Telemetry(enabled=True)
    with WriteAheadLog(tmp_path, telemetry=telemetry) as reopened:
        passed, built = reopened.replay()
        assert typed_events(passed.events) == typed_events(events)
        assert typed_events(built.events) == typed_events(events)
        assert passed.events is passed.events  # decoded once, kept
        reopened.append(10, events, encoded=line)
        scrape = telemetry.registry.render_prometheus()
        assert "repro_wal_records_passthrough_total 1" in scrape
        assert "repro_wal_payload_decodes_total 2" in scrape


def test_a_request_line_without_its_newline_is_terminated_and_others_refused(tmp_path):
    events = batch(0, 2)
    line = request_line(events, None)
    with WriteAheadLog(tmp_path) as wal:
        wal.append(0, events, encoded=line[:-1])  # a socket's last line at EOF
        with pytest.raises(DurabilityError, match="one line"):
            wal.append(2, events, encoded=line + line)
        assert wal.end_offset == 2
    with WriteAheadLog(tmp_path) as reopened:
        (record,) = reopened.replay()
        assert typed_events(record.events) == typed_events(events)


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


def _cut_header(record):
    return record[: record.index(b"\t") - 3]


def _cut_payload(record):
    return record[:-40]


def _flip(position):
    def flip(record):
        at = position if position >= 0 else len(record) + position
        return record[:at] + bytes([record[at] ^ 0x01]) + record[at + 1:]

    return flip


DAMAGE = {
    "torn header": _cut_header,
    "torn payload": _cut_payload,
    "flipped payload byte": _flip(-20),
    "flipped offset digit": _flip(12),
    "flipped crc digit": _flip(5),
    "flipped format mark": _flip(1),
}


@pytest.mark.parametrize("damage", list(DAMAGE))
def test_damaged_record_truncates_at_the_tail_and_fails_loudly_elsewhere(
    tmp_path, damage
):
    with WriteAheadLog(tmp_path / "tail") as wal:
        fill(wal, 3, batch_ids=True)
        (_, path), = wal.segments()
    records = path.read_bytes().splitlines(keepends=True)
    path.write_bytes(b"".join(records[:2]) + DAMAGE[damage](records[2]))
    with WriteAheadLog(tmp_path / "tail") as reopened:
        assert reopened.end_offset == 4 and reopened.truncated_bytes > 0
        assert reopened.seen_batch("b1") and reopened.seen_batch("b2") is None
        assert [r.offset for r in reopened.replay()] == [0, 2]
        reopened.append(4, batch(4))  # appendable where the damage was cut

    with WriteAheadLog(tmp_path / "old", segment_max_bytes=1) as wal:
        fill(wal, 3)  # every batch seals its own segment
        (_, oldest), *_ = wal.segments()
    oldest.write_bytes(DAMAGE[damage](oldest.read_bytes()))
    with pytest.raises(DurabilityError, match="non-tail segment"):
        WriteAheadLog(tmp_path / "old")


def test_crc_clean_but_undecodable_payload_is_corruption_not_a_torn_tail(tmp_path):
    with WriteAheadLog(tmp_path) as wal:
        fill(wal, 2)
        wal.append(4, batch(4), encoded=b'{"op":"ingest","events":[{"kind":"upsert"}]}\n')
        (_, path), = wal.segments()
    with WriteAheadLog(tmp_path) as reopened:
        assert reopened.end_offset == 6 and reopened.truncated_bytes == 0
        with pytest.raises(DurabilityError) as failure:
            for record in reopened.replay():
                record.events
        assert path.name in str(failure.value) and "offset 4" in str(failure.value)


def test_corruption_in_an_older_segment_fails_loudly(tmp_path):
    with WriteAheadLog(tmp_path, segment_max_bytes=1) as wal:
        fill(wal, 3)  # 1-byte bound: every batch seals its own segment
        segments = wal.segments()
    assert len(segments) > 2
    segments[0][1].write_bytes(b"garbage\n")
    with pytest.raises(DurabilityError, match="non-tail segment"):
        WriteAheadLog(tmp_path)


# -- failing writes ----------------------------------------------------------------


def test_a_torn_append_closes_the_log_and_reopening_drops_only_the_torn_record(tmp_path):
    wal = WriteAheadLog(tmp_path)
    fill(wal, 2)
    inject_enospc(wal)
    with pytest.raises(OSError, match=os.strerror(errno.ENOSPC)):
        wal.append(4, batch(4))
    with pytest.raises(DurabilityError, match="restart"):
        wal.append(4, batch(4))  # never acknowledged on top of torn bytes
    with pytest.raises(DurabilityError, match="restart"):
        wal.sync()
    wal.close()
    with WriteAheadLog(tmp_path) as reopened:
        assert reopened.truncated_bytes > 0 and reopened.end_offset == 4
        assert [r.offset for r in reopened.replay()] == [0, 2]


def test_a_failed_fsync_closes_the_log_and_reopening_keeps_the_written_record(
    tmp_path, monkeypatch
):
    wal = WriteAheadLog(tmp_path)
    fill(wal, 2)
    with monkeypatch.context() as patch:
        inject_fsync_eio(patch)
        with pytest.raises(OSError, match=os.strerror(errno.EIO)):
            wal.append(4, batch(4))
    with pytest.raises(DurabilityError, match="restart"):
        wal.append(wal.end_offset, batch(6))
    wal.close()
    with WriteAheadLog(tmp_path) as reopened:
        assert reopened.truncated_bytes == 0 and reopened.end_offset == 6
        assert [r.offset for r in reopened.replay()] == [0, 2, 4]


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


AWKWARD_IDS = ["two words", "tab\there", "line\nbreak", 'a "quoted" id', "żółć-é-日本", "\\"]


def test_awkward_batch_ids_survive_reopen_and_still_dedupe(tmp_path):
    with WriteAheadLog(tmp_path) as wal:
        for index, batch_id in enumerate(AWKWARD_IDS):
            wal.append(index * 2, batch(index * 2), batch_id=batch_id)
    with WriteAheadLog(tmp_path) as reopened:
        assert reopened.truncated_bytes == 0
        for index, batch_id in enumerate(AWKWARD_IDS):
            assert reopened.seen_batch(batch_id) == (2, index * 2 + 2)
        assert [r.batch_id for r in reopened.replay()] == AWKWARD_IDS


# -- what open, prune and replay decode ---------------------------------------------


def test_open_and_prune_read_headers_and_replay_decodes_only_past_the_cut(
    tmp_path, monkeypatch
):
    with WriteAheadLog(tmp_path) as wal:
        fill(wal, 4, batch_ids=True)
        wal.rotate()
        sealed_at = wal.end_offset
        for i in range(4, 10):
            wal.append(wal.end_offset, batch(i * 2), batch_id=f"b{i}")
    loads = []
    real_loads = json.loads
    monkeypatch.setattr(
        wal_module.json, "loads", lambda *a, **k: loads.append(1) or real_loads(*a, **k)
    )
    with WriteAheadLog(tmp_path) as reopened:
        assert reopened.end_offset == 20
        assert reopened.seen_batch("b7") == (2, 16)
        assert reopened.prune(keep_from_offset=sealed_at) == 1
        assert loads == [] and reopened.payload_decodes == 0
        records = list(reopened.replay(14))
        assert [r.offset for r in records] == [14, 16, 18]
        assert loads == [] and reopened.payload_decodes == 0  # headers only so far
        for record in records:
            assert record.events and record.events is record.events
        assert len(loads) == 3 and reopened.stats()["payload_decodes"] == 3


# -- v1 read compatibility -----------------------------------------------------------


def v1_batch(start, count):
    """The events ``fixtures/v1/make_v1_fixture.py`` logged."""
    return [
        (delete if n % 3 == 2 else insert)("R", n, float(n), Fraction(n, 7), f"s{n}")
        for n in range(start, start + count)
    ]


def test_a_v1_directory_opens_dedupes_and_replays(tmp_path):
    shutil.copytree(V1_FIXTURE / "wal", tmp_path / "wal")
    with WriteAheadLog(tmp_path / "wal") as wal:
        assert wal.end_offset == 10 and wal.truncated_bytes == 0
        awkward = 'id with space, "quote" and é'
        assert wal.seen_batch("alpha") == (3, 3)
        assert wal.seen_batch(awkward) == (4, 9)
        records = list(wal.replay())
        assert [(r.offset, r.count, r.batch_id) for r in records] == [
            (0, 3, "alpha"), (3, 2, None), (5, 4, awkward), (9, 1, "omega"),
        ]
        logged = [event for r in records for event in r.events]
        assert typed_events(logged) == typed_events(v1_batch(0, 10))
        assert [r.offset for r in wal.replay(5)] == [5, 9]


def test_v2_records_follow_v1_records_in_one_segment(tmp_path):
    shutil.copytree(V1_FIXTURE / "wal", tmp_path / "wal")
    with WriteAheadLog(tmp_path / "wal") as wal:
        wal.append(10, v1_batch(10, 3), batch_id="after")
        tail = wal.segments()[-1][1]
    kinds = [line[:1] for line in tail.read_bytes().splitlines()]
    assert kinds == [b"{", b"{", b"W"]
    with WriteAheadLog(tmp_path / "wal") as reopened:
        assert reopened.end_offset == 13
        assert reopened.seen_batch("omega") == (1, 10)
        assert reopened.seen_batch("after") == (3, 13)
        logged = [event for r in reopened.replay() for event in r.events]
        assert typed_events(logged) == typed_events(v1_batch(0, 13))


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
