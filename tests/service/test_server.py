"""End-to-end TCP serving: equivalence under concurrent ingest, subscriptions
over the wire, checkpoint/restart convergence, protocol errors, request lines
logged verbatim, the one-write subscriber pump and a quiet shutdown."""

import asyncio
import os
import subprocess
import sys
import threading
import time
from fractions import Fraction

import pytest

from repro.errors import ServiceError
from repro.service import ServiceClient, ViewService, engine_for_mode, start_in_thread
from repro.service.server import ViewServer
from repro.service.wire import dump_line, encode_value
from repro.streams.adapters import event_to_dict
from svc_helpers import build_service, reference_entries

ENGINE_MODES = [
    ("incremental", {}),
    ("batched", {"batch_size": 13}),
    ("partitioned", {"partitions": 2}),
]


def serve(fixture, mode="incremental", checkpoint_dir=None, **kwargs):
    service = build_service(fixture, mode, checkpoint_dir=checkpoint_dir, **kwargs)
    handle = start_in_thread(service)
    return service, handle


@pytest.mark.parametrize("mode,kwargs", ENGINE_MODES)
def test_served_views_match_reference_at_every_queried_version(q1, mode, kwargs):
    """The acceptance property: while one client ingests, snapshots read by a
    concurrent client equal the full-recomputation reference at their version,
    for every engine mode."""
    service, handle = serve(q1, mode, **kwargs)
    total = 240
    chunk = 16
    observed = {}
    done = threading.Event()

    def ingest_loop():
        with ServiceClient(*handle.address) as client:
            for start in range(0, total, chunk):
                client.ingest(q1.events[start:start + chunk])
        done.set()

    def query_loop():
        with ServiceClient(*handle.address) as client:
            while not done.is_set():
                snapshot = client.query(q1.root)
                observed.setdefault(snapshot.version, snapshot.entries)
            observed.setdefault(total, client.query(q1.root).entries)

    threads = [threading.Thread(target=ingest_loop), threading.Thread(target=query_loop)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    try:
        assert observed, "the query loop never completed a read"
        assert total in observed
        # Snapshot consistency: only ingest-batch boundaries are observable.
        assert all(version % chunk == 0 for version in observed)
        for version, entries in sorted(observed.items()):
            assert entries == reference_entries(
                q1.program, q1.statics, q1.events, version, q1.root
            ), f"served snapshot at version {version} diverged from the reference"
    finally:
        handle.stop()
        service.close()


def test_wire_subscription_is_ordered_and_exactly_once(q1):
    service, handle = serve(q1, "batched", batch_size=9)
    received = []
    try:
        with ServiceClient(*handle.address) as ingestor:
            ingestor.ingest(q1.events[:50])
            baseline = ingestor.query(q1.root)

            subscriber = ServiceClient(*handle.address)
            stream = subscriber.subscribe(q1.root)

            published = 0
            for start in range(50, 200, 30):
                published += ingestor.ingest(q1.events[start:start + 30]).notifications
            final = ingestor.query(q1.root)

            assert published > 0
            notifications = stream.take(published)
            subscriber.close()

        assert [n.sequence for n in notifications] == list(range(len(notifications)))
        versions = [n.version for n in notifications]
        assert versions == sorted(versions)
        state = dict(baseline.entries)
        for n in notifications:
            assert state.get(n.key) == n.old
            if n.new is None:
                state.pop(n.key, None)
            else:
                state[n.key] = n.new
        assert state == final.entries
    finally:
        handle.stop()
        service.close()


def test_in_process_ingest_reaches_wire_subscribers(q1):
    """Deltas published by ViewService.ingest() on the embedding process — no
    wire request involved — must still be pumped to TCP subscribers."""
    service, handle = serve(q1)
    try:
        subscriber = ServiceClient(*handle.address)
        stream = subscriber.subscribe(q1.root)
        received = []
        consumer = threading.Thread(target=lambda: received.extend(stream.take(1)))
        consumer.start()
        published = 0
        start = 0
        while published == 0 and start < len(q1.events):
            published = service.ingest(q1.events[start:start + 30]).notifications
            start += 30
        assert published > 0
        consumer.join(timeout=10)
        assert not consumer.is_alive(), "subscriber never saw the in-process deltas"
        assert received and received[0].view == q1.root
        subscriber.close()
    finally:
        handle.stop()
        service.close()


def test_idle_subscription_survives_the_request_timeout(q1):
    """A delta stream that stays quiet longer than the client's request
    timeout must keep blocking, not die with socket.timeout."""
    service, handle = serve(q1)
    try:
        with ServiceClient(*handle.address) as ingestor:
            subscriber = ServiceClient(*handle.address, timeout=0.5)
            stream = subscriber.subscribe(q1.root)
            time.sleep(1.2)  # idle for longer than the subscriber's timeout
            published = 0
            start = 0
            while published == 0 and start < len(q1.events):
                published = ingestor.ingest(
                    q1.events[start:start + 30]
                ).notifications
                start += 30
            assert published > 0
            notifications = stream.take(published)
            assert len(notifications) == published
            subscriber.close()
    finally:
        handle.stop()
        service.close()


@pytest.mark.parametrize("mode,kwargs", ENGINE_MODES)
def test_checkpoint_restart_replay_converges_over_the_wire(q1, tmp_path, mode, kwargs):
    """Kill a served service mid-stream; a restarted one restores the
    checkpoint, replays the tail and serves bit-identical views."""
    total = 200
    cut = 96
    service, handle = serve(q1, mode, checkpoint_dir=tmp_path, **kwargs)
    with ServiceClient(*handle.address) as client:
        client.ingest(q1.events[:cut])
        version, path = client.checkpoint()
        assert version == cut and str(tmp_path) in path
        client.ingest(q1.events[cut:cut + 10])  # lost after the "crash"
        client.shutdown()
    handle.stop()
    service.close()

    restarted = ViewService(
        engine_for_mode(q1.program, mode, **kwargs), checkpoint_dir=tmp_path
    )
    assert restarted.restore() == cut
    handle = start_in_thread(restarted)
    try:
        with ServiceClient(*handle.address) as client:
            assert client.ping() == cut
            client.ingest(q1.events[cut:total])  # the client replays the tail
            snapshot = client.query(q1.root)
        assert snapshot.version == total
        assert snapshot.entries == reference_entries(
            q1.program, q1.statics, q1.events, total, q1.root
        )
    finally:
        handle.stop()
        restarted.close()


def test_protocol_errors_are_reported_not_fatal(q1):
    service, handle = serve(q1)
    try:
        with ServiceClient(*handle.address) as client:
            with pytest.raises(ServiceError, match="unknown operation"):
                client._request({"op": "frobnicate"})
            with pytest.raises(ServiceError, match="unknown view"):
                client.query("NoSuchView")
            with pytest.raises(ServiceError, match="checkpoint directory"):
                client.checkpoint()
            # Type-malformed but valid-JSON requests get error responses too,
            # instead of silently killing the connection.
            with pytest.raises(ServiceError, match="ValueError"):
                client._request(
                    {"op": "subscribe", "view": q1.root, "queue_size": "big"}
                )
            with pytest.raises(ServiceError, match="TypeError"):
                client._request({"op": "ingest", "events": 5})
            # The connection survives failed requests.
            assert client.ping() == 0
    finally:
        handle.stop()
        service.close()


def test_stats_round_trip_over_the_wire(q1):
    service, handle = serve(q1, "partitioned", partitions=2)
    try:
        with ServiceClient(*handle.address) as client:
            client.ingest(q1.events[:40])
            statistics = client.statistics()
        assert statistics["version"] == 40
        assert statistics["engine"]["events_processed"] == 40
        assert statistics["engine"]["partitioning"]["spec"]["partitions"] == 2
    finally:
        handle.stop()
        service.close()


# -- the log stores what the client sent ---------------------------------------------


def wal_records(directory):
    """``(header, payload)`` of every record line in a WAL directory."""
    records = []
    for path in sorted(directory.glob("wal-*.log")):
        for line in path.read_bytes().splitlines(keepends=True):
            header, _, payload = line.partition(b"\t")
            records.append((header, payload))
    return records


def test_served_ingest_logs_the_request_line_verbatim(q1, tmp_path):
    service, handle = serve(q1, wal_dir=tmp_path / "wal")
    batches = [q1.events[start:start + 25] for start in range(0, 100, 25)]
    try:
        with ServiceClient(*handle.address) as client:
            for index, batch in enumerate(batches):
                client.ingest(batch, batch_id=f"batch {index}")
            wal = client.statistics()["durability"]["wal"]
    finally:
        handle.stop()
        service.close()
    assert wal["records_appended"] == wal["records_passthrough"] == len(batches)
    assert wal["payload_decodes"] == 0
    sent = [
        dump_line({
            "op": "ingest",
            "events": [event_to_dict(e) for e in batch],
            "batch_id": f"batch {index}",
        })
        for index, batch in enumerate(batches)
    ]
    assert [payload for _, payload in wal_records(tmp_path / "wal")] == sent

    # A restart decodes exactly the records it replays, with the same result
    # an in-process (encoder-built) log of the same batches gives.
    restarted = build_service(q1, wal_dir=tmp_path / "wal", checkpoint_dir=tmp_path / "ckpt")
    report = restarted.recover()
    assert report["wal_batches_replayed"] == report["wal"]["payload_decodes"] == 4
    assert restarted.ingest(batches[2], batch_id="batch 2").deduplicated
    entries = restarted.query(q1.root).entries
    restarted.close()
    assert entries == reference_entries(q1.program, q1.statics, q1.events, 100, q1.root)


def test_malformed_event_is_rejected_by_index_and_nothing_is_logged(q1, tmp_path):
    service, handle = serve(q1, wal_dir=tmp_path / "wal")
    good = [event_to_dict(e) for e in q1.events[:3]]
    cases = [
        ([*good, {"kind": "upsert", "relation": "Lineitem", "values": []}],
         r"events\[3\]: unknown event kind 'upsert'"),
        ([good[0], {"kind": "insert", "values": []}], r"events\[1\]: missing field 'relation'"),
        ([good[0], good[1], "nonsense"], r"events\[2\]: expected an object, got 'nonsense'"),
        ([{"kind": "insert", "relation": "Lineitem", "values": "abc"}],
         r"events\[0\]: malformed relation/values"),
    ]
    try:
        with ServiceClient(*handle.address) as client:
            for events, message in cases:
                with pytest.raises(ServiceError, match=message):
                    client._request({"op": "ingest", "events": events, "batch_id": "bad"})
            assert client.ping() == 0
            assert client.statistics()["durability"]["wal"]["records_appended"] == 0
            assert client.ingest(q1.events[:3], batch_id="bad").count == 3  # id not burnt
    finally:
        handle.stop()
        service.close()
    assert len(wal_records(tmp_path / "wal")) == 1


def test_fraction_tagged_wire_events_apply_and_replay_as_fractions(q1, tmp_path):
    """Rational event values: the server and a restart decode the same tags
    through the same decoder, so live and recovered views agree in type."""
    def rational(event):
        if event.relation != "Lineitem":
            return event
        values = list(event.values)
        values[4] = Fraction(int(values[4]) * 7 + 1, 7)  # quantity + 1/7
        return type(event)(event.relation, values, event.sign)

    events = [rational(event) for event in q1.events[:160]]
    payloads = [
        {**event_to_dict(e), "values": [encode_value(v) for v in e.values]} for e in events
    ]
    service, handle = serve(q1, "compiled", wal_dir=tmp_path / "wal")
    try:
        with ServiceClient(*handle.address) as client:
            client._request({"op": "ingest", "events": payloads[:80], "batch_id": "w"})
            service.ingest(events[80:])  # in-process: the log's encoder tags them
            live = client.query("Q1_sum_qty").entries
    finally:
        handle.stop()
        service.close()
    assert live == reference_entries(q1.program, q1.statics, events, None, "Q1_sum_qty")
    assert any(isinstance(value, Fraction) for value in live.values())

    restarted = build_service(q1, "compiled", wal_dir=tmp_path / "wal",
                              checkpoint_dir=tmp_path / "ckpt")
    restarted.recover()
    recovered = restarted.query("Q1_sum_qty").entries
    restarted.close()
    assert {k: (type(v), v) for k, v in recovered.items()} == {
        k: (type(v), v) for k, v in live.items()
    }


# -- subscriber pump -------------------------------------------------------------------


class RecordingWriter:
    """Stands in for a subscriber's StreamWriter: keeps every write call."""

    transport = None

    def __init__(self):
        self.writes = []

    def write(self, data):
        self.writes.append(data)


def test_pump_sends_all_of_a_subscribers_notifications_in_one_write(q1):
    service = build_service(q1)
    server = ViewServer(service)
    try:
        pumped, polled = service.subscribe(q1.root), service.subscribe(q1.root)
        writer = RecordingWriter()
        server._subscribers.append((pumped, writer))
        published = service.ingest(q1.events[:120]).notifications // 2
        assert published > 1
        asyncio.run(server._pump_subscribers())
        expected = [dump_line({"type": "delta", **n.as_dict()}) for n in polled.poll()]
        assert len(expected) == published
        assert writer.writes == [b"".join(expected)]  # one write, same bytes, same order
        asyncio.run(server._pump_subscribers())
        assert len(writer.writes) == 1  # nothing pending: nothing written
    finally:
        service.close()


# -- shutdown ----------------------------------------------------------------------------


def test_shutdown_with_an_open_subscriber_connection_is_quiet():
    src = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.service", "serve", "--query", "Q1",
         "--engine", "compiled", "--port", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
    )
    try:
        line = process.stdout.readline()
        assert line.startswith("serving"), line + process.stderr.read()
        host, port = line.split(" on ")[1].split(" ")[0].rsplit(":", 1)
        subscriber = ServiceClient(host, int(port), timeout=30)
        subscriber.subscribe("Q1_sum_qty")  # stays connected through the stop
        with ServiceClient(host, int(port), timeout=30) as client:
            client.shutdown()
        assert process.wait(timeout=30) == 0
        assert process.stderr.read() == ""
        subscriber.close()
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
