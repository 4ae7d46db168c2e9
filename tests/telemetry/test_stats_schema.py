"""The ``repro.stats/1`` document at the service and command-line boundaries.

Every engine returns the document natively (the per-mode contract is
``tests/runtime/test_engine_contract.py``); these tests pin that the service,
the server's ``metrics`` op and ``bench stats --json`` hand it out unchanged.
"""

import json

from repro.bench.__main__ import main as bench_main
from repro.service import ServiceClient, ViewService, engine_for_mode, start_in_thread
from repro.telemetry import STATS_SCHEMA


def test_service_statistics_carry_the_engine_document(q1):
    service = ViewService(engine_for_mode(q1.program, "compiled"))
    q1.load_statics(service)
    service.ingest(q1.events[:50])
    statistics = service.statistics()
    assert statistics["version"] == 50
    assert statistics["engine"]["schema"] == STATS_SCHEMA
    assert statistics["engine"]["mode"] == "compiled"
    assert statistics["engine"]["events_processed"] == 50
    service.close()


def test_metrics_op_returns_the_stats_document(q1):
    service = ViewService(engine_for_mode(q1.program, "batched", batch_size=10))
    q1.load_statics(service)
    handle = start_in_thread(service)
    try:
        with ServiceClient(*handle.address) as client:
            client.ingest(q1.events[:50])
            scraped = client.metrics()
            statistics = client.statistics()
        assert scraped["schema"] == STATS_SCHEMA
        assert set(scraped["statistics"]) == set(statistics)
        assert scraped["statistics"]["engine"] == statistics["engine"]
        assert statistics["engine"]["mode"] == "batched"
    finally:
        handle.stop()
        service.close()


def test_bench_stats_json_prints_the_engine_document(capsys):
    argv = ["stats", "Q3", "--strategy", "dbtoaster-par", "--partitions", "2",
            "--events", "60", "--json"]
    assert bench_main(argv) == 0
    document = json.loads(capsys.readouterr().out)
    assert document["schema"] == STATS_SCHEMA
    assert document["mode"] == "partitioned"
    assert document["events_processed"] == 60
    assert len(document["partitioning"]["partitions"]) == 2
