"""Tests for the TPC-H-like generator, stream synthesizer and query library."""

from collections import defaultdict

import pytest

from repro.streams.stats import summarize_stream
from repro.workloads.tpch import (
    TPCH_QUERIES,
    TPCHGenerator,
    synthesize_tpch_stream,
    tpch_catalog,
    tpch_query,
    tpch_stream,
)
from repro.workloads.tpch.schema import TPCH_SCHEMA, TPCH_STATIC
from repro.workloads.tpch.stream import static_tables


def test_catalog_matches_schema_definition():
    catalog = tpch_catalog()
    assert set(catalog.schemas()) == set(TPCH_SCHEMA)
    assert set(catalog.static_relations()) == set(TPCH_STATIC)


def test_generator_row_counts_scale():
    small = TPCHGenerator(scale=0.5, seed=1).generate()
    large = TPCHGenerator(scale=1.0, seed=1).generate()
    assert len(large.orders) > len(small.orders)
    assert len(large.customers) > len(small.customers)
    assert len(small.nations) == 25 and len(small.regions) == 5


def test_generator_respects_foreign_keys():
    data = TPCHGenerator(scale=0.3, seed=2).generate()
    custkeys = {row[0] for row in data.customers}
    orderkeys = {row[0] for row in data.orders}
    partsupp_pairs = {(row[0], row[1]) for row in data.partsupps}
    assert all(order[1] in custkeys for order in data.orders)
    assert all(item[0] in orderkeys for item in data.lineitems)
    assert all((item[1], item[2]) in partsupp_pairs for item in data.lineitems)


def test_generator_is_deterministic():
    a = TPCHGenerator(scale=0.2, seed=9).generate()
    b = TPCHGenerator(scale=0.2, seed=9).generate()
    assert a.orders == b.orders and a.lineitems == b.lineitems


def test_stream_preserves_insert_before_reference():
    data = TPCHGenerator(scale=0.2, seed=3).generate()
    agenda = synthesize_tpch_stream(data, seed=4, max_live_orders=20)
    seen = defaultdict(set)
    live_orders = set()
    for event in agenda:
        key = event.values[0]
        if event.relation == "Orders":
            if event.sign > 0:
                assert event.values[1] in seen["Customer"]
                live_orders.add(key)
            else:
                live_orders.discard(key)
        elif event.relation == "Lineitem" and event.sign > 0:
            assert key in live_orders or key in seen["Orders"]
        if event.sign > 0:
            seen[event.relation].add(key)


def test_stream_bounds_live_orders():
    data = TPCHGenerator(scale=0.5, seed=3).generate()
    agenda = synthesize_tpch_stream(data, seed=4, max_live_orders=30)
    live = 0
    peak = 0
    for event in agenda:
        if event.relation == "Orders":
            live += 1 if event.sign > 0 else -1
            peak = max(peak, live)
    assert peak <= 31
    stats = summarize_stream(agenda)
    assert stats.deletes > 0


def test_stream_respects_max_events():
    agenda = tpch_stream(events=500, scale=0.5, seed=5)
    assert len(agenda) <= 500


def test_static_tables_exports_nation_and_region():
    tables = static_tables(scale=0.2, seed=5)
    assert set(tables) == {"Nation", "Region"}
    assert len(tables["Nation"]) == 25


def test_every_tpch_query_parses_and_translates():
    for name in TPCH_QUERIES:
        translated = tpch_query(name)
        assert translated.roots(), name


def test_q1_exposes_all_ten_output_columns():
    translated = tpch_query("Q1")
    names = [c.name for c in translated.outputs]
    assert "sum_qty" in names and "avg_price" in names and "count_order" in names
    assert len(names) == 10  # 2 group columns + 8 value columns


def test_registry_contains_the_documented_queries():
    from repro.workloads import all_workloads

    tpch_names = {n for n, s in all_workloads().items() if s.family == "tpch"}
    assert tpch_names == set(TPCH_QUERIES)


def test_prepare_passes_scale_only_to_the_family_that_takes_it():
    from repro.workloads import workload

    spec = workload("Q3")
    small, static = spec.prepare(5000, 7, scale=0.2)
    assert list(small) == list(tpch_stream(events=5000, scale=0.2, seed=7))
    assert static == static_tables(scale=0.2, seed=7)
    # A larger dataset yields a longer stream under the same event cap.
    assert len(spec.prepare(5000, 7, scale=0.5)[0]) > len(small)
    # Finance and MDDB generators have no dataset scale: it is not passed on.
    for name in ("VWAP", "MDDB1"):
        other = workload(name)
        scaled, scaled_static = other.prepare(40, 7, scale=0.2)
        plain, plain_static = other.prepare(40, 7)
        assert list(scaled) == list(plain) and len(plain) == 40
        assert scaled_static == plain_static == other.static_tables(seed=7)
