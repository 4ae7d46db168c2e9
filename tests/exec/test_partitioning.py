"""Tests for partition-spec inference, routing and merged reads."""

import pytest

from repro.compiler.hoivm import compile_query
from repro.delta.events import insert
from repro.errors import ExecutionError, RuntimeEngineError
from repro.exec import PartitionedEngine, infer_partition_spec, stable_hash
from repro.exec.partitioning import MERGE_REPLICATED, MERGE_SUM
from repro.runtime.engine import IncrementalEngine
from repro.workloads import workload


def _program(query_name):
    spec = workload(query_name)
    translated = spec.query_factory()
    return translated, compile_query(
        translated.roots(),
        translated.schemas(),
        static_relations=translated.static_relations(),
    )


def _replay(engine, spec, events):
    for relation, rows in spec.static_tables().items():
        engine.load_static(relation, rows)
    for event in events:
        engine.apply(event)
    return engine


# ---------------------------------------------------------------------------
# Spec inference
# ---------------------------------------------------------------------------


def test_q3_co_partitions_orders_and_lineitem_on_orderkey():
    _, program = _program("Q3")
    spec = infer_partition_spec(program, 4)
    assert spec.keys["Orders"] == ("orderkey",)
    assert spec.keys["Lineitem"] == ("orderkey",)
    # Customer joins Orders on custkey, incompatible with orderkey
    # partitioning: it must be replicated (the broadcast path).
    assert "Customer" in spec.replicated
    assert spec.merge[program.roots["Q3_revenue"]] == MERGE_SUM


def test_order_book_self_join_partitions_on_broker_id():
    _, program = _program("BSP")
    spec = infer_partition_spec(program, 4)
    assert spec.keys["Bids"] == ("broker_id",)


def test_nested_aggregate_query_degenerates_to_replication():
    _, program = _program("VWAP")
    spec = infer_partition_spec(program, 4)
    # VWAP is nonlinear in Bids (nested aggregates): Bids must be replicated
    # and the root read from a single partition.
    assert "Bids" in spec.replicated
    root = program.roots["VWAP_vwap"]
    assert spec.merge[root] == MERGE_REPLICATED


def test_mddb_self_join_partitions_on_shared_trajectory_key():
    _, program = _program("MDDB1")
    spec = infer_partition_spec(program, 4)
    assert "AtomPositions" in spec.keys
    # Both self-join atoms must agree on the key, whichever unified column
    # (trajectory or timestep) inference picked.
    assert spec.keys["AtomPositions"][0] in ("trj_id", "t")


def test_explicit_keys_are_validated():
    _, program = _program("Q1")
    with pytest.raises(ExecutionError):
        infer_partition_spec(program, 0)


def test_stable_hash_is_deterministic_across_value_kinds():
    assert stable_hash((42,)) == stable_hash((42,))
    assert stable_hash(("abc", 1.5)) == stable_hash(("abc", 1.5))
    assert stable_hash((1,)) != stable_hash((2,))


def test_stable_hash_routes_numerically_equal_keys_together():
    # 7 == 7.0 under Python equality, so a join between an int-keyed tuple and
    # a float-keyed tuple must land both on the same partition.
    assert stable_hash((7,)) == stable_hash((7.0,))
    assert stable_hash((True,)) == stable_hash((1,))


# ---------------------------------------------------------------------------
# Routing and merged reads
# ---------------------------------------------------------------------------


def test_routing_is_deterministic_per_key():
    spec = workload("Q3")
    _, program = _program("Q3")
    engine = PartitionedEngine(program, partitions=4)
    event = insert("Lineitem", 7, 1, 1, 1, 5, 10.0, 0.0, 0.0, "N", "O",
                   "1995-01-01", "1995-01-01", "1995-01-01", "MAIL", "NONE")
    index = engine.route(event)
    assert index is not None
    assert all(engine.route(event) == index for _ in range(5))
    # Orders with the same orderkey must land on the same partition.
    order = insert("Orders", 7, 1, "O", 100.0, "1995-01-01", "1-URGENT", "c", 0, "x")
    assert engine.route(order) == index


def test_replicated_relations_broadcast_to_every_partition():
    spec = workload("Q3")
    _, program = _program("Q3")
    engine = PartitionedEngine(program, partitions=3)
    customer = insert("Customer", 1, "n", 1, 0.0, "BUILDING", "p")
    assert engine.route(customer) is None
    engine.apply(customer)
    assert engine.events_broadcast == 1


def test_partitioned_views_match_per_event_execution():
    spec = workload("Q3")
    translated, program = _program("Q3")
    events = list(spec.stream_factory(events=500, max_live_orders=40))
    assert any(event.sign < 0 for event in events)
    baseline = _replay(IncrementalEngine(program), spec, events)
    partitioned = _replay(PartitionedEngine(program, partitions=3), spec, events)
    for root in translated.roots():
        assert partitioned.result_dict(root) == pytest.approx(baseline.result_dict(root))
    assert sum(partitioned.events_routed) + partitioned.events_broadcast == len(events)


def test_partition_statistics_expose_per_partition_detail():
    spec = workload("Q1")
    _, program = _program("Q1")
    engine = _replay(
        PartitionedEngine(program, partitions=2), spec, list(spec.stream_factory(events=120))
    )
    partitioning = engine.statistics()["partitioning"]
    assert partitioning["spec"]["partitions"] == 2
    assert len(partitioning["partitions"]) == 2
    assert all("maps" in partition for partition in partitioning["partitions"])
    assert sum(partitioning["events_routed"]) + partitioning["events_broadcast"] >= 120


def test_single_partition_is_identical_to_plain_engine():
    spec = workload("Q6")
    translated, program = _program("Q6")
    events = list(spec.stream_factory(events=200))
    baseline = _replay(IncrementalEngine(program), spec, events)
    single = _replay(PartitionedEngine(program, partitions=1), spec, events)
    for root in translated.roots():
        assert single.result_dict(root) == baseline.result_dict(root)


@pytest.mark.parametrize("position", [0, 5, 10], ids=["first", "middle", "last"])
def test_apply_many_is_all_or_nothing(position):
    spec = workload("Q3")
    translated, program = _program("Q3")
    root = next(iter(translated.roots()))
    events = list(spec.stream_factory(events=40, max_live_orders=10))
    engine = _replay(PartitionedEngine(program, partitions=2), spec, events[:20])
    engine.flush()
    views = [partition.result_dict(root) for partition in engine._partitions]
    processed, routed = engine.events_processed, list(engine.events_routed)
    batch = events[20:30]
    batch.insert(position, insert("NoSuchRelation", 1, 2))
    with pytest.raises(RuntimeEngineError):
        engine.apply_many(batch)
    engine.flush()
    assert engine.events_processed == processed
    assert engine.events_routed == routed
    assert [partition.result_dict(root) for partition in engine._partitions] == views
