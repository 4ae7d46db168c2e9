"""Integration: batched & partitioned execution match per-event HO-IVM exactly.

The property behind the scale-out subsystem: for every workload family
(TPC-H, finance order-book, MDDB), replaying the same agenda — including
deletions — through ``dbtoaster-batch`` and ``dbtoaster-par`` produces view
contents identical to the per-event ``dbtoaster`` engine, for every batch
size and partition count.  Bulk-unsafe triggers (self-joins, nested
aggregates) and non-partitionable relations must be handled by the fallback
and broadcast paths without any accuracy loss.
"""

import inspect

import pytest

from repro.compiler.hoivm import compile_query
from repro.exec import BatchedEngine, PartitionedEngine
from repro.runtime.engine import IncrementalEngine
from repro.workloads import workload

#: One representative query per family feature: linear aggregate (Q1), join
#: with deletions (Q3), self-join (BSP), nested aggregate with := triggers
#: (VWAP), equi-joined self-join over positions (MDDB1).
QUERIES = ("Q1", "Q3", "BSP", "VWAP", "MDDB1")
BATCH_SIZES = (1, 7, 100)
PARTITION_COUNTS = (1, 2, 4)
EVENTS = 260


def _stream_with_deletes(spec):
    """A small agenda that includes deletions whenever the family supports them."""
    parameters = inspect.signature(spec.stream_factory).parameters
    kwargs = {"events": EVENTS}
    if "max_live_orders" in parameters:
        # Force early order deletions (TPC-H): a small live working set plus a
        # longer stream guarantees delete events inside the replayed window.
        kwargs.update(events=420, max_live_orders=25)
    return list(spec.stream_factory(**kwargs))


def _views(engine, translated, spec, events):
    for relation, rows in spec.static_tables().items():
        engine.load_static(relation, rows)
    for event in events:
        engine.apply(event)
    try:
        return {root: engine.result_dict(root) for root in translated.roots()}
    finally:
        if hasattr(engine, "close"):
            engine.close()


def _assert_views_match(expected, got, context):
    for root, want in expected.items():
        have = got[root]
        keys = set(want) | set(have)
        for key in keys:
            w, h = want.get(key, 0), have.get(key, 0)
            if isinstance(w, str) or isinstance(h, str):
                assert w == h, f"{context}/{root} at {key}: {h!r} != {w!r}"
            else:
                tolerance = 1e-9 * max(1.0, abs(w), abs(h))
                assert abs(w - h) <= tolerance, (
                    f"{context}/{root} at {key}: {h!r} != {w!r}"
                )


@pytest.fixture(scope="module")
def baselines():
    cache = {}
    for name in QUERIES:
        spec = workload(name)
        translated = spec.query_factory()
        program = compile_query(
            translated.roots(),
            translated.schemas(),
            static_relations=translated.static_relations(),
        )
        events = _stream_with_deletes(spec)
        expected = _views(IncrementalEngine(program), translated, spec, events)
        cache[name] = (spec, translated, program, events, expected)
    return cache


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
@pytest.mark.parametrize("query_name", QUERIES)
def test_batched_execution_matches_per_event(baselines, query_name, batch_size):
    spec, translated, program, events, expected = baselines[query_name]
    got = _views(BatchedEngine(program, batch_size), translated, spec, events)
    _assert_views_match(expected, got, f"{query_name}/batch={batch_size}")


@pytest.mark.parametrize("partitions", PARTITION_COUNTS)
@pytest.mark.parametrize("query_name", QUERIES)
def test_partitioned_execution_matches_per_event(baselines, query_name, partitions):
    spec, translated, program, events, expected = baselines[query_name]
    got = _views(
        PartitionedEngine(program, partitions=partitions), translated, spec, events
    )
    _assert_views_match(expected, got, f"{query_name}/partitions={partitions}")


def _process_cases():
    """Worker processes are costly to start: the process backend runs the
    full batch-size x partition grid on the two TPC-H representatives only."""
    for query_name in QUERIES:
        yield query_name, "sequential"
        if query_name in ("Q1", "Q3"):
            yield query_name, "process"


@pytest.mark.parametrize("partitions", PARTITION_COUNTS)
@pytest.mark.parametrize("batch_size", BATCH_SIZES)
@pytest.mark.parametrize("query_name,backend", list(_process_cases()))
def test_partitioned_batched_execution_matches_per_event(
    baselines, monkeypatch, query_name, backend, batch_size, partitions
):
    """Batching inside partitions composes without changing results.

    Every partition hosts a compiled (batched) engine that picks vector
    dispatch on its own; dropping the small-group cutoff makes the numpy
    kernels run on these short streams, and the same test under
    ``REPRO_NO_NUMPY=1`` (the no-numpy CI leg) covers the statement runners.
    Forked workers inherit the patched constant.
    """
    from repro.exec import batching

    monkeypatch.setattr(batching, "DEFAULT_MIN_VECTOR_ROWS", 1)
    spec, translated, program, events, expected = baselines[query_name]
    got = _views(
        PartitionedEngine(
            program, partitions=partitions, backend=backend, batch_size=batch_size
        ),
        translated,
        spec,
        events,
    )
    _assert_views_match(
        expected, got, f"{query_name}/{backend}/par={partitions}/batch={batch_size}"
    )


def test_tpch_stream_used_here_contains_deletes():
    spec = workload("Q1")
    events = _stream_with_deletes(spec)
    assert any(event.sign < 0 for event in events)
