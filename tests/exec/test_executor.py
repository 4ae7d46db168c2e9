"""Tests for partition placement (in-process engines and worker processes)."""

import pytest

from repro.compiler.hoivm import compile_query
from repro.errors import ExecutionError, RuntimeEngineError
from repro.exec import PartitionedEngine
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


def test_unknown_backend_raises():
    _, program = _program("Q6")
    with pytest.raises(ExecutionError):
        PartitionedEngine(program, partitions=2, backend="threads")


def test_sequential_backend_serves_all_commands():
    spec = workload("Q6")
    _, program = _program("Q6")
    engine = PartitionedEngine(program, partitions=2, batch_size=10)
    first, second = engine._partitions
    events = list(spec.stream_factory(events=60))
    first.apply_many(events[:30])
    second.apply_many(events[30:])
    for partition in engine._partitions:
        assert partition.flush() is None  # in-process: nothing to collect
    sizes = first.map_sizes()
    assert isinstance(sizes, dict)
    assert second.memory_bytes() > 0
    stats = first.statistics()
    assert stats["events_processed"] == 30
    engine.close()


def test_multiprocess_backend_matches_sequential_results():
    spec = workload("Q1")
    translated, program = _program("Q1")
    events = list(spec.stream_factory(events=300, max_live_orders=60))
    baseline = _replay(IncrementalEngine(program), spec, events)
    engine = PartitionedEngine(
        program, partitions=2, backend="process", batch_size=20
    )
    try:
        _replay(engine, spec, events)
        for root in translated.roots():
            assert engine.result_dict(root) == pytest.approx(baseline.result_dict(root))
        stats = engine.statistics()
        assert len(stats["partitioning"]["partitions"]) == 2
    finally:
        engine.close()


def test_multiprocess_backend_close_is_idempotent():
    _, program = _program("Q6")
    engine = PartitionedEngine(program, partitions=2, backend="process")
    engine.close()
    engine.close()


def test_worker_failure_surfaces_at_the_next_barrier():
    """A fire-and-forget ``apply_many`` that fails in a worker raises at flush."""
    from repro.delta.events import insert

    _, program = _program("Q3")
    engine = PartitionedEngine(program, partitions=2, backend="process")
    try:
        engine.apply(insert("Customer", 1))  # replicated relation, wrong arity
        with pytest.raises(RuntimeEngineError, match="arity"):  # the worker's check
            engine.flush()
        engine.flush()  # reported once; the workers keep serving
    finally:
        engine.close()
