"""Checkpoint/restore with live ordered range indexes (the lazy-rebuild contract).

``restore_state`` loads plain map entries through ``clear()`` + ``set()``;
like the hash secondary indexes, any ordered range index built before the
restore must be dropped with the old contents and rebuilt lazily from the
*restored* data on the next probe — never answer from pre-restore state.
These tests checkpoint VWAP mid-stream (after the probe-backed assign has
run, so a live index exists), restore into fresh engines of every flavor —
interpreted, compiled, batched, and process-backend partitioned — replay the
tail, and require bit-identical views against an uncheckpointed reference.
"""

import pytest

from repro.codegen import CompiledEngine
from repro.compiler.hoivm import compile_query
from repro.exec import BatchedEngine, PartitionedEngine
from repro.runtime.engine import IncrementalEngine
from repro.workloads import workload


@pytest.fixture(scope="module")
def vwap():
    spec = workload("VWAP")
    translated = spec.query_factory()
    program = compile_query(
        translated.roots(),
        translated.schemas(),
        static_relations=translated.static_relations(),
    )
    events = list(spec.stream_factory(events=240))
    reference = IncrementalEngine(program)
    for event in events:
        reference.apply(event)
    expected = {
        root: reference.result_dict(root) for root in translated.roots()
    }
    return program, translated, events, expected


def _assert_views(engine, translated, expected, context):
    for root, want in expected.items():
        have = engine.result_dict(root)
        assert set(want) == set(have), f"{context}/{root}"
        for key, value in want.items():
            other = have[key]
            assert other == value and type(other) is type(value), (
                f"{context}/{root} at {key}: {other!r} != {value!r}"
            )


def _builders(program):
    return {
        "interpreted": lambda: IncrementalEngine(program),
        "compiled": lambda: CompiledEngine(program),
        "batched": lambda: BatchedEngine(program, batch_size=16),
        "partitioned-process": lambda: PartitionedEngine(
            program, partitions=2, backend="process"
        ),
    }


@pytest.mark.parametrize(
    "flavor", ["interpreted", "compiled", "batched", "partitioned-process"]
)
def test_checkpoint_restore_mid_stream_with_live_range_index(vwap, flavor):
    program, translated, events, expected = vwap
    split = len(events) // 2
    build = _builders(program)[flavor]

    first = build()
    try:
        for event in events[:split]:
            first.apply(event)
        first.flush()
        state = first.checkpoint_state()
    finally:
        first.close()

    second = build()
    try:
        second.restore_state(state)
        for event in events[split:]:
            second.apply(event)
        second.flush()
        _assert_views(second, translated, expected, flavor)
    finally:
        second.close()


def test_restore_drops_prerestore_index_state(vwap):
    # Build a live index, checkpoint, keep feeding the SAME engine, then
    # restore the old state into it: the index must answer from the restored
    # contents, not the post-checkpoint ones.
    program, translated, events, _ = vwap
    split = len(events) // 2
    engine = CompiledEngine(program)
    for event in events[:split]:
        engine.apply(event)
    state = engine.checkpoint_state()
    snapshot = {root: engine.result_dict(root) for root in translated.roots()}
    for event in events[split:]:
        engine.apply(event)
    engine.restore_state(state)
    # A fresh oracle replaying the same prefix gives the expected views.
    _assert_views(engine, translated, snapshot, "rewound")
    # The probed map's ordered index was rebuilt lazily: entry counts match
    # the restored table, not the longer stream.
    table = engine.maps.table("M3")
    engine.apply(events[split])  # drive one assign so the index rebuilds
    stats = table.ordered_index_stats()
    if stats:  # index recreated on the first probe after restore
        assert stats["b2_price"]["rows"] == len(table)
