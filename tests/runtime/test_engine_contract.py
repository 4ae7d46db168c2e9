"""The uniform engine contract: every execution mode behaves identically.

One parametrized suite pins the surface the serving layer and the benchmark
harness rely on: ``apply_many``/``flush``/``result_dict``/``statistics``/
``describe``/``checkpoint_state`` work the same on the per-event, batched and
partitioned engines (including batching inside partitions and partitions in
worker processes), and ``statistics()`` is one ``repro.stats/1`` document.
"""

import pytest

from repro.codegen import CompiledEngine
from repro.compiler.hoivm import compile_query
from repro.core.rows import Row
from repro.delta.events import StreamEvent, insert
from repro.errors import ReproError, RuntimeEngineError
from repro.exec import BatchedEngine, PartitionedEngine
from repro.exec.partitioning import TABLE_COUNTERS
from repro.runtime.engine import IncrementalEngine
from repro.runtime.protocol import STATS_SCHEMA, EngineProtocol
from repro.service.core import diff_results
from repro.workloads import workload

ENGINES = {
    "incremental": lambda program: IncrementalEngine(program),
    "compiled": lambda program: CompiledEngine(program),
    "batched": lambda program: BatchedEngine(program, batch_size=7),
    "partitioned": lambda program: PartitionedEngine(program, partitions=2),
    "partitioned-batched": lambda program: PartitionedEngine(
        program, partitions=2, batch_size=5
    ),
    "partitioned-process": lambda program: PartitionedEngine(
        program, partitions=2, backend="process", batch_size=5
    ),
}

#: Every engine's statistics document: these keys, plus the optional sections.
COMMON_KEYS = {"schema", "mode", "events_processed", "memory_bytes", "maps", "relations"}
SECTIONS = {"codegen", "batching", "partitioning"}


@pytest.fixture(scope="module")
def q3():
    spec = workload("Q3")
    translated = spec.query_factory()
    program = compile_query(
        translated.roots(),
        translated.schemas(),
        static_relations=translated.static_relations(),
    )
    return {
        "program": program,
        "root": next(iter(translated.roots())),
        "statics": spec.static_tables(),
        "events": list(spec.stream_factory(events=180, max_live_orders=20)),
    }


def build(name, fixture):
    engine = ENGINES[name](fixture["program"])
    for relation, rows in fixture["statics"].items():
        if relation in fixture["program"].static_relations:
            engine.load_static(relation, rows)
    return engine


@pytest.fixture(scope="module")
def baseline(q3):
    engine = build("incremental", q3)
    engine.apply_many(q3["events"])
    return engine


@pytest.mark.parametrize("name", list(ENGINES))
def test_engines_implement_the_protocol(q3, name):
    engine = build(name, q3)
    try:
        assert isinstance(engine, EngineProtocol)
    finally:
        engine.close()


@pytest.mark.parametrize("name", list(ENGINES))
def test_apply_many_counts_and_result_dict_agree(q3, baseline, name):
    engine = build(name, q3)
    try:
        assert engine.events_processed == 0
        count = engine.apply_many(q3["events"])
        assert count == len(q3["events"])
        engine.flush()
        assert engine.events_processed == count
        assert engine.result_dict(q3["root"]) == baseline.result_dict(q3["root"])
        assert engine.view(q3["root"]) == baseline.view(q3["root"])
        assert engine.scalar_result(q3["root"]) == baseline.scalar_result(q3["root"])
    finally:
        engine.close()


@pytest.mark.parametrize("name", list(ENGINES))
def test_statistics_carry_the_common_keys(q3, name):
    engine = build(name, q3)
    try:
        engine.apply_many(q3["events"][:60])
        statistics = engine.statistics()
        assert statistics["events_processed"] == 60
        assert statistics["memory_bytes"] > 0
        assert statistics["memory_bytes"] == engine.memory_bytes()
    finally:
        engine.close()


@pytest.mark.parametrize("name", list(ENGINES))
def test_statistics_are_one_native_document(q3, name):
    engine = build(name, q3)
    try:
        engine.apply_many(q3["events"][:60])
        statistics = engine.statistics()
        assert statistics["schema"] == STATS_SCHEMA
        assert statistics["mode"] == name.split("-")[0]
        assert COMMON_KEYS <= set(statistics) <= COMMON_KEYS | SECTIONS
        assert statistics["events_processed"] == 60
        if "partitioning" not in statistics:
            return
        partitions = statistics["partitioning"]["partitions"]
        assert len(partitions) == 2
        for section in ("maps", "relations"):
            for table, merged in statistics[section].items():
                for counter in TABLE_COUNTERS:
                    assert merged[counter] == sum(
                        p[section][table][counter] for p in partitions
                    ), (section, table, counter)
        codegen, first = statistics["codegen"], partitions[0]["codegen"]
        assert codegen["fallback_hits"] == sum(p["codegen"]["fallback_hits"] for p in partitions)
        assert codegen["compiled_statements"] == first["compiled_statements"]
        assert codegen["fused_kernels"] == first["fused_kernels"]
        batching = statistics.get("batching")
        if batching is not None:
            assert batching["bulk_events"] + batching["fallback_events"] == sum(
                p["events_processed"] for p in partitions
            )
            assert batching["batch_size"] == 5
    finally:
        engine.close()


@pytest.mark.parametrize("name", list(ENGINES))
def test_describe_includes_the_compiled_program(q3, name):
    engine = build(name, q3)
    try:
        description = engine.describe()
        assert q3["program"].pretty() in description
    finally:
        engine.close()


@pytest.mark.parametrize("name", list(ENGINES))
def test_flush_is_idempotent_and_close_is_safe(q3, name):
    engine = build(name, q3)
    engine.apply_many(q3["events"][:30])
    engine.flush()
    before = engine.result_dict(q3["root"])
    engine.flush()
    assert engine.result_dict(q3["root"]) == before
    engine.close()


def _local_engines(engine):
    """The engines whose tables live in this process."""
    partitions = getattr(engine, "_partitions", None)
    if partitions is None:
        return [engine]
    return [p for p in partitions if hasattr(p, "maps")]


@pytest.mark.parametrize("name", list(ENGINES))
def test_keys_are_tuples_and_reads_are_copies(q3, baseline, name):
    """Tables key by tuples in column order; result_dict hands out a fresh
    dict; view() stays a Row-keyed GMR."""
    engine = build(name, q3)
    # Q3's root is still empty on this short stream: read its fullest map
    # (views accept map names; M3 sum-merges across partitions).
    root = "M3"
    try:
        engine.apply_many(q3["events"])
        engine.flush()
        for local in _local_engines(engine):
            for decl in q3["program"].maps.values():
                table = local.maps.table(decl.name)
                assert table.columns == decl.keys
                for key, _ in table.items():
                    assert type(key) is tuple and len(key) == len(decl.keys)
                assert all(type(key) is tuple for key in table.primary)
        before = engine.result_dict(root)
        assert before and all(type(key) is tuple for key in before)
        expected = dict(before)
        # Mutating the returned dict touches neither the engine nor the next read.
        first = next(iter(before))
        before[first] = "scribbled"
        before[("not", "a", "key")] = 1
        after = engine.result_dict(root)
        assert after == expected and after is not engine.result_dict(root)
        assert diff_results(expected, after) == []
        if not hasattr(engine, "_partitions"):  # merges reorder keys
            assert list(after) == list(baseline.result_dict(root))
        view = engine.view(root)
        assert view == baseline.view(root)
        columns = q3["program"].maps[root].keys
        assert all(type(row) is Row for row in view.rows())
        assert {tuple(row[c] for c in columns): v for row, v in view.items()} == expected
    finally:
        engine.close()


@pytest.mark.parametrize("name", list(ENGINES))
def test_checkpoint_state_round_trips(q3, name):
    engine = build(name, q3)
    try:
        engine.apply_many(q3["events"][:90])
        state = engine.checkpoint_state()
        fresh = ENGINES[name](q3["program"])
        try:
            fresh.restore_state(state)
            assert fresh.events_processed == engine.events_processed
            assert fresh.result_dict(q3["root"]) == engine.result_dict(q3["root"])
            # The restored engine keeps processing correctly.
            tail = q3["events"][90:120]
            fresh.apply_many(tail)
            engine.apply_many(tail)
            assert fresh.result_dict(q3["root"]) == engine.result_dict(q3["root"])
        finally:
            fresh.close()
    finally:
        engine.close()


@pytest.mark.parametrize("name", list(ENGINES))
def test_non_stream_relations_are_rejected(q3, name):
    engine = build(name, q3)
    try:
        with pytest.raises(ReproError):
            engine.apply(insert("NoSuchRelation", 1, 2, 3))
    finally:
        engine.close()


@pytest.mark.parametrize("name", list(ENGINES))
def test_events_processed_counts_accepted_events_before_flush(q3, name):
    engine = build(name, q3)
    try:
        engine.apply_many(q3["events"][:30])  # not a multiple of any batch size
        assert engine.events_processed == 30
        for event in q3["events"][30:33]:
            engine.apply(event)
        assert engine.events_processed == 33
        engine.flush()
        assert engine.events_processed == 33
    finally:
        engine.close()


def _untimed(document):
    """A statistics document without its wall-clock fields."""
    if isinstance(document, dict):
        return {k: _untimed(v) for k, v in document.items() if not k.endswith("_seconds")}
    if isinstance(document, list):
        return [_untimed(item) for item in document]
    return document


@pytest.mark.parametrize("bad_at", [0, 10, 20])
@pytest.mark.parametrize("name", list(ENGINES))
def test_apply_many_is_all_or_nothing(q3, name, bad_at):
    """A slice naming a non-stream relation is rejected before any of it is
    applied, buffered or routed: the engine matches a twin that never saw it."""
    engine, twin = build(name, q3), build(name, q3)
    try:
        prefix = q3["events"][:40]
        engine.apply_many(prefix)
        twin.apply_many(prefix)
        slice_ = list(q3["events"][40:61])
        slice_[bad_at] = insert("Nation", 1, "FRANCE", 1)  # static, not a stream
        with pytest.raises(ReproError):
            engine.apply_many(slice_)
        assert engine.events_processed == twin.events_processed == 40
        assert engine.result_dict(q3["root"]) == twin.result_dict(q3["root"])
        assert _untimed(engine.statistics()) == _untimed(twin.statistics())
    finally:
        engine.close()
        twin.close()


def _resized(event, delta):
    """``event`` carrying one value fewer (delta -1) or one more (delta +1)."""
    values = event.values[:-1] if delta < 0 else event.values + (0,)
    return StreamEvent(event.relation, values, event.sign)


@pytest.mark.parametrize("delta", [-1, 1], ids=["short", "long"])
@pytest.mark.parametrize("bad_at", [0, 10, 20])
@pytest.mark.parametrize("name", list(ENGINES))
def test_wrong_arity_event_rejects_the_whole_slice(q3, name, bad_at, delta):
    """An event one value short or long is rejected before any of its slice is
    applied, buffered or routed: the engine matches a twin that never saw it."""
    engine, twin = build(name, q3), build(name, q3)
    try:
        prefix = q3["events"][:40]
        engine.apply_many(prefix)
        twin.apply_many(prefix)
        slice_ = list(q3["events"][40:61])
        slice_[bad_at] = _resized(slice_[bad_at], delta)
        with pytest.raises(RuntimeEngineError, match="arity"):
            engine.apply_many(slice_)
        assert engine.events_processed == twin.events_processed == 40
        assert engine.result_dict(q3["root"]) == twin.result_dict(q3["root"])
        assert _untimed(engine.statistics()) == _untimed(twin.statistics())
    finally:
        engine.close()
        twin.close()


@pytest.mark.parametrize("delta", [-1, 1], ids=["short", "long"])
@pytest.mark.parametrize("query", ["Q6", "VWAP"])
def test_wrong_arity_event_never_reaches_a_bulk_run(query, delta):
    """A 400-event slice into a 1000-event batch would fold into bulk runs
    (vector kernels on Q6, := once per run on VWAP); the malformed event in
    it is rejected up front, one at a time through ``apply`` too."""
    spec = workload(query)
    translated = spec.query_factory()
    program = compile_query(
        translated.roots(), translated.schemas(),
        static_relations=translated.static_relations(),
    )
    agenda, _ = spec.prepare(400, 7)
    events = list(agenda)
    root = next(iter(translated.roots()))
    engine = BatchedEngine(program, 1000)
    empty = engine.result_dict(root)
    for bad_at in (0, 200, 399):
        slice_ = list(events)
        slice_[bad_at] = _resized(slice_[bad_at], delta)
        with pytest.raises(RuntimeEngineError, match="arity"):
            engine.apply_many(slice_)
        with pytest.raises(RuntimeEngineError, match="arity"):
            engine.apply(slice_[bad_at])
        engine.flush()
        assert engine.events_processed == 0
        assert engine.result_dict(root) == empty
    assert engine.apply_many(events) == len(events)


@pytest.mark.parametrize("name", list(ENGINES))
def test_map_sizes_report_every_declared_map(q3, name):
    engine = build(name, q3)
    try:
        engine.apply_many(q3["events"][:40])
        sizes = engine.map_sizes()
        assert set(sizes) == set(q3["program"].maps)
    finally:
        engine.close()
