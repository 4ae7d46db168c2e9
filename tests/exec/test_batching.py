"""Tests for the run partition, trigger safety analysis and BatchedEngine."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.codegen.engine import CompiledEngine
from repro.codegen.vector import numpy_available
from repro.compiler.hoivm import compile_query
from repro.delta.events import delete, insert
from repro.errors import ExecutionError, RuntimeEngineError
from repro.exec import BatchPlan, BatchedEngine
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
# Safety analysis
# ---------------------------------------------------------------------------


def test_linear_tpch_triggers_are_bulk_safe():
    _, program = _program("Q1")
    plan = BatchPlan(program)
    assert plan.analysis("Lineitem", 1).safe
    assert plan.analysis("Lineitem", -1).safe
    assert plan.analysis("Lineitem", 1).increments


def test_join_trigger_reading_foreign_maps_is_bulk_safe():
    _, program = _program("Q3")
    plan = BatchPlan(program)
    # The Lineitem trigger reads Orders/Customer-derived maps but writes only
    # Lineitem-derived ones: bulk-safe despite the map lookups.
    analysis = plan.analysis("Lineitem", 1)
    assert analysis.safe
    assert analysis.reads_maps and not analysis.reads_maps & analysis.writes


def test_self_join_trigger_falls_back_to_per_event():
    _, program = _program("BSP")
    plan = BatchPlan(program)
    # Bids joins Bids: the trigger reads maps it writes, so bulk application
    # would read mid-batch state.  It must replay per event.
    assert not plan.analysis("Bids", 1).safe


def test_nested_aggregate_assigns_stay_bulk_safe():
    _, program = _program("VWAP")
    plan = BatchPlan(program)
    # VWAP's := re-evaluation statements depend only on post-batch map state
    # (not on the trigger variables), so running them once per batch is exact.
    analysis = plan.analysis("Bids", 1)
    assert analysis.safe
    assert analysis.assigns


# ---------------------------------------------------------------------------
# Folding
# ---------------------------------------------------------------------------


def test_fold_merges_runs_across_commuting_triggers():
    _, program = _program("Q1")
    plan = BatchPlan(program)
    spec = workload("Q1")
    agenda = spec.stream_factory(events=200)
    groups = plan.fold(list(agenda))
    # Q1 only touches Lineitem; every other TPC-H trigger is a no-op and
    # commutes, so the whole insert prefix folds into very few groups.
    assert len(groups) < 20
    assert sum(len(group.events) for group in groups) == len(agenda)


def test_duplicate_tuples_stay_separate_events_in_arrival_order():
    _, program = _program("Q1")
    plan = BatchPlan(program)
    row = ("k", 1, 1, 1, 5, 10.0, 0.0, 0.0, "N", "O",
           "1995-01-01", "1995-01-01", "1995-01-01", "MAIL", "NONE")
    other = ("j",) + row[1:]
    events = [insert("Lineitem", *row), insert("Lineitem", *other), insert("Lineitem", *row)]
    groups = plan.fold(events)
    assert len(groups) == 1
    # A run is the events themselves: nothing is merged, nothing reordered.
    assert all(got is sent for got, sent in zip(groups[0].events, events))
    assert len(groups[0].events) == 3


def test_fold_keeps_insert_and_delete_groups_ordered():
    _, program = _program("Q1")
    plan = BatchPlan(program)
    row = ("k", 1, 1, 1, 5, 10.0, 0.0, 0.0, "N", "O",
           "1995-01-01", "1995-01-01", "1995-01-01", "MAIL", "NONE")
    events = [insert("Lineitem", *row), delete("Lineitem", *row), insert("Lineitem", *row)]
    groups = plan.fold(events)
    signs = [group.analysis.sign for group in groups]
    assert signs == [1, -1, 1] or signs == [1, -1]  # merge of outer inserts is
    # only legal when insert/delete triggers commute, which they do for Q1.
    assert sum(group.analysis.sign * len(group.events) for group in groups) == 1


def test_duplicate_inserts_and_deletes_match_the_per_event_engine():
    translated, program = _program("Q1")
    spec = workload("Q1")
    row = ("k", 1, 1, 1, 5, 10.0, 0.0, 0.0, "N", "O",
           "1995-01-01", "1995-01-01", "1995-01-01", "MAIL", "NONE")
    events = [insert("Lineitem", *row)] * 3 + [delete("Lineitem", *row)] * 2
    baseline = _replay(CompiledEngine(program), spec, events)
    for batch_size in (1, 2, 5, 100):
        batched = _replay(BatchedEngine(program, batch_size), spec, events)
        for root in translated.roots():
            assert batched.result_dict(root) == baseline.result_dict(root)
    assert list(baseline.result_dict("Q1_sum_qty").values()) == [5]


# ---------------------------------------------------------------------------
# BatchedEngine behaviour
# ---------------------------------------------------------------------------


def test_constructor_surfaces_have_no_execution_path_knobs():
    """A batched engine is a compiled engine and vector dispatch is automatic:
    nothing on these signatures selects an execution path."""
    import inspect

    from repro.exec import PartitionedEngine
    from repro.exec.executor import _WorkerEngine

    def parameters(fn):
        return [name for name in inspect.signature(fn).parameters if name != "self"]

    assert parameters(BatchedEngine.__init__) == ["program", "batch_size", "telemetry"]
    assert parameters(PartitionedEngine.__init__) == [
        "program", "partitions", "backend", "batch_size", "telemetry",
    ]
    assert parameters(_WorkerEngine.__init__) == ["context", "program_bytes", "batch_size"]
    _, program = _program("Q1")
    engine = BatchedEngine(program, 10)
    assert isinstance(engine, CompiledEngine)
    assert not hasattr(engine, "engine")
    assert not hasattr(BatchedEngine, "BACKENDS")
    # Batching is a dispatch policy: everything else is inherited, not forwarded.
    inherited = {"load_static", "provenance", "enable_provenance", "explain_row",
                 "scalar_result", "apply_run"}
    assert not inherited & set(vars(BatchedEngine))
    assert not hasattr(CompiledEngine, "apply_run")
    assert not hasattr(IncrementalEngine, "count_bulk_events")
    assert not hasattr(IncrementalEngine, "executor")


def test_batched_engine_rejects_non_stream_relations():
    _, program = _program("Q1")
    engine = BatchedEngine(program, 10)
    with pytest.raises(RuntimeEngineError):
        engine.apply(insert("Nation", 1, "FRANCE", 1))


def test_batched_engine_rejects_invalid_batch_size():
    _, program = _program("Q1")
    with pytest.raises(ExecutionError):
        BatchedEngine(program, 0)


def test_views_flush_pending_events_automatically():
    spec = workload("Q1")
    _, program = _program("Q1")
    engine = BatchedEngine(program, batch_size=10_000)  # never fills
    events = list(spec.stream_factory(events=50))
    for event in events:
        engine.apply(event)
    assert engine.events_processed == 50 and len(engine._buffer) == 50
    view = engine.view("Q1_sum_qty")  # triggers the flush
    assert view.support_size > 0
    assert engine.events_processed == 50 and not engine._buffer


def test_batched_matches_per_event_with_deletes():
    spec = workload("Q1")
    translated, program = _program("Q1")
    # max_live_orders=40 forces interleaved deletions early in the stream.
    events = list(spec.stream_factory(events=600, max_live_orders=40))
    assert any(event.sign < 0 for event in events)
    baseline = _replay(IncrementalEngine(program), spec, events)
    batched = _replay(BatchedEngine(program, 37), spec, events)
    for root in translated.roots():
        assert batched.result_dict(root) == pytest.approx(baseline.result_dict(root))


def test_statistics_include_batching_counters():
    spec = workload("Q1")
    _, program = _program("Q1")
    engine = _replay(BatchedEngine(program, 25), spec, list(spec.stream_factory(events=100)))
    stats = engine.statistics()
    assert stats["batching"]["batch_size"] == 25
    assert stats["batching"]["bulk_events"] + stats["batching"]["fallback_events"] == 100
    assert "maps" in stats and stats["events_processed"] == 100


@pytest.mark.parametrize("name", ["Q1", "Q3", "VWAP"])
def test_interpreted_triggers_never_take_the_bulk_path(name, monkeypatch):
    """Every other trigger declines fusion: its runs replay event by event
    through the interpreter, the fused ones keep their run policy, and the
    views match an engine where every trigger fused, bit for bit."""
    from repro.codegen import trigger as trigger_module

    spec = workload(name)
    translated, program = _program(name)
    agenda, static = spec.prepare(1200, 7)
    events = list(agenda)
    fused = BatchedEngine(program, 400)
    original, toggle = trigger_module.try_fuse_trigger, {"count": 0}

    def every_other(trigger, program, **steps):
        toggle["count"] += 1
        return None if toggle["count"] % 2 == 0 else original(trigger, program, **steps)

    monkeypatch.setattr(trigger_module, "try_fuse_trigger", every_other)
    mixed = BatchedEngine(program, 400)
    interpreted = {
        analysis for analysis in mixed.plan._analyses.values()
        if (analysis.increments or analysis.assigns)
        and mixed.codegen.trigger_kernel_for(analysis.sign, analysis.relation) is None
    }
    assert interpreted and not interpreted & set(mixed._bulk)
    for engine in (fused, mixed):
        for relation, rows in (static or {}).items():
            if relation in program.static_relations:
                engine.load_static(relation, rows)
        engine.apply_many(events)
        engine.flush()
    for root in translated.roots():
        want, got = fused.result_dict(root), mixed.result_dict(root)
        assert got == want
        assert all(type(got[key]) is type(value) for key, value in want.items())
    # Each event of an interpreted trigger ran every statement of it, once.
    assert mixed.codegen.fallback_hits == sum(
        len(analysis.increments) + len(analysis.assigns)
        for analysis in (mixed.plan.analysis(e.relation, e.sign) for e in events)
        if analysis in interpreted
    )


# ---------------------------------------------------------------------------
# apply_many is all-or-nothing
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("bad_at", [0, 30, 59])
@pytest.mark.parametrize("batch_size", [7, 1000])
def test_apply_many_rejects_the_whole_slice_or_nothing(bad_at, batch_size):
    spec = workload("Q1")
    _, program = _program("Q1")
    events = list(spec.stream_factory(events=70))
    engine = BatchedEngine(program, batch_size)
    engine.apply_many(events[:10])  # leaves 3 (or 10) buffered: the slice crosses a boundary
    assert engine._buffer
    before = (list(engine._buffer), engine.events_processed, _counters(engine))
    slice_ = events[10:70]
    slice_[bad_at] = insert("Nation", 1, "FRANCE", 1)  # static, not a stream
    with pytest.raises(RuntimeEngineError):
        engine.apply_many(slice_)
    assert (list(engine._buffer), engine.events_processed, _counters(engine)) == before
    with pytest.raises(RuntimeEngineError):
        engine.stage(slice_)
    # The engine is still usable and exact afterwards.
    slice_[bad_at] = events[10 + bad_at]
    assert engine.apply_many(slice_) == 60
    reference = CompiledEngine(program)
    reference.apply_many(events)
    assert engine.result_dict("Q1_sum_qty") == reference.result_dict("Q1_sum_qty")


def _counters(engine):
    return (
        engine.batches_flushed, engine.runs_bulk, engine.runs_replayed,
        dict(engine._bulk_events), engine.fallback_events, engine.vector_events,
        dict(engine.vector_fallbacks), engine._applied,
    )


# ---------------------------------------------------------------------------
# The run partition is a sound reordering
# ---------------------------------------------------------------------------

_PARTITION_PLANS = {}


def _partition_plan(name):
    if name not in _PARTITION_PLANS:
        _PARTITION_PLANS[name] = BatchPlan(_program(name)[1])
    return _PARTITION_PLANS[name]


@settings(max_examples=60, deadline=None)
@given(data=st.data(), name=st.sampled_from(["Q3", "VWAP", "BSV", "Q1"]))
def test_partition_is_an_order_respecting_permutation(data, name):
    plan = _partition_plan(name)
    keys = sorted(plan._analyses)
    picks = data.draw(st.lists(st.sampled_from(keys), max_size=40))
    # fold never looks at the values: the arrival index stands in for them.
    events = [
        (insert if sign > 0 else delete)(relation, index)
        for index, (relation, sign) in enumerate(picks)
    ]
    groups = plan.fold(events)
    order = [event for group in groups for event in group.events]
    assert sorted(e.values for e in order) == [(i,) for i in range(len(events))]
    for group in groups:
        assert group.events, "no empty runs"
        assert {(e.relation, e.sign) for e in group.events} == {
            (group.analysis.relation, group.analysis.sign)
        }
        arrival = [e.values[0] for e in group.events]
        assert arrival == sorted(arrival)
    position = {event.values[0]: at for at, event in enumerate(order)}
    for later, (relation, sign) in enumerate(picks):
        mine = plan.analysis(relation, sign)
        for earlier in range(later):
            theirs = plan.analysis(*picks[earlier])
            if theirs is mine or not mine.commutes_with(theirs):
                assert position[earlier] < position[later], (picks, earlier, later)


def test_partition_merges_past_any_number_of_commuting_runs():
    """No look-back window: a run stays open while everything since commutes."""
    plan = _partition_plan("Q1")
    others = [r for r in _program("Q1")[1].stream_relations if r != "Lineitem"]
    events = []
    for index in range(40):
        events.append(insert("Lineitem", index))
        events.append(insert(others[index % len(others)], index))
        events.append(delete(others[(index + 1) % len(others)], index))
    groups = plan.fold(events)
    lineitem = [events for analysis, events in groups if analysis.relation == "Lineitem"]
    assert len(lineitem) == 1 and len(lineitem[0]) == 40


# ---------------------------------------------------------------------------
# No cliff, by count: one dispatch per run, nothing per event on top
# ---------------------------------------------------------------------------


class _Calls:
    """Counts calls of the callables it wraps, per label."""

    def __init__(self):
        self.counts = {}

    def wrap(self, label, fn):
        def counted(*args):
            self.counts[label] = self.counts.get(label, 0) + 1
            return fn(*args)
        return counted

    def snapshot(self):
        return dict(self.counts)

    def since(self, before, label):
        return self.counts.get(label, 0) - before.get(label, 0)


@pytest.mark.parametrize("name", ["Q1", "Q6", "Q3", "VWAP", "AXF", "BSP"])
def test_runs_dispatch_once_and_never_per_event_on_top(name):
    spec = workload(name)
    _, program = _program(name)
    agenda, static = spec.prepare(3000, 7)
    engine = BatchedEngine(program, 1000)
    for relation, rows in (static or {}).items():
        if relation in program.static_relations:
            engine.load_static(relation, rows)
    calls = _Calls()
    executor = engine.codegen
    executor._fused = {
        key: (calls.wrap("fused", runner), arity)
        for key, (runner, arity) in executor._fused.items()
    }
    engine._bulk = {
        analysis: tuple(
            runner and calls.wrap(label, runner)
            for label, runner in zip(("increments", "assigns"), runners)
        )
        for analysis, runners in engine._bulk.items()
    }
    # The per-event path is the executor's apply (the engine's own buffers).
    executor.apply = calls.wrap("apply", executor.apply)
    for analysis in engine.plan._analyses.values():
        if analysis.vector_kernel is not None:
            bound = analysis.vector_kernel.bind(engine.maps, engine.database)
            bound._fn = calls.wrap("vector", bound._fn)

    events = list(agenda)
    seen = set()
    for start in range(0, len(events), 1000):
        for group in engine.plan.fold(events[start:start + 1000]):
            analysis, count = group.analysis, len(group.events)
            before = calls.snapshot()
            declined_before = sum(engine.vector_fallbacks.values())
            engine._apply_groups([group])
            declined = sum(engine.vector_fallbacks.values()) - declined_before
            since = {
                label: calls.since(before, label)
                for label in ("apply", "fused", "increments", "assigns", "vector")
            }
            assert since["apply"] == 0
            if not analysis.increments and not analysis.assigns:
                assert not any(since.values())  # an empty trigger runs no code
                continue
            if not (analysis.bulk(count) and analysis in engine._bulk):
                seen.add("replayed")
                assert since == {**since, "fused": count, "increments": 0,
                                 "assigns": 0, "vector": 0}
                continue
            assert since["fused"] == 0
            assert since["assigns"] == (1 if analysis.assigns else 0)
            vectorized = analysis.vectorizes(count) and not declined
            seen.add("vectorized" if vectorized else "bulk")
            if vectorized:
                assert since["vector"] == 1  # one kernel call per run
                assert since["increments"] == 0
            else:
                # All or nothing: one declining kernel sends the whole run
                # through the fused increments, none of it half-committed.
                assert declined <= 1
                assert since["increments"] == (count if analysis.increments else 0)
    if name == "VWAP":
        assert seen == {"bulk"}  # every VWAP trigger re-evaluates with :=
    elif name in ("Q1", "Q6") and numpy_available():
        assert "vectorized" in seen  # a short tail run may still replay
    else:
        assert seen == {"replayed"}
