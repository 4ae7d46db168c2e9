"""Tests for delta-batch folding, trigger safety analysis and BatchedEngine."""

import pytest

from repro.compiler.hoivm import compile_query
from repro.delta.events import delete, insert
from repro.errors import ExecutionError
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
    assert sum(group.count for group in groups) == len(agenda)


def test_fold_folds_duplicate_tuples_with_multiplicity():
    _, program = _program("Q1")
    plan = BatchPlan(program)
    row = ("k", 1, 1, 1, 5, 10.0, 0.0, 0.0, "N", "O",
           "1995-01-01", "1995-01-01", "1995-01-01", "MAIL", "NONE")
    events = [insert("Lineitem", *row), insert("Lineitem", *row)]
    groups = plan.fold(events)
    assert len(groups) == 1
    assert groups[0].folded == {tuple(row): 2}
    assert groups[0].count == 2


def test_fold_keeps_insert_and_delete_groups_ordered():
    _, program = _program("Q1")
    plan = BatchPlan(program)
    row = ("k", 1, 1, 1, 5, 10.0, 0.0, 0.0, "N", "O",
           "1995-01-01", "1995-01-01", "1995-01-01", "MAIL", "NONE")
    events = [insert("Lineitem", *row), delete("Lineitem", *row), insert("Lineitem", *row)]
    groups = plan.fold(events)
    signs = [group.sign for group in groups]
    assert signs == [1, -1, 1] or signs == [1, -1]  # merge of outer inserts is
    # only legal when insert/delete triggers commute, which they do for Q1.
    assert sum(group.sign * group.count for group in groups) == 1


def test_delta_gmr_folds_signed_multiplicities():
    _, program = _program("Q1")
    plan = BatchPlan(program)
    row = ("k", 1, 1, 1, 5, 10.0, 0.0, 0.0, "N", "O",
           "1995-01-01", "1995-01-01", "1995-01-01", "MAIL", "NONE")
    groups = plan.fold([delete("Lineitem", *row), delete("Lineitem", *row)])
    gmr = groups[0].delta_gmr(program.schemas["Lineitem"])
    assert gmr.total_multiplicity() == -2


# ---------------------------------------------------------------------------
# BatchedEngine behaviour
# ---------------------------------------------------------------------------


def test_constructor_surfaces_have_no_execution_path_knobs():
    """Inner engines are always compiled and vector dispatch is automatic:
    nothing on these signatures selects an execution path."""
    import inspect

    from repro.codegen.engine import CompiledEngine
    from repro.exec import PartitionedEngine, make_backend
    from repro.exec.executor import MultiprocessBackend, SequentialBackend

    def parameters(fn):
        return [name for name in inspect.signature(fn).parameters if name != "self"]

    assert parameters(BatchedEngine.__init__) == [
        "program", "batch_size", "plan", "telemetry",
    ]
    for factory in (
        PartitionedEngine.__init__, make_backend,
        SequentialBackend.__init__, MultiprocessBackend.__init__,
    ):
        assert "compiled" not in parameters(factory)
    _, program = _program("Q1")
    assert isinstance(BatchedEngine(program, 10).engine, CompiledEngine)
    assert not hasattr(BatchedEngine, "BACKENDS")


def test_batched_engine_rejects_non_stream_relations():
    _, program = _program("Q1")
    engine = BatchedEngine(program, 10)
    with pytest.raises(ExecutionError):
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
    assert engine.events_processed == 50
    view = engine.view("Q1_sum_qty")  # triggers the flush
    assert view.support_size > 0
    assert engine.engine.events_processed == 50


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
