"""Kernels are built once per compiled program; every engine only links them.

The first engine over a program object builds its fused kernels, the batched
engine's split kernels, its batch plan and vector kernels; a later engine over
the same program (another part, a partition, a fresh engine restoring a
checkpoint) links the same objects against its own tables.  These tests pin
the sharing, that links stay per engine (interleaved engines, dropped
engines), and that nothing of it travels with a pickled program.
"""

import gc
import pickle

import pytest

from repro.codegen import CompiledEngine
from repro.codegen import trigger as trigger_module
from repro.codegen import vector
from repro.compiler.hoivm import compile_query
from repro.exec import BatchedEngine
from repro.exec.partitioning import PartitionedEngine
from repro.runtime.maps import IndexedTable
from repro.workloads import workload

needs_numpy = pytest.mark.skipif(
    not vector.numpy_available(), reason="numpy unavailable; no vector kernel compiles"
)


def _program(name):
    translated = workload(name).query_factory()
    return compile_query(
        translated.roots(),
        translated.schemas(),
        static_relations=translated.static_relations(),
    )


def _replay(engine, program, static, events):
    for relation, rows in (static or {}).items():
        if relation in program.static_relations:
            engine.load_static(relation, rows)
    engine.apply_many(events)
    return engine


def _results(engine, program):
    """Every root's entries in dict order, with each value's type."""
    return {
        root: [(key, value, type(value)) for key, value in engine.result_dict(root).items()]
        for root in sorted(program.roots)
    }


def _count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args[0].name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_engines_over_one_program_share_kernel_objects(monkeypatch):
    program = _program("Q1")
    fused_calls = _count_calls(monkeypatch, trigger_module, "try_fuse_trigger")
    vector_calls = _count_calls(monkeypatch, vector, "compile_vector")
    first, second = CompiledEngine(program), CompiledEngine(program)
    batched = BatchedEngine(program, 1000)
    again = BatchedEngine(program, 1000)
    nonempty = [t for t in program.triggers.values() if t.statements]
    # One fuse per trigger with statements, however many engines.
    assert sorted(fused_calls) == sorted(t.name for t in nonempty)
    for trigger in nonempty:
        key = (trigger.sign, trigger.relation)
        kernel = first.codegen.trigger_kernel_for(*key)
        assert kernel is not None
        assert kernel is second.codegen.trigger_kernel_for(*key)
        assert kernel is batched.codegen.trigger_kernel_for(*key)
        # ... while each engine links it against its own tables.
        assert first.codegen._fused[key][0] is not second.codegen._fused[key][0]
    assert batched.plan is again.plan
    assert batched.plan.bulk_kernels is again.plan.bulk_kernels
    analysis = batched.plan.analysis("Lineitem", 1)
    kernel = analysis.vector_kernel
    assert kernel is again.plan.analysis("Lineitem", 1).vector_kernel
    assert (kernel is not None) == vector.numpy_available()
    # One vector compile attempt per trigger asked about, not per engine.
    again.plan.analysis("Lineitem", 1).vector_kernel
    assert vector_calls.count("insert_lineitem") == 1


@pytest.mark.parametrize("name", ["Q1", "Q3", "VWAP"])
@pytest.mark.parametrize("batch_size", [None, 7, 1000])
def test_interleaved_engines_each_match_their_solo_run(name, batch_size, monkeypatch):
    """Two engines over one program, applied in alternation, each end
    exactly where an engine alone on its stream (over its own program) ends."""
    from repro.exec import batching

    monkeypatch.setattr(batching, "DEFAULT_MIN_VECTOR_ROWS", 1)  # vector runs too

    def make(program):
        return CompiledEngine(program) if batch_size is None else BatchedEngine(program, batch_size)

    spec = workload(name)
    inputs = [spec.prepare(600, seed) for seed in (7, 11)]
    shared = _program(name)
    engines = []
    for agenda, static in inputs:
        engine = make(shared)
        _replay(engine, shared, static, [])
        engines.append(engine)
    streams = [list(agenda) for agenda, _ in inputs]
    for start in range(0, 600, 50):
        for engine, events in zip(engines, streams):
            engine.apply_many(events[start:start + 50])
    for engine, (agenda, static) in zip(engines, inputs):
        own = _program(name)
        solo = _replay(make(own), own, static, list(agenda))
        assert _results(engine, shared) == _results(solo, own)


@pytest.mark.parametrize("name", ["Q1", "Q3", "VWAP", "MST"])
@pytest.mark.parametrize("batch_size", [None, 100])
def test_checkpoint_restored_into_a_fresh_engine_equals_the_original(name, batch_size):
    def make():
        return CompiledEngine(program) if batch_size is None else BatchedEngine(program, batch_size)

    program = _program(name)
    agenda, static = workload(name).prepare(800, 7)
    events = list(agenda)
    original = _replay(make(), program, static, events[:500])
    fresh = make()
    fresh.restore_state(original.checkpoint_state())
    assert _results(fresh, program) == _results(original, program)
    for engine in (original, fresh):
        engine.apply_many(events[500:])
    assert _results(fresh, program) == _results(original, program)


def test_program_pickles_after_engines_were_built():
    program = _program("Q3")
    agenda, static = workload("Q3").prepare(300, 7)
    events = list(agenda)
    sequential = _replay(BatchedEngine(program, 100), program, static, events)
    restored = pickle.loads(pickle.dumps(program))
    assert restored == program and restored.digest == program.digest
    assert restored.pretty() == program.pretty()
    # Built kernels stay with the program object; a receiver builds its own.
    assert "_built" in vars(program) and "_built" not in vars(restored)
    partitioned = PartitionedEngine(program, 2, backend="process", batch_size=100)
    try:
        _replay(partitioned, program, static, events)
        for root in program.roots:
            assert partitioned.result_dict(root) == pytest.approx(sequential.result_dict(root))
    finally:
        partitioned.close()


@needs_numpy
def test_a_dropped_engine_leaves_its_tables_collectable(monkeypatch):
    from repro.exec import batching

    monkeypatch.setattr(batching, "DEFAULT_MIN_VECTOR_ROWS", 1)
    program = _program("Q1")
    agenda, static = workload("Q1").prepare(400, 7)
    events = list(agenda)
    kept = _replay(BatchedEngine(program, 1000), program, static, events)
    dropped = _replay(BatchedEngine(program, 1000), program, static, events)
    assert dropped.statistics()["batching"]["vector_events"] > 0
    # Tables take no weakrefs: look their ids up among the live tables.  No
    # table is made in between, so no id can be reused.
    dropped_ids = {id(dropped.maps.table(name)) for name in dropped.maps.names()}
    del dropped
    gc.collect()
    live = {id(obj) for obj in gc.get_objects() if type(obj) is IndexedTable}
    assert len(dropped_ids) > 1 and not dropped_ids & live
    assert {id(kept.maps.table(name)) for name in kept.maps.names()} <= live
    # The kept engine, linked to the same kernels, still runs.
    kept.apply_many(events[:10])
    kept.flush()
