"""Whole-trigger fusion: bit-identity, dedup soundness, bind caching.

The fused engine's contract is bit-identity with the interpreter — values
*and* types, deletions included — on every workload.  This suite pins fused
vs declined (triggers run on the interpreter inside a compiled engine) vs
interpreted across the tree, checkpoint/restore mid-stream (including
cross-restores from interpreted states and the multiprocessing partitioned
backend recompiling fused kernels from pickled programs), plus targeted
tests for the fusion mechanics: cross-statement dedup, its write-ordering
safety rule, common-guard hoisting, and per-database bind caching.
"""

import copy
import inspect
import pickle

import pytest

from repro.agca.ast import Cmp, MapRef, Product, Relation, Sum, Value, VArith, VConst, VVar
from repro.codegen import CompiledEngine, try_fuse_trigger
from repro.codegen import trigger as trigger_module
from repro.compiler.hoivm import compile_query
from repro.compiler.program import (
    ASSIGN,
    INCREMENT,
    MapDeclaration,
    Statement,
    Trigger,
    TriggerProgram,
)
from repro.delta.events import StreamEvent, TriggerEvent
from repro.runtime.engine import IncrementalEngine
from repro.workloads import all_workloads, workload

ALL_QUERIES = tuple(sorted(all_workloads()))


def _stream(spec):
    parameters = inspect.signature(spec.stream_factory).parameters
    if "max_live_orders" in parameters:
        return list(spec.stream_factory(events=220, max_live_orders=20))
    return list(spec.stream_factory(events=130))


def declined(program):
    """A compiled engine whose triggers all decline fusion: each interprets.

    Kernels are built once per program object, so the engine runs a copy of
    ``program``: the same statements, with no kernels built yet.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(trigger_module, "try_fuse_trigger", lambda trigger, program: None)
        return CompiledEngine(copy.copy(program))


def _build_case(name):
    spec = workload(name)
    translated = spec.query_factory()
    program = compile_query(
        translated.roots(),
        translated.schemas(),
        static_relations=translated.static_relations(),
    )
    return spec, translated, program, _stream(spec)


def _views(engine, translated, spec, program, events):
    for relation, rows in spec.static_tables().items():
        if relation in program.static_relations:
            engine.load_static(relation, rows)
    for event in events:
        engine.apply(event)
    return {root: engine.result_dict(root) for root in translated.roots()}


def _assert_bit_identical(expected, got, context):
    for root, want in expected.items():
        have = got[root]
        assert set(want) == set(have), f"{context}/{root}: key sets differ"
        for key, value in want.items():
            other = have[key]
            assert value == other and type(value) is type(other), (
                f"{context}/{root} at {key}: {other!r} ({type(other).__name__}) "
                f"!= {value!r} ({type(value).__name__})"
            )


@pytest.fixture(scope="module")
def cases():
    cache = {}

    def get(name):
        if name not in cache:
            spec, translated, program, events = _build_case(name)
            expected = _views(
                IncrementalEngine(program), translated, spec, program, events
            )
            cache[name] = (spec, translated, program, events, expected)
        return cache[name]

    return get


# ---------------------------------------------------------------------------
# The property: fused == declined == interpreted, on every workload
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("query_name", ALL_QUERIES)
def test_fused_and_declined_triggers_match_interpreter(cases, query_name):
    spec, translated, program, events, expected = cases(query_name)
    fused = CompiledEngine(program)
    got_fused = _views(fused, translated, spec, program, events)
    _assert_bit_identical(expected, got_fused, f"{query_name}/fused")

    unfused = declined(program)
    got_unfused = _views(unfused, translated, spec, program, events)
    _assert_bit_identical(expected, got_unfused, f"{query_name}/declined")

    stats = fused.statistics()["codegen"]
    unfused_stats = unfused.statistics()["codegen"]
    assert unfused_stats["fused_kernels"] == unfused_stats["compiled_statements"] == 0
    assert unfused_stats["fallback_statements"] == program.statement_count()
    if stats["fallback_statements"] == 0:
        # A fully-compiled program fuses every trigger that has statements.
        populated = sum(
            1 for trigger in program.triggers.values() if trigger.statements
        )
        assert stats["fused_kernels"] == populated
        assert stats["compiled_statements"] == program.statement_count()


def test_every_fully_compiled_trigger_fuses(cases):
    """Fusion covers every trigger whose statements all plan.

    A trigger with a statement outside the fragment would run whole on the
    interpreter; no workload query has one, so there fusion is total.
    """
    from repro.codegen.describe import describe_statement

    for name in ALL_QUERIES:
        _, _, program, _, _ = cases(name)
        executor = CompiledEngine(program).codegen
        expected_fused = sum(
            1
            for trigger in program.triggers.values()
            if trigger.statements
            and all(describe_statement(s, program)["compiled"] for s in trigger.statements)
        )
        stats = executor.codegen_statistics()
        assert stats["fused_kernels"] == expected_fused, name


def test_headline_workloads_fuse_with_zero_fallbacks(cases):
    for name in ("Q1", "Q3", "Q6", "AXF", "BSP", "BSV", "MST", "PSP", "VWAP"):
        _, _, program, _, _ = cases(name)
        engine = CompiledEngine(program)
        stats = engine.codegen.codegen_statistics()
        assert stats["fallback_statements"] == 0, (name, stats["fallbacks"])
        populated = sum(
            1 for trigger in program.triggers.values() if trigger.statements
        )
        assert stats["fused_kernels"] == populated, name


# ---------------------------------------------------------------------------
# Checkpoint / restore with fused kernels
# ---------------------------------------------------------------------------


def test_restore_mid_stream_continues_bit_identically(cases):
    spec, translated, program, events, _ = cases("Q3")
    engine = CompiledEngine(program)
    for relation, rows in spec.static_tables().items():
        if relation in program.static_relations:
            engine.load_static(relation, rows)
    head, tail = events[:70], events[70:]
    for event in head:
        engine.apply(event)
    state = pickle.loads(pickle.dumps(engine.checkpoint_state()))

    fresh = CompiledEngine(program)
    fresh.restore_state(state)
    for event in tail:
        engine.apply(event)
        fresh.apply(event)
    for root in translated.roots():
        _assert_bit_identical(
            {root: engine.result_dict(root)},
            {root: fresh.result_dict(root)},
            "Q3/fused-restore",
        )


def test_interpreted_state_restores_into_fused_engine(cases):
    spec, translated, program, events, expected = cases("VWAP")
    interpreted = IncrementalEngine(program)
    _views(interpreted, translated, spec, program, events)
    compiled = CompiledEngine(program)
    compiled.restore_state(interpreted.checkpoint_state())
    got = {root: compiled.result_dict(root) for root in translated.roots()}
    _assert_bit_identical(expected, got, "VWAP/cross-restore")


def test_process_backend_recompiles_fused_kernels(cases):
    """Workers rebuild fused engines from the pickled program, mid-restore too."""
    from repro.exec import PartitionedEngine

    spec, translated, program, events, expected = cases("Q3")
    engine = PartitionedEngine(program, partitions=2, backend="process")
    try:
        got = _views(engine, translated, spec, program, events)
        _assert_bit_identical(expected, got, "Q3/process-fused")
        state = pickle.loads(pickle.dumps(engine.checkpoint_state()))
    finally:
        engine.close()

    restored = PartitionedEngine(program, partitions=2, backend="process")
    try:
        restored.restore_state(state)
        got = {root: restored.result_dict(root) for root in translated.roots()}
        _assert_bit_identical(expected, got, "Q3/process-fused-restore")
    finally:
        restored.close()


# ---------------------------------------------------------------------------
# Fusion mechanics on hand-built programs
# ---------------------------------------------------------------------------


def make_program(statements, maps, schemas, streams=("R",)):
    triggers = {}
    for stmt in statements:
        trigger = triggers.setdefault(
            stmt.event.name, Trigger(stmt.event.relation, stmt.event.sign)
        )
        trigger.statements.append(stmt)
    return TriggerProgram(
        roots={name: name for name in maps},
        maps=maps,
        triggers=triggers,
        schemas=dict(schemas),
        stream_relations=tuple(streams),
        static_relations=(),
    )


@pytest.fixture()
def two_sums():
    """Two statements sharing a condition, a value factor and the key row."""
    event = TriggerEvent("R", 1, ("a", "b"), ("r_a", "r_b"))
    maps = {
        "S1": MapDeclaration("S1", ("k",), Relation("R", ("k", "b"))),
        "S2": MapDeclaration("S2", ("k",), Relation("R", ("k", "b"))),
    }
    shared = Product((Cmp(VVar("r_b"), ">", VConst(0)), Value(VVar("r_b"))))
    statements = [
        Statement(target="S1", target_keys=("r_a",), operation=INCREMENT,
                  expr=shared, event=event),
        Statement(target="S2", target_keys=("r_a",), operation=INCREMENT,
                  expr=shared, event=event),
    ]
    return make_program(statements, maps, {"R": ("a", "b")})


def test_fused_kernel_dedups_shared_subtrees(two_sums):
    trigger = two_sums.trigger_for(1, "R")
    kernel = try_fuse_trigger(trigger, two_sums)
    assert kernel is not None
    assert kernel.fused_statements == 2
    # The condition, the normalized value and the key tuple each compute once.
    assert kernel.deduped_scalars >= 3
    assert kernel.source.count("_norm(_v1)") == 1
    assert kernel.source.count(" = (_v0,)") == 1
    assert "_Row(" not in kernel.source
    # The shared condition guards the whole kernel exactly once.
    assert kernel.source.count("(_v1 > 0)") == 1


def test_fused_dedup_is_bit_identical(two_sums):
    fused = CompiledEngine(two_sums)
    unfused = declined(two_sums)
    for engine in (fused, unfused):
        engine.apply(StreamEvent("R", (1, 5), 1))
        engine.apply(StreamEvent("R", (1, -2), 1))  # fails the condition
        engine.apply(StreamEvent("R", (2, 3), 1))
        engine.apply(StreamEvent("R", (1, 5), -1))
    for name in ("S1", "S2"):
        assert fused.result_dict(name) == unfused.result_dict(name)


def test_probe_does_not_dedup_across_a_write():
    """Statement 2's probe of M must see statement 1's write to M."""
    event = TriggerEvent("R", 1, ("a", "b"), ("r_a", "r_b"))
    maps = {
        "M": MapDeclaration("M", ("k",), Relation("R", ("k", "b"))),
        "T1": MapDeclaration("T1", ("k",), Relation("R", ("k", "b"))),
        "T2": MapDeclaration("T2", ("k",), Relation("R", ("k", "b"))),
    }
    statements = [
        # T1 reads M before the write, then M updates, then T2 reads M after.
        Statement(target="T1", target_keys=("r_a",), operation=INCREMENT,
                  expr=MapRef("M", ("r_a",)), event=event),
        Statement(target="M", target_keys=("r_a",), operation=INCREMENT,
                  expr=Value(VVar("r_b")), event=event),
        Statement(target="T2", target_keys=("r_a",), operation=INCREMENT,
                  expr=MapRef("M", ("r_a",)), event=event),
    ]
    program = make_program(statements, maps, {"R": ("a", "b")})
    kernel = try_fuse_trigger(program.trigger_for(1, "R"), program)
    assert kernel is not None
    assert kernel.deduped_probes == 0  # sharing would read stale state

    fused = CompiledEngine(program)
    unfused = declined(program)
    for engine in (fused, unfused):
        engine.apply(StreamEvent("R", (7, 10), 1))
        engine.apply(StreamEvent("R", (7, 5), 1))
    for name in ("M", "T1", "T2"):
        assert fused.result_dict(name) == unfused.result_dict(name), name
    # Second event: T1 sees M from before its own write (10), T2 after (15).
    assert fused.result_dict("T1") == {(7,): 10}
    assert fused.result_dict("T2") == {(7,): 25}


def test_stale_shared_probe_still_hoists():
    """A shared probe invalidated later must keep its prefix definition.

    Statements 1 and 2 share the probe of M; statement 3 writes M, so
    statement 4's identical probe finds the cache entry stale and evicts
    it.  The already-shared definition must still hoist into the prefix —
    otherwise statement 2 reads a local defined inside statement 1's abort
    scope, and any event failing statement 1's guard crashes the kernel
    with UnboundLocalError (the bug this test pins).
    """
    event = TriggerEvent("R", 1, ("a", "b"), ("r_a", "r_b"))
    maps = {
        name: MapDeclaration(name, ("k",), Relation("R", ("k", "b")))
        for name in ("M", "T1", "T2", "T3")
    }
    statements = [
        Statement(target="T1", target_keys=("r_a",), operation=INCREMENT,
                  expr=Product((Cmp(VVar("r_b"), ">", VConst(0)),
                                MapRef("M", ("r_a",)))), event=event),
        Statement(target="T2", target_keys=("r_a",), operation=INCREMENT,
                  expr=MapRef("M", ("r_a",)), event=event),
        Statement(target="M", target_keys=("r_a",), operation=INCREMENT,
                  expr=Value(VVar("r_b")), event=event),
        Statement(target="T3", target_keys=("r_a",), operation=INCREMENT,
                  expr=MapRef("M", ("r_a",)), event=event),
    ]
    program = make_program(statements, maps, {"R": ("a", "b")})
    engines = {
        "interpreted": IncrementalEngine(program),
        "fused": CompiledEngine(program),
        "declined": declined(program),
    }
    stream = [
        StreamEvent("R", (7, 4), 1),
        StreamEvent("R", (7, -3), 1),  # fails stmt 1's guard -> crash before fix
        StreamEvent("R", (7, 2), 1),
    ]
    for engine in engines.values():
        for e in stream:
            engine.apply(e)
    reference = engines["interpreted"]
    for name in ("M", "T1", "T2", "T3"):
        want = reference.result_dict(name)
        for label in ("fused", "declined"):
            assert engines[label].result_dict(name) == want, (name, label)


def test_hoisted_probe_drags_its_key_row_into_the_prefix():
    """A shared probe's cached key row hoists with it.

    The probe of M is shared by both statements and moves to the prefix;
    its key tuple — a single-use cached build — must move above it, or the
    prefix would read the key local before its definition.
    """
    event = TriggerEvent("R", 1, ("a", "b"), ("r_a", "r_b"))
    maps = {
        name: MapDeclaration(name, ("k",), Relation("R", ("k", "b")))
        for name in ("M", "T1", "T2")
    }
    statements = [
        Statement(target="T1", target_keys=("r_b",), operation=INCREMENT,
                  expr=MapRef("M", ("r_a",)), event=event),
        Statement(target="T2", target_keys=("r_b",), operation=INCREMENT,
                  expr=MapRef("M", ("r_a",)), event=event),
    ]
    program = make_program(statements, maps, {"R": ("a", "b")})
    kernel = try_fuse_trigger(program.trigger_for(1, "R"), program)
    assert kernel is not None
    assert kernel.deduped_probes == 1
    source = kernel.source
    assert source.count(" = (_v0,)") == 1  # probe key, built once
    assert source.count(" = (_v1,)") == 1  # sink key, built once
    key_def = source.index(" = (_v0,)")
    probe = source.index(".primary.get(")
    assert key_def < probe  # the dragged key defines before the hoisted probe

    fused = CompiledEngine(program)
    unfused = declined(program)
    for engine in (fused, unfused):
        engine.apply(StreamEvent("R", (1, 9), 1))
    for name in ("T1", "T2"):
        assert fused.result_dict(name) == unfused.result_dict(name)


def test_probe_dedups_when_no_write_intervenes():
    event = TriggerEvent("R", 1, ("a", "b"), ("r_a", "r_b"))
    maps = {
        "M": MapDeclaration("M", ("k",), Relation("R", ("k", "b"))),
        "T1": MapDeclaration("T1", ("k",), Relation("R", ("k", "b"))),
        "T2": MapDeclaration("T2", ("k",), Relation("R", ("k", "b"))),
    }
    statements = [
        Statement(target="T1", target_keys=("r_a",), operation=INCREMENT,
                  expr=MapRef("M", ("r_a",)), event=event),
        Statement(target="T2", target_keys=("r_a",), operation=INCREMENT,
                  expr=MapRef("M", ("r_a",)), event=event),
    ]
    program = make_program(statements, maps, {"R": ("a", "b")})
    kernel = try_fuse_trigger(program.trigger_for(1, "R"), program)
    assert kernel is not None
    assert kernel.deduped_probes == 1
    assert kernel.source.count(".primary.get(") == 1


def test_maintained_base_relation_applies_inside_fused_kernel():
    """A self-referential trigger fuses with the base apply in sequence.

    The stream relation is read by a statement, so the database must keep
    it; the fused kernel embeds the base-table add between the increments
    and the assigns, it runs *unconditionally* (the guard shared by the two
    statements must not hoist across it), and results stay identical to a
    declined trigger and the interpreter — including events that fail
    the guard, whose base-relation rows later statements still observe.
    """
    event = TriggerEvent("R", 1, ("a", "b"), ("r_a", "r_b"))
    maps = {
        "T1": MapDeclaration("T1", ("k",), Relation("R", ("k", "b"))),
        "T2": MapDeclaration("T2", ("k",), Relation("R", ("k", "b"))),
    }
    guard = Cmp(VVar("r_b"), ">", VConst(0))
    statements = [
        Statement(target="T1", target_keys=("r_a",), operation=INCREMENT,
                  expr=Product((guard, Value(VVar("r_b")))), event=event),
        # Reads the stream relation itself: R must be maintained.
        Statement(target="T2", target_keys=("y",), operation=INCREMENT,
                  expr=Product((guard, Relation("R", ("y", "z")))), event=event),
    ]
    program = make_program(statements, maps, {"R": ("a", "b")})
    assert "R" in program.requires_base_relations()

    kernel = try_fuse_trigger(program.trigger_for(1, "R"), program)
    assert kernel is not None
    assert "(_values, 1)" in kernel.source  # the embedded base-table add
    # The shared guard cannot hoist to kernel top: the base apply between
    # the statements runs unconditionally, so each statement keeps its own.
    assert kernel.source.count("(_v1 > 0)") >= 1
    base_line = kernel.source.index("(_values, 1)")
    assert kernel.source.index("(_v1 > 0)") < base_line

    engines = {
        "interpreted": IncrementalEngine(program),
        "fused": CompiledEngine(program),
        "declined": declined(program),
    }
    stream = [
        StreamEvent("R", (1, 5), 1),
        StreamEvent("R", (2, -3), 1),   # fails the guard; base row must persist
        StreamEvent("R", (1, 2), 1),
        StreamEvent("R", (1, 5), -1),
    ]
    for engine in engines.values():
        for e in stream:
            engine.apply(e)
    reference = engines["interpreted"]
    for name in ("T1", "T2"):
        want = reference.result_dict(name)
        for label in ("fused", "declined"):
            got = engines[label].result_dict(name)
            assert got == want, (name, label, got, want)
            for key, value in want.items():
                assert type(got[key]) is type(value)


def test_fusion_handles_renamed_trigger_variables():
    """Sibling statements may name the same event field differently.

    ``fresh_trigger_vars`` suffixes trigger-variable names that collide
    with a map definition, so one trigger's statements can carry e.g.
    ``(r_a, r_b)`` and ``(r_a1, r_b1)`` for the same event positions.
    Fusion keys event loads by *position*, so such triggers fuse (and the
    identical subtrees still dedup) instead of crashing engine
    construction with ValueError.
    """
    event_a = TriggerEvent("R", 1, ("a", "b"), ("r_a", "r_b"))
    event_b = TriggerEvent("R", 1, ("a", "b"), ("r_a1", "r_b1"))
    maps = {
        "S1": MapDeclaration("S1", ("k",), Relation("R", ("k", "b"))),
        "S2": MapDeclaration("S2", ("k",), Relation("R", ("k", "b"))),
    }
    statements = [
        Statement(target="S1", target_keys=("r_a",), operation=INCREMENT,
                  expr=Product((Cmp(VVar("r_b"), ">", VConst(0)),
                                Value(VVar("r_b")))), event=event_a),
        Statement(target="S2", target_keys=("r_a1",), operation=INCREMENT,
                  expr=Product((Cmp(VVar("r_b1"), ">", VConst(0)),
                                Value(VVar("r_b1")))), event=event_b),
    ]
    program = make_program(statements, maps, {"R": ("a", "b")})
    kernel = try_fuse_trigger(program.trigger_for(1, "R"), program)
    assert kernel is not None
    # Positional locals make the renamed subtrees identical -> they dedup.
    assert kernel.deduped_scalars >= 2

    engines = {
        "interpreted": IncrementalEngine(program),
        "fused": CompiledEngine(program),
        "declined": declined(program),
    }
    for engine in engines.values():
        engine.apply(StreamEvent("R", (1, 5), 1))
        engine.apply(StreamEvent("R", (2, -1), 1))
    for name in ("S1", "S2"):
        want = engines["interpreted"].result_dict(name)
        for label in ("fused", "declined"):
            assert engines[label].result_dict(name) == want, (name, label)


def test_dead_term_reservations_are_not_reusable():
    """A zero-constant factor kills its term mid-planning; dedup entries the
    term reserved before dying must be evicted, or a later statement reuses
    a local whose defining node is never emitted (NameError at event time).
    """
    event = TriggerEvent("R", 1, ("a", "b"), ("r_a", "r_b"))
    maps = {
        "M1": MapDeclaration("M1", (), Relation("R", ("a", "b"))),
        "M2": MapDeclaration("M2", (), Relation("R", ("a", "b"))),
    }
    square = Value(VArith("*", VVar("r_b"), VVar("r_b")))
    statements = [
        # Term 1 reserves the (x*x) value, then dies on the * 0 constant.
        Statement(target="M1", target_keys=(), operation=INCREMENT,
                  expr=Sum((Product((square, Value(VConst(0)))),
                            Value(VConst(7)))), event=event),
        # This statement must not reuse the phantom local.
        Statement(target="M2", target_keys=(), operation=INCREMENT,
                  expr=square, event=event),
    ]
    program = make_program(statements, maps, {"R": ("a", "b")})
    engines = {
        "interpreted": IncrementalEngine(program),
        "fused": CompiledEngine(program),
        "declined": declined(program),
    }
    for engine in engines.values():
        engine.apply(StreamEvent("R", (1, 3), 1))  # NameError before the fix
    for name in ("M1", "M2"):
        want = engines["interpreted"].result_dict(name)
        for label in ("fused", "declined"):
            assert engines[label].result_dict(name) == want, (name, label)


def test_fusion_skipped_when_any_statement_falls_back(cases, monkeypatch):
    """One statement the planner declines leaves its whole trigger interpreted."""
    import repro.codegen.statement as statement_module
    from repro.codegen.lowering import Unsupported

    spec, translated, program, events, expected = cases("Q3")
    refused = program.trigger_for(1, "Orders").statements[-1]
    original = statement_module._StatementCompiler.compile

    def refuse_one(self):
        if self.statement is refused:
            raise Unsupported("refused for this test")
        return original(self)

    monkeypatch.setattr(statement_module._StatementCompiler, "compile", refuse_one)
    engine = CompiledEngine(copy.copy(program))  # a program with no kernels built yet
    stats = engine.codegen.codegen_statistics()
    orders = len(program.trigger_for(1, "Orders").statements)
    assert stats["fallback_statements"] == orders
    assert stats["fused_kernels"] == 5
    assert engine.codegen.trigger_kernel_for(1, "Orders") is None
    got = _views(engine, translated, spec, program, events)
    _assert_bit_identical(expected, got, "Q3/one-trigger-declined")
    assert engine.codegen.fallback_hits > 0


def test_bulk_kernels_split_the_steps_at_the_base_apply(cases):
    """The batched engine's two extra kernels of a trigger with ``:=``
    statements: the ``+=`` steps with the base apply, then the ``:=`` steps."""
    _, _, program, _, _ = cases("VWAP")
    maintained = program.requires_base_relations()
    assigning = [
        trigger for trigger in program.triggers.values()
        if any(statement.operation == ASSIGN for statement in trigger.statements)
    ]
    assert assigning
    for trigger in assigning:
        whole = try_fuse_trigger(trigger, program)
        increments = try_fuse_trigger(trigger, program, assigns=False)
        assigns = try_fuse_trigger(trigger, program, increments=False)
        assert 0 < assigns.fused_statements < whole.fused_statements
        assert increments.fused_statements + assigns.fused_statements == whole.fused_statements
        assert ".replace(" in assigns.source and ".replace(" not in increments.source
        base_add = f"(_values, {trigger.sign})"
        assert (base_add in increments.source) == (trigger.relation in maintained)
        assert base_add not in assigns.source


# ---------------------------------------------------------------------------
# Bind caching (restore must not re-exec unchanged kernels)
# ---------------------------------------------------------------------------


def test_fused_bind_caches_per_database(two_sums):
    trigger = two_sums.trigger_for(1, "R")
    kernel = try_fuse_trigger(trigger, two_sums)
    engine = CompiledEngine(two_sums)

    first = kernel.bind(engine.maps, engine.database)
    again = kernel.bind(engine.maps, engine.database)
    assert first is again  # same tables -> cached runner, no re-exec

    other = CompiledEngine(two_sums)
    different = kernel.bind(other.maps, other.database)
    assert different is not first  # different tables -> fresh link


def test_restore_reuses_fused_runners(two_sums):
    engine = CompiledEngine(two_sums)
    engine.apply(StreamEvent("R", (1, 5), 1))
    state = engine.checkpoint_state()
    runners_before = {k: r for k, (r, _) in engine.codegen._fused.items()}
    engine.restore_state(state)
    runners_after = {k: r for k, (r, _) in engine.codegen._fused.items()}
    assert runners_before == runners_after  # tables mutate in place on restore
    # ... and the reused runners still apply events correctly.
    engine.apply(StreamEvent("R", (1, 5), 1))
    assert engine.result_dict("S1") == {(1,): 10}


# ---------------------------------------------------------------------------
# The dump CLI
# ---------------------------------------------------------------------------


def test_dump_cli_prints_fused_source_and_ir_ops(capsys):
    from repro.codegen.__main__ import main

    assert main(["dump", "Q1", "--trigger", "Lineitem:+"]) == 0
    out = capsys.readouterr().out
    assert "fused kernel" in out
    assert "def _kernel(_values):" in out
    assert "IR ops:" in out
    assert "sink_add=" in out


def test_dump_cli_rejects_unknown_query(capsys):
    from repro.codegen.__main__ import main

    assert main(["dump", "definitely-not-a-query"]) == 2
    assert "unknown query" in capsys.readouterr().out


def test_dump_cli_agca_prints_each_statement_above_its_kernel(capsys):
    from repro.codegen.__main__ import main

    assert main(["dump", "Q17a", "--trigger", "Lineitem:+", "--agca"]) == 0
    out = capsys.readouterr().out
    agca = [line for line in out.splitlines() if line.startswith("-- statement 0 AGCA:")]
    assert len(agca) == 1 and out.index(agca[0]) < out.index("def _kernel")
    # The domain equality became the probe key: the slice of the outer view
    # and the lifted sum are both keyed by the trigger's part key.
    assert "M3[lineitem_partkey, l_quantity]" in agca[0]
    assert "(__sq1 := (Sum[](M2[lineitem_partkey]) + lineitem_quantity))" in agca[0]
    assert "interpreter fallback" not in out


def test_dump_cli_prints_the_reason_on_fallback_lines(capsys, monkeypatch):
    from repro.codegen import statement as statement_module
    from repro.codegen.__main__ import main
    from repro.codegen.lowering import Unsupported

    def refuse(self, body, resolve, depth):
        raise Unsupported("lift bodies refused for this test")

    monkeypatch.setattr(statement_module._StatementCompiler, "_plan_lift_body", refuse)
    assert main(["dump", "Q17a", "--trigger", "Lineitem:+", "--agca"]) == 0
    out = capsys.readouterr().out
    assert "interpreted (no fused kernel)" in out
    assert (
        "-- statement 0 -> Q17a_query17a: interpreter fallback "
        "(lift bodies refused for this test)"
    ) in out
    assert "-- statement 0 AGCA: Q17a_query17a[] +=" in out
