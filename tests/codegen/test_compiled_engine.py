"""CompiledEngine == IncrementalEngine — values *and* types, every workload.

The compiled engine's contract is bit-identity with the interpreter: same
keys, same values, same Python types, deletions included, regardless of how
many triggers fused versus fell back to the interpreter.  One parametrized suite pins that
across every TPC-H / finance / MDDB query in the tree, plus targeted tests
for forced interpreter fallback, checkpoint/restore recompilation and the
service integration.
"""

import copy
import inspect
import pickle

import pytest

import repro.codegen.trigger as trigger_module
from repro.codegen import CompiledEngine
from repro.compiler.hoivm import compile_query
from repro.runtime.engine import IncrementalEngine
from repro.runtime.protocol import EngineProtocol
from repro.workloads import all_workloads, workload

ALL_QUERIES = tuple(sorted(all_workloads()))


def _stream(spec):
    parameters = inspect.signature(spec.stream_factory).parameters
    if "max_live_orders" in parameters:
        # A small live working set forces delete events inside the window.
        return list(spec.stream_factory(events=260, max_live_orders=20))
    return list(spec.stream_factory(events=140))


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


@pytest.mark.parametrize("query_name", ALL_QUERIES)
def test_compiled_engine_matches_interpreter_bit_identically(cases, query_name):
    spec, translated, program, events, expected = cases(query_name)
    engine = CompiledEngine(program)
    got = _views(engine, translated, spec, program, events)
    _assert_bit_identical(expected, got, f"{query_name}/compiled")
    stats = engine.statistics()["codegen"]
    assert stats["compiled_statements"] + stats["fallback_statements"] == (
        program.statement_count()
    )


def test_streams_used_here_contain_deletes():
    spec = workload("Q1")
    assert any(event.sign < 0 for event in _stream(spec))


def test_linear_tpch_views_compile_fully(cases):
    """The headline queries must run entirely on generated code — including
    the ones whose statements call external functions (Q12/Q14/Q19)."""
    for name in ("Q1", "Q3", "Q6", "Q12", "Q14", "Q19"):
        _, _, program, _, _ = cases(name)
        engine = CompiledEngine(program)
        stats = engine.codegen.codegen_statistics()
        assert stats["fallback_statements"] == 0, stats["fallbacks"]
        assert stats["compiled_statements"] > 0
        nonempty = sum(1 for trigger in program.triggers.values() if trigger.statements)
        assert stats["fused_kernels"] == nonempty, name


def test_no_workload_statement_falls_back_on_an_external_function():
    """External functions are inside the codegen fragment on every path."""
    from repro.codegen.describe import describe_program

    for name in ALL_QUERIES:
        _, _, program, _ = _build_case(name)
        reasons = [
            statement["fallback_reason"]
            for trigger in describe_program(program)["triggers"]
            for statement in trigger["statements"]
            if not statement["compiled"]
        ]
        assert not any("function" in reason for reason in reasons), (name, reasons)


def test_forced_full_fallback_is_still_identical(cases, monkeypatch):
    """With fusion disabled entirely, the engine degrades to the interpreter."""
    spec, translated, program, events, expected = cases("Q3")
    monkeypatch.setattr(trigger_module, "try_fuse_trigger", lambda *args, **kwargs: None)
    # Kernels are built once per program object: a copy has none yet, so
    # the patched fuser is what builds its kernels.
    engine = CompiledEngine(copy.copy(program))
    stats = engine.codegen.codegen_statistics()
    assert stats["compiled_statements"] == stats["fused_kernels"] == 0
    got = _views(engine, translated, spec, program, events)
    _assert_bit_identical(expected, got, "Q3/forced-fallback")
    assert engine.codegen.fallback_hits > 0


def _every_other_trigger_declines(monkeypatch):
    original = trigger_module.try_fuse_trigger
    toggle = {"count": 0}

    def every_other(trigger, program, **steps):
        toggle["count"] += 1
        if toggle["count"] % 2 == 0:
            return None
        return original(trigger, program, **steps)

    monkeypatch.setattr(trigger_module, "try_fuse_trigger", every_other)


@pytest.mark.parametrize("query_name", ("Q1", "Q3", "VWAP"))
def test_forced_trigger_fallback_is_identical(cases, monkeypatch, query_name):
    """Mixing fused and interpreted triggers inside one program is safe.

    Every other trigger declines fusion, so fused kernels and interpreted
    triggers interleave event by event over one map store.
    """
    spec, translated, program, events, expected = cases(query_name)
    _every_other_trigger_declines(monkeypatch)
    engine = CompiledEngine(copy.copy(program))  # a program with no kernels built yet
    stats = engine.codegen.codegen_statistics()
    assert stats["fused_kernels"] > 0 and stats["fallback_statements"] > 0
    got = _views(engine, translated, spec, program, events)
    _assert_bit_identical(expected, got, f"{query_name}/trigger-fallback")


def test_compiled_engine_implements_the_protocol(cases):
    _, _, program, _, _ = cases("Q1")
    assert isinstance(CompiledEngine(program), EngineProtocol)


def test_wrong_arity_events_raise_like_the_interpreter(cases):
    """Compiled runners index positionally; malformed events must still raise."""
    from repro.delta.events import StreamEvent

    spec, _, program, events, _ = cases("Q1")
    lineitem = next(e for e in events if e.relation == "Lineitem")
    bad = StreamEvent(lineitem.relation, lineitem.values + ("extra",), lineitem.sign)
    for engine in (IncrementalEngine(program), CompiledEngine(program)):
        with pytest.raises(ValueError, match="arity"):
            engine.apply(bad)
        assert engine.events_processed == 0


def test_checkpoint_restore_recompiles_and_continues(cases):
    spec, translated, program, events, _ = cases("Q3")
    engine = CompiledEngine(program)
    for relation, rows in spec.static_tables().items():
        if relation in program.static_relations:
            engine.load_static(relation, rows)
    head, tail = events[:150], events[150:]
    for event in head:
        engine.apply(event)
    state = engine.checkpoint_state()

    # State round-trips through pickle and carries no code objects: every
    # leaf is a plain value, so a restored engine must recompile, not unpickle
    # kernels.
    import types

    def assert_plain(value):
        assert not isinstance(value, (types.CodeType, types.FunctionType))
        if isinstance(value, dict):
            for inner in value.values():
                assert_plain(inner)
        elif isinstance(value, (list, tuple)):
            for inner in value:
                assert_plain(inner)

    assert_plain(state)
    state = pickle.loads(pickle.dumps(state))

    fresh = CompiledEngine(program)
    fresh.restore_state(state)
    assert fresh.events_processed == engine.events_processed
    for event in tail:
        engine.apply(event)
        fresh.apply(event)
    for root in translated.roots():
        _assert_bit_identical(
            {root: engine.result_dict(root)},
            {root: fresh.result_dict(root)},
            "Q3/restore",
        )


def test_states_are_interchangeable_with_the_interpreted_engine(cases):
    spec, translated, program, events, expected = cases("Q1")
    interpreted = IncrementalEngine(program)
    _views(interpreted, translated, spec, program, events)
    state = interpreted.checkpoint_state()
    assert state["kind"] == "single"
    compiled = CompiledEngine(program)
    compiled.restore_state(state)
    got = {root: compiled.result_dict(root) for root in translated.roots()}
    _assert_bit_identical(expected, got, "Q1/cross-restore")


def test_describe_and_statistics_surface_codegen(cases):
    _, _, program, _, _ = cases("VWAP")
    engine = CompiledEngine(program)
    description = engine.describe()
    assert program.pretty() in description
    assert "codegen" in description
    stats = engine.statistics()["codegen"]
    # Since the nested-aggregate lowering, VWAP compiles fully — its :=
    # re-evaluation statements included.
    assert stats["fallback_statements"] == 0
    assert stats["compiled_statements"] > 0
    assert not stats["fallbacks"]


def test_service_hosts_the_compiled_engine(cases):
    from repro.service.core import ViewService, engine_for_mode

    spec, translated, program, events, expected = cases("Q1")
    service = ViewService(engine_for_mode(program, mode="compiled"))
    try:
        for relation, rows in spec.static_tables().items():
            if relation in program.static_relations:
                service.load_static(relation, rows)
        service.ingest(events)
        root = next(iter(translated.roots()))
        snapshot = service.query(root)
        assert snapshot.version == len(events)
        _assert_bit_identical(
            {root: expected[root]}, {root: snapshot.entries}, "Q1/service"
        )
    finally:
        service.close()
