"""Integration: the nested-aggregate queries on generated streams, every engine.

Q4, Q17a, Q18a and Q22a are the queries whose root statements carry the
restricted nested-aggregate delta (``D * ((x := Q + dQ) - (x := Q))`` probed
by the domain's key) and the lifted-sum kernels.  Hypothesis drives them with
small streams built to stress exactly that: inserts *and* deletes, repeated
keys and repeated tuples, quantities that take the lifted sum through 0 and
back and forth across the ``100 <`` (Q18a) and ``0.005 *`` (Q17a)
thresholds, balances on both sides of Q22a's comparison, orders appearing and
disappearing under its ``0 = COUNT(*)``.

Every engine configuration — interpreted, fused, batched (vector cutoff
patched to 1) and partitioned, each through a mid-stream checkpoint →
restore into a fresh engine — must agree *exactly* (values and types) with
the interpreter, and the interpreter with :class:`ReferenceEngine` within
the suite's usual 1e-6, after every event.  The batched engine is read where
it exposes a state: at its batch boundaries, the checkpoint and the end.
"""

from functools import lru_cache
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.codegen import CompiledEngine
from repro.compiler.hoivm import compile_query
from repro.delta.events import DELETE, INSERT, StreamEvent
from repro.exec import BatchedEngine, PartitionedEngine, batching
from repro.runtime.engine import IncrementalEngine
from repro.runtime.reference import ReferenceEngine
from repro.workloads import workload

QUERIES = ("Q4", "Q17a", "Q18a", "Q22a")
BATCH_SIZE = 3

#: Quantities: 0, sums crossing 100 (30 + 60 + 30), 0.005 * 200 == 1 against
#: quantities 0 / 1, negatives taking a sum back through 0.
QUANTITIES = (0, 1, 30, 60, 101, 200, -30, -200)
#: Dyadic, so every summation order is exact and engines can be compared with ==.
PRICES = (0, 10, 2.5, 7)
BALANCES = (-5, 0, 3, 10, 0.5)
ORDER_DATES = ("1993-06-30", "1993-08-01", "1993-10-01")
COMMIT_DATES = ("1993-01-01", "1993-03-01")  # before / after the receipt date


def _row(relation, key, other, pick):
    if relation == "Customer":
        return (key, "c", 1 + other % 2, BALANCES[pick % len(BALANCES)], "seg", "ph")
    if relation == "Orders":
        return (
            key, 1 + other % 3, "O", 1, ORDER_DATES[pick % len(ORDER_DATES)],
            ("1-URGENT", "2-HIGH")[other % 2], 0,
        )
    if relation == "Part":
        return (1 + key % 2, "n", "m", "b", "t", 1, "box")
    return (
        key, 1 + other % 2, 1, 1 + pick % 2, QUANTITIES[pick % len(QUANTITIES)],
        PRICES[(pick // 2) % len(PRICES)], 0, 0, "N", "O", "1993-01-15",
        COMMIT_DATES[other % 2], "1993-02-01", "AIR", "NONE",
    )


operations = st.lists(
    st.tuples(
        st.booleans(),                                     # delete a live tuple?
        st.sampled_from(("Customer", "Orders", "Lineitem", "Lineitem", "Part")),
        st.integers(1, 3),                                 # key
        st.integers(0, 5),                                 # second key / flags
        st.integers(0, 15),                                # value pick
    ),
    min_size=4,
    max_size=26,
)


def _events(ops):
    """Inserts (repeats allowed) and deletes of tuples that are live."""
    live, out = [], []
    for delete, relation, key, other, pick in ops:
        if delete and live:
            out.append(StreamEvent(*live.pop((key * 7 + other + pick) % len(live)), DELETE))
        else:
            row = (relation, _row(relation, key, other, pick))
            live.append(row)
            out.append(StreamEvent(*row, INSERT))
    return out


@lru_cache(maxsize=None)
def _compiled(query_name):
    translated = workload(query_name).query_factory()
    program = compile_query(
        translated.roots(),
        translated.schemas(),
        static_relations=translated.static_relations(),
    )
    return translated, program


ENGINES = {
    "fused": CompiledEngine,
    "batched": lambda program: BatchedEngine(program, BATCH_SIZE),
    "partitioned": lambda program: PartitionedEngine(program, partitions=2),
}


def _assert_exact(want, have, context):
    assert want == have, context
    for key, value in want.items():
        assert type(have[key]) is type(value), (context, key, value, have[key])


def _assert_close(want, have, context):
    for key in set(want) | set(have):
        w, h = want.get(key, 0), have.get(key, 0)
        assert abs(w - h) <= 1e-6 * max(1.0, abs(w), abs(h)), (context, key, w, h)


@pytest.mark.parametrize("query_name", QUERIES)
@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(ops=operations)
def test_every_engine_tracks_the_interpreter_and_the_reference(query_name, ops):
    translated, program = _compiled(query_name)
    root = next(iter(translated.roots()))
    events = _events(ops)
    checkpoint_at = len(events) // 2

    interpreter = IncrementalEngine(program)
    reference = ReferenceEngine(translated.roots(), translated.schemas())
    with mock.patch.object(batching, "DEFAULT_MIN_VECTOR_ROWS", 1):
        engines = {name: build(program) for name, build in ENGINES.items()}
        try:
            for position, event in enumerate(events, start=1):
                interpreter.apply(event)
                reference.apply(event)
                want = interpreter.result_dict(root)
                _assert_close(reference.result_dict(root), want, (query_name, position))
                for name, engine in engines.items():
                    engine.apply(event)
                    readable = (
                        name != "batched"
                        or position % BATCH_SIZE == 0
                        or position in (checkpoint_at, len(events))
                    )
                    if readable:
                        _assert_exact(
                            want, engine.result_dict(root), (query_name, name, position, event)
                        )
                if position == checkpoint_at:
                    for name, engine in list(engines.items()):
                        state = engine.checkpoint_state()
                        engine.close()
                        engines[name] = ENGINES[name](program)
                        engines[name].restore_state(state)
                        _assert_exact(
                            want, engines[name].result_dict(root), (query_name, name, "restored")
                        )
        finally:
            for engine in engines.values():
                engine.close()
    for name, engine in engines.items():
        if name != "partitioned":
            stats = engine.statistics()
            assert stats["codegen"]["fallback_hits"] == 0, (name, stats["codegen"])
