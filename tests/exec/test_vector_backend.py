"""Tests for the columnar vector kernels: bit-identity, fallbacks, staging.

The contract under test is the one DESIGN.md states for vector dispatch:
results are bit-identical to the interpreted per-event engine — values *and*
types — with the vector path sending a whole run to the fused kernel whenever
any of its statements leaves the fast-numeric regime (int64 overflow,
Fractions, mixed columns), and disabling itself entirely (with a reason) when
numpy is missing.
"""

import os
import subprocess
import sys
from fractions import Fraction

import pytest

from repro.codegen import CompiledEngine, vector
from repro.compiler.hoivm import compile_query
from repro.delta.events import delete, insert
from repro.errors import ExecutionError
from repro.exec import BatchedEngine, batching
from repro.runtime.engine import IncrementalEngine
from repro.runtime.maps import IndexedTable
from repro.sql import Catalog, parse_sql_query
from repro.workloads import all_workloads, workload

needs_numpy = pytest.mark.skipif(
    not vector.numpy_available(),
    reason="numpy unavailable; the vector backend auto-disables",
)

#: Workloads whose lineitem-style triggers are known to vectorize (the
#: regression canary: losing one of these to fused code is a bug).
VECTORIZED_WORKLOADS = ("Q1", "Q6", "VWAP")

CATALOG = Catalog.from_dict({"R": ("k", "grp", "x", "s")})


def _workload_program(query_name):
    spec = workload(query_name)
    translated = spec.query_factory()
    program = compile_query(
        translated.roots(),
        translated.schemas(),
        static_relations=translated.static_relations(),
    )
    return spec, translated, program


def _custom_program(sql):
    translated = parse_sql_query(sql, CATALOG, name="T")
    return translated, compile_query(translated.roots(), translated.schemas())


@pytest.fixture()
def vector_everywhere(monkeypatch):
    """Drop the small-group dispatch cutoff so tiny test batches still reach
    the vector kernels (the default cutoff has its own test below)."""
    monkeypatch.setattr(batching, "DEFAULT_MIN_VECTOR_ROWS", 1)


def _replay(engine, program, static, events):
    for relation, rows in static.items():
        engine.load_static(relation, rows)
    for event in events:
        engine.apply(event)
    engine.flush()
    return {root: engine.result_dict(root) for root in program.roots}


def _run(program, static, events, batch_size):
    engine = BatchedEngine(program, batch_size=batch_size)
    return engine, _replay(engine, program, static, events)


def _reference(program, static, events):
    """The interpreted per-event engine: the semantics of record."""
    return _replay(IncrementalEngine(program), program, static, events)


def _assert_bit_identical(reference, observed, context=""):
    assert set(reference) == set(observed), context
    for root, expected in reference.items():
        got = observed[root]
        assert got == expected, f"{context}: values diverged for {root}"
        for key, value in expected.items():
            assert type(got[key]) is type(value), (
                f"{context}: {root}{key!r} is {type(got[key]).__name__}, "
                f"interpreted has {type(value).__name__}"
            )


# ---------------------------------------------------------------------------
# Vector-vs-interpreter bit-identity property suite
# ---------------------------------------------------------------------------

_EVENTS = 240
_scenario_cache = {}


def _scenario(name):
    """(program, static, events, interpreted reference results) per workload."""
    cached = _scenario_cache.get(name)
    if cached is None:
        spec, translated, program = _workload_program(name)
        agenda, static = spec.prepare(_EVENTS, 7)
        events = list(agenda)
        reference = _reference(program, static, events)
        cached = _scenario_cache[name] = (program, static, events, reference)
    return cached


@needs_numpy
@pytest.mark.parametrize("name", sorted(all_workloads()))
def test_vector_backend_bit_identical_across_batch_sizes(name, vector_everywhere):
    program, static, events, reference = _scenario(name)
    for batch_size in (1, 7, 100):
        engine, results = _run(program, static, events, batch_size)
        _assert_bit_identical(reference, results, f"{name} bs={batch_size}")


@needs_numpy
@pytest.mark.parametrize("name", VECTORIZED_WORKLOADS)
def test_known_vectorizable_workloads_take_the_vector_path(name, vector_everywhere):
    program, static, events, _ = _scenario(name)
    engine, _results = _run(program, static, events, 100)
    stats = engine.statistics()["batching"]
    assert stats["vector_statements"] > 0
    assert stats["vector_events"] > 0


@needs_numpy
def test_range_probe_workload_vectorizes(vector_everywhere):
    """VWAP's correlated range condition runs through the prefix-sum probe."""
    program, static, events, reference = _scenario("VWAP")
    engine, results = _run(program, static, events, 100)
    _assert_bit_identical(reference, results, "VWAP range probes")
    assert engine.statistics()["batching"]["vector_events"] > 0


# ---------------------------------------------------------------------------
# Staged ingestion
# ---------------------------------------------------------------------------


@needs_numpy
def test_staged_apply_matches_per_event_results(vector_everywhere):
    program, static, events, reference = _scenario("Q1")
    engine = BatchedEngine(program, batch_size=100)
    for relation, rows in static.items():
        engine.load_static(relation, rows)
    applied = 0
    for start in range(0, len(events), 100):
        staged = engine.stage(events[start:start + 100])
        applied += engine.apply_staged(staged)
    engine.flush()
    assert applied == len(events)
    results = {root: engine.result_dict(root) for root in program.roots}
    _assert_bit_identical(reference, results, "Q1 staged")
    assert engine.statistics()["batching"]["vector_events"] > 0


@needs_numpy
def test_empty_and_singleton_batches(vector_everywhere):
    translated, program = _custom_program(
        "SELECT r.grp, SUM(r.x) AS total FROM R r GROUP BY r.grp"
    )
    engine = BatchedEngine(program, batch_size=1)
    assert engine.apply_staged(engine.stage([])) == 0
    engine.apply(insert("R", 1, "a", 5, "s"))
    engine.flush()
    assert engine.apply_staged(engine.stage([insert("R", 2, "a", 7, "s")])) == 1
    engine.flush()
    assert engine.result_dict() == {("a",): 12}
    assert type(engine.result_dict()[("a",)]) is int


@needs_numpy
def test_small_groups_stay_scalar_under_default_cutoff():
    """Runs below the cutoff constant never reach a vector kernel.

    A kernel call costs a fixed few dozen microseconds of numpy dispatch per
    statement, more than the fused trigger kernel spends on a short run, so
    the engine hands such runs whole to the fused kernel.  Q3's interleaved
    Orders/Lineitem triggers do not commute: every run is a handful of
    events and the whole stream replays.
    """
    assert batching.DEFAULT_MIN_VECTOR_ROWS == 160

    program, static, events, reference = _scenario("Q3")
    engine, results = _run(program, static, events, 100)
    _assert_bit_identical(reference, results, "Q3 small runs")
    stats = engine.statistics()["batching"]
    worked = sum(
        1 for event in events
        if engine.plan.analysis(event.relation, event.sign).increments
    )
    assert stats["fallback_events"] == worked > 0
    assert stats["vector_events"] == 0
    assert stats["vector_fallbacks"] == {}

    # A run at the cutoff vectorizes; one event short of it replays.
    _, program = _custom_program(
        "SELECT r.grp, SUM(r.x) AS total FROM R r GROUP BY r.grp"
    )
    cutoff = batching.DEFAULT_MIN_VECTOR_ROWS
    for size, vectorized in ((cutoff - 1, 0), (cutoff, cutoff)):
        events = [insert("R", i, "ab"[i % 2], float(i), "s") for i in range(size)]
        engine, results = _run(program, {}, events, size)
        _assert_bit_identical(_reference(program, {}, events), results, f"run of {size}")
        assert engine.statistics()["batching"]["vector_events"] == vectorized


# ---------------------------------------------------------------------------
# Regime fallbacks
# ---------------------------------------------------------------------------


@needs_numpy
def test_int64_overflow_mid_stream_falls_back_per_batch(vector_everywhere):
    sql = "SELECT r.grp, SUM(r.x) AS total FROM R r GROUP BY r.grp"
    _, program = _custom_program(sql)
    events = [insert("R", i, "a", 10) for i in range(4)]
    # Above 2**53 int64 holds the values but float64 cannot represent them
    # exactly; above 2**63 numpy cannot even build the int64 column.
    events += [insert("R", 10 + i, "a", 2**60 + i) for i in range(4)]
    events += [insert("R", 20 + i, "a", 2**70 + i) for i in range(4)]
    events = [
        insert(e.relation, *e.values, "s") for e in events
    ]
    _, program = _custom_program(sql)
    reference = _reference(program, {}, events)
    engine, results = _run(program, {}, events, 4)
    _assert_bit_identical(reference, results, "int overflow")
    total = results["T_total"][("a",)]
    assert type(total) is int and total == 40 + 4 * 2**60 + 4 * 2**70 + 12
    fallbacks = engine.statistics()["batching"]["vector_fallbacks"]
    assert "int-magnitude" in fallbacks
    assert "int-overflow" in fallbacks
    # The in-regime prefix still vectorized before the stream went hot.
    assert engine.statistics()["batching"]["vector_events"] >= 4


@needs_numpy
def test_fraction_batches_never_vectorize(vector_everywhere):
    _, program = _custom_program(
        "SELECT r.grp, SUM(r.x) AS total FROM R r GROUP BY r.grp"
    )
    events = [
        insert("R", i, "a", Fraction(1, 3) if i % 2 else Fraction(i, 7), "s")
        for i in range(12)
    ]
    reference = _reference(program, {}, events)
    engine, results = _run(program, {}, events, 4)
    _assert_bit_identical(reference, results, "fractions")
    stats = engine.statistics()["batching"]
    assert stats["vector_events"] == 0
    assert "mixed-column" in stats["vector_fallbacks"]
    assert type(results["T_total"][("a",)]) is Fraction


@needs_numpy
def test_string_guards_vectorize_with_identical_results(vector_everywhere):
    _, program = _custom_program(
        "SELECT SUM(r.x) AS total FROM R r WHERE r.s = 'keep'"
    )
    events = [
        insert("R", i, "g", float(i), "keep" if i % 3 else "drop")
        for i in range(30)
    ]
    reference = _reference(program, {}, events)
    engine, results = _run(program, {}, events, 10)
    _assert_bit_identical(reference, results, "string guards")
    assert engine.statistics()["batching"]["vector_events"] == 30


@needs_numpy
def test_deletes_fold_and_stay_bit_identical(vector_everywhere):
    _, program = _custom_program(
        "SELECT r.grp, SUM(r.x) AS total FROM R r GROUP BY r.grp"
    )
    events = []
    for i in range(20):
        events.append(insert("R", i, "a" if i % 2 else "b", i + 1, "s"))
    for i in range(0, 20, 3):
        events.append(delete("R", i, "a" if i % 2 else "b", i + 1, "s"))
    reference = _reference(program, {}, events)
    engine, results = _run(program, {}, events, 8)
    _assert_bit_identical(reference, results, "deletes")


@needs_numpy
def test_one_kernel_falling_back_sends_the_whole_run_to_fused_code(vector_everywhere):
    """Vectorization is all or nothing per run.

    The sixth of the eleven sinks of Q1's one Lineitem:+ kernel leaves the
    regime for one run, after the five before it built their write lists:
    none of those may be committed.  The whole run goes to the fused kernel,
    the fallback counts once, and ``vector_events`` excludes the run.
    """
    program, static, events, _ = _scenario("Q1")
    expected = _replay(CompiledEngine(program), program, static, events)
    control, _ = _run(program, static, events, 100)

    engine = BatchedEngine(program, batch_size=100)
    analysis = engine.plan.analysis("Lineitem", 1)
    kernel = analysis.vector_kernel.bind(engine.maps, engine.database)
    assert len(kernel.spec.sinks) == len(analysis.increments) == 11
    original, failed = kernel._fn, []

    class Unreadable:
        """Sink values whose conversion to an array leaves the regime."""

        def __array__(self, *args, **kwargs):
            raise vector.VectorFallback("forced")

    def fail_once(batch):
        pairs = original(batch)
        if failed:
            return pairs
        failed.append(batch.n)
        mask, _ = pairs[5]
        return (*pairs[:5], (mask, Unreadable()), *pairs[6:])

    kernel._fn = fail_once
    results = _replay(engine, program, static, events)
    _assert_bit_identical(expected, results, "Q1 forced fallback")
    stats = engine.statistics()["batching"]
    assert stats["vector_fallbacks"] == {"forced": 1}
    vectorized = control.statistics()["batching"]["vector_events"]
    assert failed and stats["vector_events"] == vectorized - failed[0]


# ---------------------------------------------------------------------------
# Sink write lists against the scalar add chains they replay
# ---------------------------------------------------------------------------


def _chain_writes(rows, pairs, tables, sinks):
    """The loop reference: sink by sink, key by key, each chain left to right.

    Keys are visited in order of first appearance in the run (the order the
    vector path sorts segments in), so the first violation found is the one
    the vector path must report; writes list keys in first-use order.
    """
    limit, eps = float(2**53), 1e-12

    def seed(stored):
        if stored is None:
            return 0.0
        if type(stored) in (int, float):
            if not -(2**53) < stored < 2**53:
                raise vector.VectorFallback("seed-magnitude")
            return float(stored)
        raise vector.VectorFallback("seed-type")

    out = []
    for (mask, acc), table, (_, positions) in zip(pairs, tables, sinks):
        deltas = [float(acc)] * len(rows) if isinstance(acc, float) else [float(d) for d in acc]
        if not all(abs(d) < limit for d in deltas):
            raise vector.VectorFallback("magnitude")
        first_seen = {}
        for row in rows:
            first_seen.setdefault(tuple(row[p] for p in positions), len(first_seen))
        chains = {}
        for i, row in enumerate(rows):
            if mask is None or mask[i]:
                chains.setdefault(tuple(row[p] for p in positions), []).append(deltas[i])
        totals = {}
        in_order = sorted(chains, key=first_seen.get)
        if positions and len(chains) > 64:
            if any(len(chain) > 1 for chain in chains.values()):
                raise vector.VectorFallback("segments")
            seeds = {key: seed(table.primary.get(key)) for key in in_order}
            for key in in_order:
                totals[key] = seeds[key] + chains[key][0]
            if not all(abs(total) < limit for total in totals.values()):
                raise vector.VectorFallback("magnitude")
        else:
            for key in in_order:
                partial, partials = seed(table.primary.get(key)), []
                for delta in chains[key]:
                    partial += delta
                    partials.append(partial)
                if not all(abs(p) < limit for p in partials):
                    raise vector.VectorFallback("magnitude")
                if any(abs(p) <= eps for p in partials[:-1]):
                    raise vector.VectorFallback("interzero")
                totals[key] = partials[-1]
        out.append([(key, totals[key]) for key in chains])
    return out


def _outcome(compute, *args):
    try:
        return repr(compute(*args))  # repr: -0.0 and 0.0 differ
    except vector.VectorFallback as exc:
        return f"fallback {exc}"


@needs_numpy
@pytest.mark.parametrize("seed", range(4))
def test_shared_sink_layouts_match_the_scalar_chains(seed):
    """Random sinks sharing masks and key positions; seeds, deltas and key
    counts reach every fallback (2**53, interior zeros, seed types, more
    than 64 keys) and skewed layouts, whose grid is mostly padding."""
    import random

    import numpy as np

    rng = random.Random(seed)
    reasons = set()
    for _ in range(250):
        n = rng.choice([1, 2, 5, 20, 70, 150])
        keys = rng.choice([1, 2, 5, 70, 200])
        rows = [(rng.randrange(keys), rng.choice("ab"), rng.randrange(3)) for _ in range(n)]
        if keys > 64 and rng.random() < 0.5:
            rows = [(i, "a", 0) for i in range(n)]
        elif rng.random() < 0.2:  # one key takes nearly every row
            rows = [(0, "a", 0) if i % 16 else row for i, row in enumerate(rows)]
        masks = [None] + [np.array([rng.random() < p for _ in range(n)]) for p in (0.0, 0.5, 0.9)]
        pairs, tables, sinks = [], [], []
        for position in range(rng.randint(1, 6)):
            positions = rng.choice([(), (0,), (1, 0), (0, 2)])
            kind = rng.random()
            if kind < 0.15:
                acc = float(rng.choice([1, -1, 0.5, 0]))
            elif kind < 0.3:
                acc = np.array([rng.choice([1.0, -1.0]) for _ in range(n)])
            elif kind < 0.4:  # huge partials, some after an interior zero
                acc = np.array([rng.choice([1.0, -1.0, 2.0**52, 1.5 * 2.0**52]) for _ in range(n)])
            else:
                acc = np.array([rng.choice([1.0, 2.5, -3.0, 0.1, 7.0]) for _ in range(n)])
            table = IndexedTable(tuple(f"c{p}" for p in positions))
            for row in rows[: rng.randint(0, n)]:
                draw = rng.random()
                stored = (Fraction(1, 3) if draw < 0.03 else 2**60 if draw < 0.06
                          else rng.choice([1, -1, 2.5, 3]))
                table.set(tuple(row[p] for p in positions), stored)
            pairs.append((rng.choice(masks), acc))
            tables.append(table)
            sinks.append((f"M{position}", positions))
        got = _outcome(vector._sink_writes, vector.ColumnBatch(rows), tuple(pairs), tables, sinks)
        want = _outcome(_chain_writes, rows, pairs, tables, sinks)
        assert got == want
        reasons.add(want.split()[1] if want.startswith("fallback") else "ok")
    assert {"ok", "interzero", "magnitude", "seed-type"} <= reasons


# ---------------------------------------------------------------------------
# Checkpoint / restore mid-stream
# ---------------------------------------------------------------------------


@needs_numpy
def test_checkpoint_restore_mid_stream_keeps_identity(vector_everywhere):
    program, static, events, reference = _scenario("Q1")
    half = len(events) // 2
    first = BatchedEngine(program, batch_size=50)
    for relation, rows in static.items():
        first.load_static(relation, rows)
    for event in events[:half]:
        first.apply(event)
    first.flush()
    state = first.checkpoint_state()

    resumed = BatchedEngine(program, batch_size=50)
    resumed.restore_state(state)
    for event in events[half:]:
        resumed.apply(event)
    resumed.flush()
    results = {root: resumed.result_dict(root) for root in program.roots}
    _assert_bit_identical(reference, results, "Q1 checkpoint/restore")
    assert resumed.statistics()["batching"]["vector_events"] > 0


# ---------------------------------------------------------------------------
# numpy-optional behaviour
# ---------------------------------------------------------------------------


def test_missing_numpy_downgrades_with_reason(monkeypatch):
    monkeypatch.setattr(vector, "np", None)
    monkeypatch.setattr(vector, "_NUMPY_REASON", "numpy unavailable (test)")
    _, program = _custom_program(
        "SELECT r.grp, SUM(r.x) AS total FROM R r GROUP BY r.grp"
    )
    engine = BatchedEngine(program, batch_size=4)
    assert engine.vector_reason == "numpy unavailable (test)"
    for i in range(8):
        engine.apply(insert("R", i, "a", i, "s"))
    engine.flush()
    assert engine.result_dict() == {("a",): 28}
    stats = engine.statistics()["batching"]
    assert stats["vector_reason"] == "numpy unavailable (test)"
    assert stats["vector_events"] == 0


def test_missing_numpy_surfaces_in_describe(monkeypatch):
    monkeypatch.setattr(vector, "np", None)
    monkeypatch.setattr(vector, "_NUMPY_REASON", "numpy unavailable (test)")
    from repro.codegen.describe import describe_program

    _, program = _custom_program("SELECT SUM(r.x) AS total FROM R r")
    doc = describe_program(program)
    assert doc["summary"]["vectorized_statements"] == 0
    statement = doc["triggers"][0]["statements"][0]
    assert statement["vectorized"] is False
    assert statement["vector_reason"] == "numpy unavailable (test)"


def test_repro_no_numpy_env_disables_backend():
    """The CI no-numpy leg's switch: REPRO_NO_NUMPY blocks the import."""
    code = (
        "from repro.codegen import vector; "
        "assert not vector.numpy_available(); "
        "assert 'REPRO_NO_NUMPY' in (vector.vector_unavailable_reason() or ''), "
        "vector.vector_unavailable_reason()"
    )
    env = dict(os.environ, REPRO_NO_NUMPY="1")
    src = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


# ---------------------------------------------------------------------------
# Introspection and service plumbing
# ---------------------------------------------------------------------------


@needs_numpy
def test_describe_reports_vector_status():
    from repro.codegen.describe import describe_program

    _, _, program = _workload_program("Q6")
    doc = describe_program(program)
    assert doc["summary"]["vectorized_statements"] == 2
    _, _, q3 = _workload_program("Q3")
    doc = describe_program(q3)
    reasons = {
        s["vector_reason"]
        for t in doc["triggers"]
        for s in t["statements"]
        if not s["vectorized"]
    }
    assert reasons, "Q3 has statements the vector emitter cannot lower"


def test_one_vectorization_decision_per_trigger():
    """``describe``, its summary and the run policy read the engine's kernel.

    Each trigger of each workload query has one vector-kernel compile
    attempt; ``describe_program``'s per-trigger ``vectorized``, its
    ``vectorized_statements`` count and ``BatchPlan.describe``'s policy line
    must all agree with it, bulk safety included.
    """
    from repro.codegen.describe import describe_program

    vectorizing = 0
    for name in sorted(all_workloads()):
        _, _, program = _workload_program(name)
        plan = batching.BatchPlan(program)
        doc = describe_program(program)
        policies = {entry["trigger"]: entry["policy"] for entry in plan.describe()}
        covered = 0
        for trigger in doc["triggers"]:
            analysis = plan.analysis(
                trigger["relation"], 1 if trigger["op"] == "insert" else -1
            )
            kernel = analysis.vector_kernel
            assert trigger["vectorized"] is (kernel is not None), (name, analysis.name)
            policy = policies.get(analysis.name, "")
            if kernel is None:
                assert "vector" not in policy, (name, analysis.name, policy)
                continue
            assert analysis.safe, (name, analysis.name)
            assert len(kernel.sinks) == len(analysis.increments)
            vectorizing += 1
            covered += len(kernel.sinks)
            if not analysis.always_bulk:
                assert policy.startswith(f"vector ×{len(kernel.sinks)} statements"), policy
        assert doc["summary"]["vectorized_statements"] == covered, name
    assert vectorizing == (20 if vector.numpy_available() else 0)


@needs_numpy
def test_codegen_dump_vector_backend_cli(capsys):
    from repro.codegen.__main__ import main

    assert main(["dump", "Q6", "--backend", "vector"]) == 0
    out = capsys.readouterr().out
    assert "statements vectorized" in out
    assert "_vkernel" in out
    # One kernel per trigger: Q1's eleven-statement Lineitem:+ and Lineitem:-.
    assert main(["dump", "Q1", "--backend", "vector"]) == 0
    assert capsys.readouterr().out.count("def _vkernel") == 2


@needs_numpy
def test_service_mode_accepts_vector_backend_as_a_noop():
    """``serve --engine batched --backend vector`` must keep starting; the
    name is not an executor, so the partitioned mode still rejects it."""
    from repro.service.core import engine_for_mode

    _, program = _custom_program("SELECT SUM(r.x) AS total FROM R r")
    engine = engine_for_mode(program, mode="batched", batch_size=8, backend="vector")
    assert isinstance(engine, BatchedEngine)
    assert engine.vector_reason is None
    with pytest.raises(ExecutionError):
        engine_for_mode(program, mode="partitioned", backend="vector")


# ---------------------------------------------------------------------------
# set_total: the vector sink's write primitive
# ---------------------------------------------------------------------------


def test_set_total_preserves_index_bucket_order():
    table = IndexedTable(("a", "b"))
    index_cols = frozenset({"a"})
    table.index_for(index_cols)
    first = (1, 1)
    second = (1, 2)
    table.add(first, 10)
    table.add(second, 20)

    def bucket_order():
        bucket = table.index_for(index_cols)[1]
        return list(bucket)

    before = bucket_order()
    table.set_total(first, 11)
    assert bucket_order() == before, "set_total must update in place"
    assert dict(table.items())[first] == 11
    # set() by contrast pops and re-appends, reordering the bucket — the
    # divergence that made the vector sink grow its own write primitive.
    table.set(first, 12)
    assert bucket_order() == [second, first]


def test_set_total_deletes_on_zero_and_skips_noops():
    table = IndexedTable(("a",))
    row = (1,)
    table.add(row, 5)
    epoch = table.write_epoch
    table.set_total(row, 5)
    assert table.write_epoch == epoch, "same value+type must not bump the epoch"
    table.set_total(row, 0.0)
    assert row not in dict(table.items())
