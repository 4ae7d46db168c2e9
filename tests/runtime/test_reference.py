"""Tests for the reference (oracle / DBX-SPY stand-in) engine."""

import pytest

from repro.agca.builders import agg, cmp, lift, prod, rel, val, vmul
from repro.agca.evaluator import DictSource, Evaluator
from repro.core.gmr import GMR
from repro.delta.events import delete, insert
from repro.errors import EvaluationError, RuntimeEngineError
from repro.runtime.reference import ReferenceEngine, evaluate_reference


def join_query():
    return agg((), prod(rel("R", "a", "b"), rel("S", "b", "c"), val(vmul("a", "c"))))


def test_reference_engine_recomputes_after_each_event():
    engine = ReferenceEngine(join_query(), {"R": ("a", "b"), "S": ("b", "c")}, name="Q")
    engine.apply(insert("R", 2, 1))
    assert engine.scalar_result() == 0
    engine.apply(insert("S", 1, 10))
    assert engine.scalar_result() == 20
    engine.apply(delete("R", 2, 1))
    assert engine.scalar_result() == 0
    assert engine.events_processed == 3


def test_reference_engine_grouped_result():
    query = agg(("b",), prod(rel("R", "a", "b"), rel("S", "b", "c")))
    engine = ReferenceEngine(query, {"R": ("a", "b"), "S": ("b", "c")})
    engine.apply(insert("R", 1, 7))
    engine.apply(insert("S", 7, 3))
    engine.apply(insert("S", 7, 4))
    assert engine.result_dict() == {(7,): 2}
    assert engine.view()[{"b": 7}] == 2


def test_reference_engine_multiple_queries_need_explicit_name():
    queries = {"Q1": agg((), rel("R", "a", "b")), "Q2": agg(("a",), rel("R", "a", "b"))}
    engine = ReferenceEngine(queries, {"R": ("a", "b")})
    engine.apply(insert("R", 1, 2))
    assert engine.scalar_result("Q1") == 1
    with pytest.raises(RuntimeEngineError):
        engine.scalar_result()


def test_reference_engine_rejects_unknown_relation_and_arity():
    engine = ReferenceEngine(join_query(), {"R": ("a", "b"), "S": ("b", "c")})
    with pytest.raises(RuntimeEngineError):
        engine.apply(insert("T", 1))
    with pytest.raises(RuntimeEngineError):
        engine.apply(insert("R", 1))


def test_reference_engine_static_load_and_memory():
    engine = ReferenceEngine(join_query(), {"R": ("a", "b"), "S": ("b", "c")})
    assert engine.load_static("S", [(1, 5), (2, 6)]) == 2
    engine.apply(insert("R", 3, 1))
    assert engine.scalar_result() == 15
    assert engine.memory_bytes() > 0


def test_evaluate_reference_rejects_map_references():
    from repro.agca.builders import mapref

    with pytest.raises(EvaluationError):
        evaluate_reference(mapref("M", "k"), {})


def test_reference_agrees_with_main_evaluator_on_nested_query():
    # Independent implementations of the semantics must agree.
    nested = lift("z", agg((), prod(rel("S", "b2", "c"), cmp("b2", "=", "b"), val("c"))))
    query = agg(("a",), prod(rel("R", "a", "b"), nested, cmp("b", "<", "z")))
    rows_r = [{"a": 1, "b": 2}, {"a": 2, "b": 5}, {"a": 3, "b": 2}]
    rows_s = [{"b": 2, "c": 9}, {"b": 5, "c": 1}, {"b": 2, "c": 4}]

    source = DictSource(
        relations={"R": GMR.from_rows(rows_r), "S": GMR.from_rows(rows_s)},
        schemas={"R": ("a", "b"), "S": ("b", "c")},
    )
    expected = Evaluator(source).evaluate(query)

    engine = ReferenceEngine(query, {"R": ("a", "b"), "S": ("b", "c")})
    for row in rows_r:
        engine.apply(insert("R", row["a"], row["b"]))
    for row in rows_s:
        engine.apply(insert("S", row["b"], row["c"]))
    assert engine.view() == expected
