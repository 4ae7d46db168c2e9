"""Tests for the measurement harness."""

from repro.agca.builders import agg, prod, rel
from repro.bench.harness import measure_refresh_rate, run_trace
from repro.compiler.hoivm import compile_query
from repro.delta.events import insert
from repro.runtime.engine import IncrementalEngine
from repro.streams.agenda import Agenda

SCHEMAS = {"R": ("a",), "S": ("b",)}


def make_engine():
    return IncrementalEngine(compile_query(agg((), prod(rel("R", "a"), rel("S", "b"))), SCHEMAS, name="Q"))


def make_agenda(n=60):
    agenda = Agenda()
    for i in range(n):
        agenda.append(insert("R" if i % 2 else "S", i))
    return agenda


def test_measure_refresh_rate_processes_whole_stream():
    result = measure_refresh_rate(make_engine(), make_agenda(), strategy="dbtoaster", query="Q")
    assert result.completed
    assert result.events_processed == 60
    assert result.refresh_rate > 0
    assert result.memory_bytes > 0
    assert result.strategy == "dbtoaster" and result.query == "Q"


def test_measure_refresh_rate_respects_event_cap():
    result = measure_refresh_rate(make_engine(), make_agenda(), max_events=10)
    assert result.events_processed == 10
    assert result.completed


def test_measure_refresh_rate_timeout_marks_incomplete():
    class SlowEngine:
        def apply(self, event):
            import time

            time.sleep(0.02)

        def flush(self):
            pass

        def memory_bytes(self):
            return 0

    result = measure_refresh_rate(SlowEngine(), make_agenda(100), max_seconds=0.1)
    assert not result.completed
    assert result.events_processed < 100


def test_run_trace_samples_points():
    trace = run_trace(make_engine(), make_agenda(80), samples=8, strategy="dbtoaster", query="Q")
    assert trace.completed
    assert len(trace.points) >= 8
    assert trace.points[-1].fraction == 1.0
    assert trace.total_seconds > 0
    fractions = [p.fraction for p in trace.points]
    assert fractions == sorted(fractions)


def test_run_trace_empty_stream():
    trace = run_trace(make_engine(), Agenda(), samples=4)
    assert trace.points == [] and trace.total_seconds == 0.0


def test_static_tables_are_loaded_before_measurement():
    schemas = {"R": ("a",), "N": ("k",)}
    query = agg((), prod(rel("R", "a"), rel("N", "a")))
    program = compile_query(query, schemas, static_relations=("N",), name="Q")
    engine = IncrementalEngine(program)
    agenda = Agenda([insert("R", 1), insert("R", 2)])
    result = measure_refresh_rate(engine, agenda, static={"N": [(1,)]}, query="Q")
    assert result.completed
    assert engine.scalar_result("Q") == 1
