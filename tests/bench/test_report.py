"""Tests for benchmark report formatting."""

from repro.bench.harness import RunResult, TracePoint, TraceResult
from repro.bench.report import (
    format_feature_table,
    format_refresh_rate_table,
    format_scaling_table,
    format_speedup_summary,
    format_trace,
)


def result(strategy, query, events, seconds):
    return RunResult(strategy, query, events, seconds, memory_bytes=1024, completed=True)


def test_refresh_rate_table_contains_all_cells():
    results = {
        "Q1": {"dbtoaster": result("dbtoaster", "Q1", 1000, 0.1), "rep": result("rep", "Q1", 10, 1.0)},
        "Q2": {"dbtoaster": result("dbtoaster", "Q2", 500, 0.5)},
    }
    table = format_refresh_rate_table(results, ("dbtoaster", "rep"))
    assert "Q1" in table and "Q2" in table
    assert "10,000" in table  # 1000 events / 0.1 s
    assert "-" in table  # missing Q2/rep cell


def test_speedup_summary():
    results = {
        "Q1": {"dbtoaster": result("dbtoaster", "Q1", 1000, 1.0), "rep": result("rep", "Q1", 10, 1.0)}
    }
    text = format_speedup_summary(results, baseline="rep")
    assert "100.0x" in text


def test_trace_formatting():
    trace = TraceResult("dbtoaster", "Q3", [TracePoint(0.5, 1.0, 2000.0, 2048)], completed=False)
    text = format_trace(trace)
    assert "Q3" in text and "timed out" in text and "2000.0" in text


def test_scaling_table_is_relative_to_base():
    results = {
        "Q1": {
            1.0: result("dbtoaster", "Q1", 1000, 1.0),
            2.0: result("dbtoaster", "Q1", 900, 1.0),
        }
    }
    table = format_scaling_table(results, base_scale=1.0)
    assert "1.00" in table and "0.90" in table


def test_feature_table_lists_queries_and_columns():
    table = format_feature_table({"Q1": {"tables": 1, "join": "none", "maps": 11}})
    assert "Q1" in table and "tables" in table and "11" in table
