"""Tests for the per-figure benchmark scenarios (small parameters)."""

import pytest

from repro.bench.scenarios import (
    run_ablation,
    run_refresh_rate_table,
    run_scaling,
    run_trace_figure,
    workload_feature_table,
)
from repro.bench.strategies import STRATEGIES, build_engine
from repro.errors import BenchmarkError
from repro.runtime.factory import STRATEGY_PRESETS, engine_for_strategy
from repro.workloads import workload


def test_refresh_rate_table_small_run():
    results = run_refresh_rate_table(
        queries=["Q6", "VWAP"],
        strategies=("dbtoaster", "ivm"),
        events=120,
        max_seconds_per_run=2.0,
    )
    assert set(results) == {"Q6", "VWAP"}
    for per_query in results.values():
        assert set(per_query) == {"dbtoaster", "ivm"}
        assert all(r.events_processed > 0 for r in per_query.values())


def test_trace_figure_small_run():
    traces = run_trace_figure("Q3", strategies=("dbtoaster",), events=150, samples=5)
    assert set(traces) == {"dbtoaster"}
    assert len(traces["dbtoaster"].points) >= 3


def test_scaling_scenario_small_run():
    results = run_scaling(queries=("Q6",), scales=(0.5, 1.0), events_per_scale_unit=100)
    assert set(results) == {"Q6"}
    assert set(results["Q6"]) == {0.5, 1.0}


def test_workload_feature_table_includes_compiler_summary():
    table = workload_feature_table(["Q3"])
    assert table["Q3"]["maps"] > 0
    assert "statements" in table["Q3"]


def test_ablation_variants_run_and_stay_correct():
    results = run_ablation(
        "Q3",
        variants={"full": {}, "no-decomposition": {"decomposition": False}},
        events=150,
        max_seconds_per_run=2.0,
    )
    assert set(results) == {"full", "no-decomposition"}


def test_build_engine_knows_all_documented_strategies():
    spec = workload("Q6")
    translated = spec.query_factory()
    for strategy in STRATEGIES:
        assert build_engine(strategy, translated) is not None
    with pytest.raises(BenchmarkError):
        build_engine("unknown", translated)


@pytest.mark.parametrize("query", ["Q3", "VWAP"])
def test_bench_and_runtime_build_the_same_program_per_strategy(query):
    """One strategy table: a preset named in both places is the same program."""
    assert set(STRATEGY_PRESETS) <= set(STRATEGIES)
    translated = workload(query).query_factory()
    for strategy in STRATEGY_PRESETS:
        bench = build_engine(strategy, translated)
        runtime = engine_for_strategy(
            strategy,
            translated.roots(),
            translated.schemas(),
            static_relations=translated.static_relations(),
        )
        assert type(bench) is type(runtime), strategy
        assert bench.program.statement_count() == runtime.program.statement_count()
        assert bench.program.map_count() == runtime.program.map_count()
