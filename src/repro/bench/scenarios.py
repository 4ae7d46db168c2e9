"""One entry point per paper table/figure (the experiment index of DESIGN.md).

Every scenario takes explicit size parameters, so the same code drives the
tiny runs of the test suite and larger standalone runs from the command line
(``python -m repro.bench``).
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from repro.bench.harness import RunResult, TraceResult, measure_refresh_rate, run_trace
from repro.bench.strategies import build_engine, custom_options_engine
from repro.compiler.hoivm import compile_query
from repro.workloads import all_workloads, workload

#: Strategy columns of the Figure 6/7 table, in the paper's order.
DEFAULT_STRATEGIES: tuple[str, ...] = (
    "rep",
    "dbx-rep",
    "dbx-ivm",
    "spy",
    "dbtoaster",
    "naive",
    "ivm",
)

#: TPC-H subset used for the scaling experiment (Figure 11).
SCALING_QUERIES: tuple[str, ...] = ("Q1", "Q3", "Q4", "Q6", "Q11a", "Q12", "Q17a", "Q18a")


# ---------------------------------------------------------------------------
# Figures 6 and 7: refresh-rate comparison across strategies
# ---------------------------------------------------------------------------


def run_refresh_rate_table(
    queries: Iterable[str] | None = None,
    strategies: Sequence[str] = DEFAULT_STRATEGIES,
    events: int = 1500,
    max_seconds_per_run: float = 5.0,
    seed: int = 7,
    engine_config: Mapping[str, object] | None = None,
) -> dict[str, dict[str, RunResult]]:
    """Average refresh rate per query and strategy (Figures 6 and 7).

    ``engine_config`` forwards execution parameters (``batch_size``,
    ``partitions``, ``backend``) to the strategies that understand them
    (the ``dbtoaster-batch`` / ``dbtoaster-par`` scale-out modes).
    """
    names = list(queries) if queries is not None else sorted(all_workloads())
    config = dict(engine_config or {})
    results: dict[str, dict[str, RunResult]] = {}
    for name in names:
        spec = workload(name)
        agenda, static = spec.prepare(events, seed)
        translated = spec.query_factory()
        per_query: dict[str, RunResult] = {}
        for strategy in strategies:
            engine = build_engine(strategy, translated, **config)
            try:
                per_query[strategy] = measure_refresh_rate(
                    engine,
                    agenda,
                    static,
                    max_seconds=max_seconds_per_run,
                    strategy=strategy,
                    query=name,
                )
            finally:
                engine.close()
        results[name] = per_query
    return results


# ---------------------------------------------------------------------------
# Figures 8-10 (and 13-18): per-query traces
# ---------------------------------------------------------------------------


def run_trace_figure(
    query: str,
    strategies: Sequence[str] = ("dbtoaster", "ivm"),
    events: int = 2000,
    samples: int = 20,
    max_seconds_per_run: float = 10.0,
    seed: int = 7,
) -> dict[str, TraceResult]:
    """Time / refresh-rate / memory traces for one query (Figures 8-10, 13-18)."""
    spec = workload(query)
    agenda, static = spec.prepare(events, seed)
    translated = spec.query_factory()
    traces: dict[str, TraceResult] = {}
    for strategy in strategies:
        engine = build_engine(strategy, translated)
        traces[strategy] = run_trace(
            engine,
            agenda,
            static,
            samples=samples,
            max_seconds=max_seconds_per_run,
            strategy=strategy,
            query=query,
        )
    return traces


# ---------------------------------------------------------------------------
# Figure 11: stream scalability
# ---------------------------------------------------------------------------


def run_scaling(
    queries: Sequence[str] = SCALING_QUERIES,
    scales: Sequence[float] = (1.0, 2.0, 5.0, 10.0),
    events_per_scale_unit: int = 800,
    max_seconds_per_run: float = 10.0,
    seed: int = 7,
) -> dict[str, dict[float, RunResult]]:
    """Refresh rate as the stream grows with the scale factor (Figure 11)."""
    results: dict[str, dict[float, RunResult]] = {}
    for name in queries:
        spec = workload(name)
        translated = spec.query_factory()
        per_scale: dict[float, RunResult] = {}
        for scale in scales:
            events = int(events_per_scale_unit * scale)
            agenda, static = spec.prepare(events, seed, scale)
            engine = build_engine("dbtoaster", translated)
            per_scale[scale] = measure_refresh_rate(
                engine,
                agenda,
                static,
                max_seconds=max_seconds_per_run,
                strategy="dbtoaster",
                query=name,
            )
        results[name] = per_scale
    return results


# ---------------------------------------------------------------------------
# Per-map / per-partition statistics
# ---------------------------------------------------------------------------


def run_engine_statistics(
    query: str,
    strategy: str = "dbtoaster",
    events: int = 1000,
    seed: int = 7,
    engine_config: Mapping[str, object] | None = None,
) -> dict[str, object]:
    """Replay a stream and collect per-map / per-partition statistics."""
    spec = workload(query)
    agenda, static = spec.prepare(events, seed)
    translated = spec.query_factory()
    engine = build_engine(strategy, translated, **dict(engine_config or {}))
    try:
        for relation, rows in static.items():
            engine.load_static(relation, rows)
        for event in agenda:
            engine.apply(event)
        engine.flush()
        if hasattr(engine, "statistics"):
            return engine.statistics()
        return {"memory_bytes": engine.memory_bytes()}
    finally:
        engine.close()


# ---------------------------------------------------------------------------
# Figure 2: workload features / applied rewrites
# ---------------------------------------------------------------------------


def workload_feature_table(queries: Iterable[str] | None = None) -> dict[str, dict[str, object]]:
    """Query features plus compiled-program statistics (Figure 2)."""
    names = list(queries) if queries is not None else sorted(all_workloads())
    table: dict[str, dict[str, object]] = {}
    for name in names:
        spec = workload(name)
        translated = spec.query_factory()
        program = compile_query(
            translated.roots(),
            translated.schemas(),
            static_relations=translated.static_relations(),
        )
        row: dict[str, object] = dict(spec.features or {})
        row.update(program.summary())
        table[name] = row
    return table


# ---------------------------------------------------------------------------
# Ablations: effect of individual compiler heuristics
# ---------------------------------------------------------------------------

ABLATION_VARIANTS: Mapping[str, Mapping[str, object]] = {
    "full": {},
    "no-decomposition": {"decomposition": False},
    "no-range-extraction": {"extract_ranges": False},
    "no-factorization": {"factorization": False},
    "no-dedup": {"dedup": False},
    "nested-incremental": {"nested_strategy": "incremental"},
    "nested-reeval": {"nested_strategy": "reeval"},
}


def run_ablation(
    query: str,
    variants: Mapping[str, Mapping[str, object]] = ABLATION_VARIANTS,
    events: int = 1200,
    max_seconds_per_run: float = 5.0,
    seed: int = 7,
) -> dict[str, RunResult]:
    """Refresh rate of one query under individual heuristic ablations."""
    spec = workload(query)
    agenda, static = spec.prepare(events, seed)
    translated = spec.query_factory()
    results: dict[str, RunResult] = {}
    for label, overrides in variants.items():
        engine = custom_options_engine(translated, overrides)
        results[label] = measure_refresh_rate(
            engine,
            agenda,
            static,
            max_seconds=max_seconds_per_run,
            strategy=label,
            query=query,
        )
    return results
