"""Measurement primitives: refresh rates, traces, memory.

The paper reports, per query and strategy, the *average view refresh rate*
(complete view refreshes per second, i.e. events processed per second since
every event refreshes the views) over a stream replayed with a wall-clock
timeout, plus per-query traces of cumulative time, instantaneous refresh rate
and memory versus the fraction of the stream processed.  The helpers here
compute exactly those quantities for any engine exposing ``apply`` /
``flush`` / ``load_static`` / ``memory_bytes`` (the per-event engines' and
the reference engine's ``flush`` is a no-op).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Sequence

from repro.streams.agenda import Agenda


@dataclass(frozen=True)
class RunResult:
    """Outcome of replaying (part of) a stream against one engine."""

    strategy: str
    query: str
    events_processed: int
    elapsed_seconds: float
    memory_bytes: int
    completed: bool

    @property
    def refresh_rate(self) -> float:
        """Complete view refreshes per second (events per second)."""
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.events_processed / self.elapsed_seconds


@dataclass(frozen=True)
class TracePoint:
    """One sample of a per-query trace (Figures 8-10 and 13-18)."""

    fraction: float
    cumulative_seconds: float
    window_refresh_rate: float
    memory_bytes: int


@dataclass
class TraceResult:
    """A full trace for one engine on one stream."""

    strategy: str
    query: str
    points: list[TracePoint] = field(default_factory=list)
    completed: bool = True

    @property
    def total_seconds(self) -> float:
        """Cumulative processing time at the last sample."""
        return self.points[-1].cumulative_seconds if self.points else 0.0


def load_static_tables(engine: Any, static: Mapping[str, Iterable[Sequence[Any]]]) -> None:
    """Load static tables into an engine (ignoring tables it does not know)."""
    for relation, rows in static.items():
        engine.load_static(relation, rows)


def measure_refresh_rate(
    engine: Any,
    agenda: Agenda | Sequence,
    static: Mapping[str, Iterable[Sequence[Any]]] | None = None,
    max_seconds: float | None = None,
    max_events: int | None = None,
    strategy: str = "",
    query: str = "",
) -> RunResult:
    """Replay ``agenda`` against ``engine`` and measure the average refresh rate.

    ``max_seconds`` mirrors the paper's replay timeout: slow strategies are cut
    off after the budget and their rate is computed over what they managed to
    process (``completed`` records whether the whole stream was consumed).
    """
    if static:
        load_static_tables(engine, static)
    events = list(agenda)
    if max_events is not None:
        events = events[:max_events]
    processed = 0
    start = time.perf_counter()
    deadline = start + max_seconds if max_seconds is not None else None
    # Buffered engines (batched / partitioned) accept events without doing the
    # work yet, which would let the dispatch loop outrun the deadline and leave
    # an unbounded flush for the end.  Under a budget, force a flush every so
    # often so the deadline check observes real work (the cadence is above the
    # default sweep's largest batch size, so folding is not distorted).
    flush_every = 2048 if deadline is not None else None
    for event in events:
        engine.apply(event)
        processed += 1
        if flush_every is not None and processed % flush_every == 0:
            engine.flush()
        if deadline is not None and time.perf_counter() >= deadline:
            break
    # Pending work must finish inside the timed region, otherwise a buffered
    # engine's rate would be overstated.
    engine.flush()
    elapsed = time.perf_counter() - start
    memory = engine.memory_bytes()
    return RunResult(
        strategy=strategy,
        query=query,
        events_processed=processed,
        elapsed_seconds=elapsed,
        memory_bytes=memory,
        completed=processed == len(events),
    )


def run_trace(
    engine: Any,
    agenda: Agenda | Sequence,
    static: Mapping[str, Iterable[Sequence[Any]]] | None = None,
    samples: int = 20,
    max_seconds: float | None = None,
    strategy: str = "",
    query: str = "",
) -> TraceResult:
    """Replay a stream and sample time / refresh rate / memory at regular points."""
    if static:
        load_static_tables(engine, static)
    events = list(agenda)
    total = len(events)
    trace = TraceResult(strategy=strategy, query=query)
    if total == 0:
        return trace
    window = max(1, total // max(1, samples))
    processed = 0
    cumulative = 0.0
    start_overall = time.perf_counter()
    while processed < total:
        chunk = events[processed : processed + window]
        chunk_start = time.perf_counter()
        for event in chunk:
            engine.apply(event)
        engine.flush()
        chunk_elapsed = time.perf_counter() - chunk_start
        cumulative += chunk_elapsed
        processed += len(chunk)
        memory = engine.memory_bytes()
        trace.points.append(
            TracePoint(
                fraction=processed / total,
                cumulative_seconds=cumulative,
                window_refresh_rate=len(chunk) / chunk_elapsed if chunk_elapsed > 0 else 0.0,
                memory_bytes=memory,
            )
        )
        if max_seconds is not None and time.perf_counter() - start_overall >= max_seconds:
            trace.completed = processed >= total
            break
    return trace
