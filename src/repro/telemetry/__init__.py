"""Unified observability for the view-maintenance stack.

One :class:`~repro.telemetry.core.MetricRegistry` collects every layer's
signals — per-trigger latency histograms, map probe counters, codegen
fallback hits, batching/partitioning timings, service staleness — and exposes
them as Prometheus text, a JSON snapshot, or through the
``python -m repro.telemetry`` CLI.  :mod:`repro.telemetry.trace` adds
span-style tracing of the event pipeline into a rotating JSONL sink.
:data:`STATS_SCHEMA` tags every engine's ``statistics()`` document (the shape
is documented beside it in :mod:`repro.runtime.protocol`).

Disabled (the default) costs nothing: instruments are shared no-op
singletons and instrumented hot paths reduce to a single ``None`` check.
Enable per engine (``telemetry=Telemetry(enabled=True)``), per process
(:func:`configure`), or via the ``REPRO_TELEMETRY`` environment variable.
"""

from repro.telemetry.core import (
    COUNT_BOUNDS,
    LATENCY_BOUNDS,
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricRegistry,
    NullRegistry,
    Telemetry,
    TELEMETRY_ENV,
    configure,
    current,
    reset,
)
from repro.runtime.protocol import STATS_SCHEMA
from repro.telemetry.trace import (
    JsonlTraceSink,
    NULL_SPAN,
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
)

__all__ = [
    "COUNT_BOUNDS",
    "LATENCY_BOUNDS",
    "NULL_REGISTRY",
    "NULL_SPAN",
    "NULL_TRACER",
    "Counter",
    "Gauge",
    "Histogram",
    "JsonlTraceSink",
    "MetricRegistry",
    "NullRegistry",
    "NullTracer",
    "STATS_SCHEMA",
    "Span",
    "TELEMETRY_ENV",
    "Telemetry",
    "Tracer",
    "configure",
    "current",
    "reset",
]
