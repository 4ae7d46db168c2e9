"""Low-overhead metrics core: counters, gauges, histograms, one registry.

Design constraints, in priority order:

1. **Hot-path cost.**  The engine observes one latency sample per event; at
   fused rates (>1M events/s) every nanosecond shows up in the 5% overhead
   gate.  ``Histogram.observe`` is therefore three statements (a C-level
   ``bisect_right`` over shared precomputed bounds, plus two attribute
   increments) and instruments use ``__slots__``.
2. **Zero cost when disabled.**  A disabled :class:`Telemetry` hands out
   shared no-op singletons; instrumented hot paths additionally keep a
   ``None`` sentinel so the disabled branch is a single comparison and
   allocates nothing per event (see the no-op allocation test).
3. **One registry.**  Every layer registers into the same
   :class:`MetricRegistry`; cheap always-on integer counters that live inside
   data structures (map probes, fallback hits, queue lag) are pulled in at
   scrape time by *collector* callbacks instead of paying registry calls on
   the hot path.

Quantiles come from fixed log-scaled buckets (20 per decade, 100 ns .. 100 s)
with geometric interpolation inside the winning bucket, so p50/p90/p99 are
accurate to ~6% — plenty for profiling, and far cheaper than reservoirs.
"""

from __future__ import annotations

import os
import threading
import time
import weakref
from bisect import bisect_right
from typing import Any, Callable, Mapping

#: Log-scaled latency bucket bounds shared by every histogram: 20 buckets per
#: decade spanning 1e-7 s (100 ns) .. 1e2 s.  Shared so ``observe`` never
#: recomputes them and merged families line up bucket-for-bucket.
_DECADES = 9
_PER_DECADE = 20
_STEP = 1.0 / _PER_DECADE
LATENCY_BOUNDS: tuple[float, ...] = tuple(
    10.0 ** (-7.0 + i * _STEP) for i in range(_DECADES * _PER_DECADE + 1)
)
_BUCKET_FACTOR = 10.0 ** _STEP

#: Log-scaled bounds for count-valued histograms (batch sizes, queue depths):
#: 1 .. 1e6, same 20-per-decade resolution.
COUNT_BOUNDS: tuple[float, ...] = tuple(
    10.0 ** (i * _STEP) for i in range(6 * _PER_DECADE + 1)
)

#: Environment variable that switches the process-global telemetry on.
TELEMETRY_ENV = "REPRO_TELEMETRY"

LabelsLike = Mapping[str, str] | None
_Labels = tuple[tuple[str, str], ...]


def _freeze_labels(labels: LabelsLike) -> _Labels:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: _Labels = ()):
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """A point-in-time value (set, not accumulated)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: _Labels = ()):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """Fixed-bucket log-scaled histogram for latency quantiles.

    ``counts`` has one slot per bound plus a final overflow slot;
    ``counts[i]`` counts observations in ``(bounds[i-1], bounds[i]]``.
    """

    __slots__ = ("name", "labels", "_bounds", "counts", "count", "sum")

    def __init__(
        self, name: str, labels: _Labels = (), bounds: tuple[float, ...] = LATENCY_BOUNDS
    ):
        self.name = name
        self.labels = labels
        self._bounds = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        self.counts[bisect_right(self._bounds, value)] += 1
        self.count += 1
        self.sum += value

    @property
    def bounds(self) -> tuple[float, ...]:
        return self._bounds

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile (geometric interpolation in-bucket)."""
        return _bucket_quantile(self._bounds, self.counts, self.count, q)

    def merge_into(self, counts: list[int]) -> None:
        for i, c in enumerate(self.counts):
            counts[i] += c


def _bucket_quantile(
    bounds: tuple[float, ...], counts: list[int], total: int, q: float
) -> float:
    if total <= 0:
        return 0.0
    target = q * total
    cumulative = 0
    for i, bucket_count in enumerate(counts):
        if not bucket_count:
            continue
        before = cumulative
        cumulative += bucket_count
        if cumulative >= target:
            if i >= len(bounds):  # overflow bucket: clamp to the last bound
                return bounds[-1]
            hi = bounds[i]
            lo = bounds[i - 1] if i > 0 else hi / _BUCKET_FACTOR
            fraction = (target - before) / bucket_count
            return lo * (hi / lo) ** fraction
    return bounds[-1]


class _NullCounter:
    __slots__ = ()
    name = "null"
    labels: _Labels = ()
    value = 0

    def inc(self, amount: int = 1) -> None:
        pass


class _NullGauge:
    __slots__ = ()
    name = "null"
    labels: _Labels = ()
    value = 0.0

    def set(self, value: float) -> None:
        pass


class _NullHistogram:
    __slots__ = ()
    name = "null"
    labels: _Labels = ()
    count = 0
    sum = 0.0
    bounds = LATENCY_BOUNDS

    def observe(self, value: float) -> None:
        pass

    def quantile(self, q: float) -> float:
        return 0.0


NULL_COUNTER = _NullCounter()
NULL_GAUGE = _NullGauge()
NULL_HISTOGRAM = _NullHistogram()


class MetricRegistry:
    """All live instruments of one telemetry domain, keyed by (name, labels).

    Asking for the same (name, labels) twice returns the same instrument, so
    components can re-derive their handles idempotently (the compiled engine
    re-runs instrument setup after swapping executors).  ``register`` can bind
    an *existing* instrument under an additional series — used to expose one
    measured histogram under both its engine-level and kernel-level names
    without observing twice.
    """

    enabled = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._series: dict[tuple[str, _Labels], Any] = {}
        self._meta: dict[str, tuple[str, str]] = {}
        self._collectors: list[Callable[["MetricRegistry"], None]] = []

    # -- instrument handles -----------------------------------------------------
    def _get(self, kind: str, cls, name: str, labels: LabelsLike, help: str, **kwargs):
        key = (name, _freeze_labels(labels))
        with self._lock:
            instrument = self._series.get(key)
            if instrument is None:
                instrument = cls(name, key[1], **kwargs)
                self._series[key] = instrument
                self._meta.setdefault(name, (kind, help))
            return instrument

    def counter(self, name: str, labels: LabelsLike = None, help: str = "") -> Counter:
        return self._get("counter", Counter, name, labels, help)

    def gauge(self, name: str, labels: LabelsLike = None, help: str = "") -> Gauge:
        return self._get("gauge", Gauge, name, labels, help)

    def histogram(
        self,
        name: str,
        labels: LabelsLike = None,
        help: str = "",
        bounds: tuple[float, ...] = LATENCY_BOUNDS,
    ) -> Histogram:
        return self._get("histogram", Histogram, name, labels, help, bounds=bounds)

    def register(
        self,
        name: str,
        labels: LabelsLike,
        instrument,
        kind: str = "histogram",
        help: str = "",
    ) -> None:
        """Expose an existing instrument under an additional series name."""
        key = (name, _freeze_labels(labels))
        with self._lock:
            self._series[key] = instrument
            self._meta.setdefault(name, (kind, help))

    # -- scrape-time collectors -------------------------------------------------
    def add_collector(self, collector: Callable[["MetricRegistry"], None]) -> None:
        """Register a callback that refreshes gauges/counters at scrape time.

        Collectors let always-on integer counters that live inside data
        structures (map probes, fallback hits, queue depth) surface in the
        registry without any hot-path registry calls.
        """
        with self._lock:
            self._collectors.append(collector)

    def collect(self) -> None:
        with self._lock:
            collectors = list(self._collectors)
        for collector in collectors:
            collector(self)

    # -- exposition -------------------------------------------------------------
    def series(self) -> list[tuple[str, _Labels, Any]]:
        with self._lock:
            return [(name, labels, inst) for (name, labels), inst in self._series.items()]

    def snapshot(self) -> dict[str, Any]:
        """A JSON-serializable dump: per-name families with per-series stats."""
        self.collect()
        families: dict[str, Any] = {}
        for name, labels, instrument in sorted(
            self.series(), key=lambda item: (item[0], item[1])
        ):
            kind, help = self._meta.get(name, ("untyped", ""))
            family = families.setdefault(
                name, {"type": kind, "help": help, "series": []}
            )
            entry: dict[str, Any] = {"labels": dict(labels)}
            if isinstance(instrument, Histogram):
                entry.update(
                    count=instrument.count,
                    sum=instrument.sum,
                    p50=instrument.quantile(0.5),
                    p90=instrument.quantile(0.9),
                    p99=instrument.quantile(0.99),
                )
            else:
                entry["value"] = instrument.value
            family["series"].append(entry)
        return families

    def histogram_family(self, name: str) -> dict[str, Any] | None:
        """Merge every series of one histogram family into aggregate quantiles."""
        merged: list[int] | None = None
        total = 0
        total_sum = 0.0
        bounds = LATENCY_BOUNDS
        for series_name, _labels, instrument in self.series():
            if series_name != name or not isinstance(instrument, Histogram):
                continue
            if merged is None:
                bounds = instrument.bounds
                merged = [0] * (len(bounds) + 1)
            instrument.merge_into(merged)
            total += instrument.count
            total_sum += instrument.sum
        if merged is None:
            return None
        return {
            "count": total,
            "sum": total_sum,
            "p50": _bucket_quantile(bounds, merged, total, 0.5),
            "p90": _bucket_quantile(bounds, merged, total, 0.9),
            "p99": _bucket_quantile(bounds, merged, total, 0.99),
        }

    def render_prometheus(self) -> str:
        """Prometheus text exposition (histograms as cumulative ``_bucket``)."""
        self.collect()
        lines: list[str] = []
        seen_header: set[str] = set()
        for name, labels, instrument in sorted(
            self.series(), key=lambda item: (item[0], item[1])
        ):
            kind, help = self._meta.get(name, ("untyped", ""))
            if name not in seen_header:
                seen_header.add(name)
                if help:
                    lines.append(f"# HELP {name} {help}")
                lines.append(f"# TYPE {name} {kind}")
            if isinstance(instrument, Histogram):
                cumulative = 0
                for i, bucket_count in enumerate(instrument.counts):
                    cumulative += bucket_count
                    if not bucket_count and i < len(instrument.bounds):
                        continue  # sparse render: skip empty non-terminal buckets
                    le = (
                        _format_value(instrument.bounds[i])
                        if i < len(instrument.bounds)
                        else "+Inf"
                    )
                    lines.append(
                        f"{name}_bucket{_label_text(labels, ('le', le))} {cumulative}"
                    )
                lines.append(f"{name}_sum{_label_text(labels)} {_format_value(instrument.sum)}")
                lines.append(f"{name}_count{_label_text(labels)} {instrument.count}")
            else:
                lines.append(f"{name}{_label_text(labels)} {_format_value(instrument.value)}")
        return "\n".join(lines) + ("\n" if lines else "")


def _label_text(labels: _Labels, extra: tuple[str, str] | None = None) -> str:
    pairs = list(labels)
    if extra is not None:
        pairs.append(extra)
    if not pairs:
        return ""
    body = ",".join(f'{key}="{value}"' for key, value in pairs)
    return "{" + body + "}"


def _format_value(value: float) -> str:
    if isinstance(value, int):
        return str(value)
    formatted = repr(float(value))
    return formatted


class NullRegistry:
    """The disabled registry: every handle is a shared no-op singleton."""

    enabled = False

    def counter(self, name: str, labels: LabelsLike = None, help: str = "") -> _NullCounter:
        return NULL_COUNTER

    def gauge(self, name: str, labels: LabelsLike = None, help: str = "") -> _NullGauge:
        return NULL_GAUGE

    def histogram(
        self, name: str, labels: LabelsLike = None, help: str = ""
    ) -> _NullHistogram:
        return NULL_HISTOGRAM

    def register(self, name, labels, instrument, kind="histogram", help="") -> None:
        pass

    def add_collector(self, collector) -> None:
        pass

    def collect(self) -> None:
        pass

    def series(self) -> list:
        return []

    def snapshot(self) -> dict[str, Any]:
        return {}

    def histogram_family(self, name: str) -> None:
        return None

    def render_prometheus(self) -> str:
        return ""


NULL_REGISTRY = NullRegistry()


class Telemetry:
    """One telemetry domain: a metric registry plus a trace emitter.

    ``enabled`` gates the *measuring* cost (``perf_counter`` calls, histogram
    observes); always-on integer counters inside data structures keep counting
    regardless and are only scraped when enabled.  A disabled instance shares
    the process-wide null registry/tracer, so constructing one is free.

    Two regimes trade per-event latency coverage for hot-path overhead:

    * **continuous** (the default): every event is timed and observed, so
      per-key totals are exact.
    * **burst** (``profile_interval > 0``): a daemon thread re-arms the
      engine's observers every ``profile_interval`` seconds for a burst of
      ``profile_burst`` consecutive timed events, after which the engine
      disarms itself.  Between bursts the hot path pays exactly the
      disabled-mode ``None`` check, so steady-state overhead is bounded by
      ``burst * observe_cost / interval`` regardless of the event rate.
      Scrape-time event totals are scaled back up by the sampled fraction,
      so rates stay correct; per-key totals are statistical estimates.
    """

    __slots__ = (
        "enabled",
        "profile_burst",
        "profile_interval",
        "registry",
        "tracer",
        "_engines",
        "_profiler",
    )

    def __init__(
        self,
        enabled: bool = False,
        registry=None,
        tracer=None,
        profile_interval: float = 0.0,
        profile_burst: int = 64,
    ) -> None:
        from repro.telemetry.trace import NULL_TRACER

        self.enabled = bool(enabled)
        if registry is None:
            registry = MetricRegistry() if self.enabled else NULL_REGISTRY
        self.registry = registry
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.profile_interval = float(profile_interval)
        self.profile_burst = max(1, int(profile_burst))
        self._engines: weakref.WeakSet = weakref.WeakSet()
        self._profiler: threading.Thread | None = None

    def attach_engine(self, engine) -> None:
        """Register an engine for periodic burst re-arming (profiling mode).

        No-op outside profiling mode.  The profiler thread holds only weak
        references and exits once every attached engine is gone, so attaching
        never extends an engine's lifetime.
        """
        if not self.enabled or self.profile_interval <= 0:
            return
        self._engines.add(engine)
        thread = self._profiler
        if thread is None or not thread.is_alive():
            thread = threading.Thread(
                target=self._profile_loop, name="repro-telemetry-profiler", daemon=True
            )
            self._profiler = thread
            thread.start()

    def _profile_loop(self) -> None:
        while True:
            time.sleep(self.profile_interval)
            engines = list(self._engines)
            if not engines:
                return
            for engine in engines:
                engine._telemetry_arm()


_current_lock = threading.Lock()
_current: Telemetry | None = None


def _env_enabled() -> bool:
    return os.environ.get(TELEMETRY_ENV, "").strip().lower() in {"1", "true", "on", "yes"}


def current() -> Telemetry:
    """The process-global telemetry (enabled via ``REPRO_TELEMETRY`` or
    :func:`configure`); a shared disabled instance otherwise."""
    global _current
    with _current_lock:
        if _current is None:
            _current = Telemetry(enabled=_env_enabled())
        return _current


def configure(
    enabled: bool = True,
    trace_file: str | None = None,
    trace_sample: float = 1.0,
    max_trace_bytes: int = 16 * 1024 * 1024,
) -> Telemetry:
    """Install the process-global telemetry (server/CLI entry points)."""
    global _current
    tracer = None
    if trace_file:
        from repro.telemetry.trace import JsonlTraceSink, Tracer

        tracer = Tracer(
            JsonlTraceSink(trace_file, max_bytes=max_trace_bytes),
            sample_rate=trace_sample,
        )
    telemetry = Telemetry(enabled=enabled, tracer=tracer)
    with _current_lock:
        _current = telemetry
    return telemetry


def reset() -> None:
    """Forget the process-global telemetry (test isolation)."""
    global _current
    with _current_lock:
        _current = None
