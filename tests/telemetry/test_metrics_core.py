"""Metrics core: instruments, quantiles, registry, exposition formats."""

import gc
import sys

import pytest

from repro.telemetry import (
    COUNT_BOUNDS,
    LATENCY_BOUNDS,
    NULL_REGISTRY,
    Counter,
    Histogram,
    MetricRegistry,
    Telemetry,
    TELEMETRY_ENV,
)
from repro.telemetry import core as telemetry_core


class TestHistogram:
    def test_observe_counts_and_sum(self):
        hist = Histogram("h")
        for value in (1e-6, 2e-6, 5e-5, 1e-3):
            hist.observe(value)
        assert hist.count == 4
        assert hist.sum == pytest.approx(1e-6 + 2e-6 + 5e-5 + 1e-3)
        assert sum(hist.counts) == 4

    def test_buckets_are_monotone_under_any_stream(self):
        hist = Histogram("h")
        for i in range(1000):
            hist.observe((i % 97 + 1) * 1e-7)
        cumulative = 0
        previous = 0
        for bucket in hist.counts:
            cumulative += bucket
            assert cumulative >= previous
            previous = cumulative
        assert cumulative == hist.count

    def test_quantiles_are_ordered_and_bracket_the_data(self):
        hist = Histogram("h")
        for value in [1e-5] * 50 + [1e-4] * 40 + [1e-2] * 10:
            hist.observe(value)
        p50, p90, p99 = (hist.quantile(q) for q in (0.5, 0.9, 0.99))
        assert p50 <= p90 <= p99
        # Log-scaled buckets are ~12% wide: the quantiles must land within
        # one bucket of the underlying values, not just in order.
        assert p50 == pytest.approx(1e-5, rel=0.13)
        assert p90 == pytest.approx(1e-4, rel=0.13)
        assert p99 == pytest.approx(1e-2, rel=0.13)

    def test_overflow_clamps_to_top_bound(self):
        hist = Histogram("h")
        hist.observe(1e9)  # way past the largest bound
        assert hist.quantile(0.5) == LATENCY_BOUNDS[-1]

    def test_empty_histogram_quantile_is_zero(self):
        assert Histogram("h").quantile(0.99) == 0.0

    def test_count_bounds_fit_batch_sizes(self):
        hist = Histogram("h", bounds=COUNT_BOUNDS)
        for size in (1, 64, 256, 100_000):
            hist.observe(size)
        assert hist.counts[-1] == 0  # nothing in the overflow bucket
        assert hist.quantile(0.5) == pytest.approx(64, rel=0.2)


class TestRegistry:
    def test_same_name_and_labels_dedups(self):
        registry = MetricRegistry()
        a = registry.counter("c", {"x": "1"})
        b = registry.counter("c", {"x": "1"})
        c = registry.counter("c", {"x": "2"})
        assert a is b
        assert a is not c

    def test_register_aliases_one_instrument_under_two_names(self):
        registry = MetricRegistry()
        hist = registry.histogram("engine_latency")
        registry.register("kernel_latency", {"trigger": "t"}, hist, kind="histogram")
        hist.observe(1e-4)
        snapshot = registry.snapshot()
        assert snapshot["engine_latency"]["series"][0]["count"] == 1
        assert snapshot["kernel_latency"]["series"][0]["count"] == 1

    def test_collectors_run_at_scrape_time(self):
        registry = MetricRegistry()
        state = {"n": 0}

        def collect(reg):
            reg.counter("pulled_total").value = state["n"]

        registry.add_collector(collect)
        state["n"] = 41
        assert registry.snapshot()["pulled_total"]["series"][0]["value"] == 41
        state["n"] = 42
        assert registry.snapshot()["pulled_total"]["series"][0]["value"] == 42

    def test_histogram_family_merges_series(self):
        registry = MetricRegistry()
        registry.histogram("h", {"k": "a"}).observe(1e-5)
        registry.histogram("h", {"k": "b"}).observe(1e-5)
        family = registry.histogram_family("h")
        assert family["count"] == 2
        assert family["p50"] == pytest.approx(1e-5, rel=0.13)
        assert registry.histogram_family("missing") is None

    def test_prometheus_rendering(self):
        registry = MetricRegistry()
        registry.counter("events_total", {"op": "insert"}, help="Events").value = 7
        registry.gauge("depth").set(3)
        registry.histogram("latency_seconds").observe(1e-4)
        text = registry.render_prometheus()
        assert '# TYPE events_total counter' in text
        assert 'events_total{op="insert"} 7' in text
        assert "depth 3" in text
        assert "latency_seconds_count 1" in text
        assert "le=" in text and '+Inf' in text

    def test_prometheus_histogram_buckets_are_cumulative(self):
        registry = MetricRegistry()
        hist = registry.histogram("h")
        hist.observe(1e-6)
        hist.observe(1e-3)
        lines = [
            line for line in registry.render_prometheus().splitlines()
            if line.startswith("h_bucket")
        ]
        values = [int(line.rsplit(" ", 1)[1]) for line in lines]
        assert values == sorted(values)
        assert values[-1] == 2  # +Inf bucket sees everything


class TestTelemetry:
    def test_disabled_shares_null_singletons(self):
        telemetry = Telemetry(enabled=False)
        assert telemetry.registry is NULL_REGISTRY
        assert telemetry.registry.counter("a") is telemetry.registry.counter("b")

    def test_null_instruments_allocate_nothing_per_call(self):
        telemetry = Telemetry(enabled=False)
        counter = telemetry.registry.counter("c")
        hist = telemetry.registry.histogram("h")
        gauge = telemetry.registry.gauge("g")
        span = telemetry.tracer.span("s")
        # Shared no-op singletons: 40k calls must not allocate.  Real
        # per-call allocation shows up as thousands of blocks on every
        # attempt; stray threads elsewhere in the test process can allocate
        # concurrently, so take the best of a few attempts (small slack for
        # interpreter-internal caches).
        deltas = []
        for _ in range(5):
            gc.collect()
            before = sys.getallocatedblocks()
            for _ in range(10_000):
                counter.inc()
                hist.observe(1e-4)
                gauge.set(1)
                with span:
                    pass
            deltas.append(sys.getallocatedblocks() - before)
            if deltas[-1] < 10:
                break
        assert min(deltas) < 10, deltas

    def test_env_variable_enables_global_telemetry(self, monkeypatch):
        from repro.telemetry import current, reset

        monkeypatch.setenv(TELEMETRY_ENV, "1")
        reset()
        try:
            assert current().enabled
            monkeypatch.setenv(TELEMETRY_ENV, "0")
            reset()
            assert not current().enabled
        finally:
            reset()


def test_counter_inc_defaults_to_one():
    counter = Counter("c")
    counter.inc()
    counter.inc(5)
    assert counter.value == 6


def test_bucket_quantile_interpolates_geometrically():
    bounds = LATENCY_BOUNDS
    counts = [0] * (len(bounds) + 1)
    counts[10] = 100  # all mass in one bucket
    value = telemetry_core._bucket_quantile(bounds, counts, 100, 0.5)
    lo, hi = bounds[9], bounds[10]
    assert lo <= value <= hi
