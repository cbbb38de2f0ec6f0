"""Metrics registry: instruments, exposition formats, and the no-op default."""

import pytest

from repro.obs import (
    NOOP_REGISTRY,
    MetricsRegistry,
    get_metrics,
    set_metrics,
)
from repro.obs.metrics import STANDARD_METRICS, bootstrap, enable_metrics


def test_default_registry_is_noop():
    registry = get_metrics()
    assert registry is NOOP_REGISTRY
    assert not registry.enabled
    registry.counter("anything").inc()
    registry.gauge("anything").set(5)
    registry.histogram("anything").observe(0.1)
    assert registry.render_prometheus() == ""
    assert registry.snapshot() == {}


def test_counter_gauge_histogram_arithmetic():
    registry = MetricsRegistry()
    counter = registry.counter("c_total", "help for c")
    counter.inc()
    counter.inc(2.5)
    assert counter.value == 3.5
    assert registry.counter("c_total") is counter  # same instrument

    gauge = registry.gauge("g")
    gauge.set(7)
    gauge.inc(-2)
    assert gauge.value == 5

    histogram = registry.histogram("h_seconds", buckets=(0.1, 1.0))
    for value in (0.05, 0.5, 5.0):
        histogram.observe(value)
    assert histogram.count == 3
    assert histogram.sum == pytest.approx(5.55)
    assert histogram.bucket_counts() == [1, 2, 3]  # cumulative, +Inf last


def test_kind_mismatch_raises():
    registry = MetricsRegistry()
    registry.counter("x")
    with pytest.raises(TypeError):
        registry.gauge("x")
    with pytest.raises(TypeError):
        registry.histogram("x")


def test_prometheus_exposition_format():
    registry = MetricsRegistry()
    registry.counter("repro_runs_total", "Runs completed").inc(3)
    registry.gauge("repro_datasets").set(2)
    registry.histogram("repro_wait_seconds", buckets=(0.1, 1.0)).observe(0.5)
    text = registry.render_prometheus()
    lines = text.splitlines()
    assert "# HELP repro_runs_total Runs completed" in lines
    assert "# TYPE repro_runs_total counter" in lines
    assert "repro_runs_total 3" in lines
    assert "repro_datasets 2" in lines
    assert 'repro_wait_seconds_bucket{le="0.1"} 0' in lines
    assert 'repro_wait_seconds_bucket{le="1.0"} 1' in lines
    assert 'repro_wait_seconds_bucket{le="+Inf"} 1' in lines
    assert "repro_wait_seconds_sum 0.5" in lines
    assert "repro_wait_seconds_count 1" in lines
    assert text.endswith("\n")


def test_snapshot_collapses_histograms():
    registry = MetricsRegistry()
    registry.counter("a_total").inc()
    registry.histogram("b_seconds").observe(0.25)
    snapshot = registry.snapshot()
    assert snapshot["a_total"] == 1
    assert snapshot["b_seconds"] == {"count": 1, "sum": 0.25}


def test_bootstrap_preregisters_the_standard_families():
    registry = bootstrap(MetricsRegistry())
    text = registry.render_prometheus()
    for _kind, name, _help in STANDARD_METRICS:
        assert name in text
    # A histogram family is visible before any traffic (acceptance bar:
    # a scrape sees the full schema from the first request).
    assert "repro_level_seconds_bucket" in text
    assert "repro_serve_queue_wait_seconds_bucket" in text


def test_enable_metrics_is_idempotent():
    previous = get_metrics()
    try:
        first = enable_metrics()
        assert first.enabled
        assert get_metrics() is first
        assert enable_metrics() is first
    finally:
        set_metrics(previous)
