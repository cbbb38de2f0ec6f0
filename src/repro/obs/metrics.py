"""Process-wide metrics registry (`repro.obs`, pillar 2).

Counters, gauges, and fixed-bucket histograms, named in the Prometheus
idiom and rendered as text exposition (``GET /metrics`` on ``repro
serve``) or as a plain dict (the ``metrics`` section of ``/healthz``).

The default registry is :data:`NOOP_REGISTRY`: every instrument handed
out is a shared do-nothing object, so instrumentation sites in the
engine and pool cost two attribute lookups and a no-op call when metrics
are off.  The serve layer installs a real registry at
startup (:func:`enable_metrics`), which also pre-registers the standard
metric families (:data:`STANDARD_METRICS`) so a scrape sees the full
schema — pool resilience, queue wait, cache traffic — from the first
request, not only after the matching code path has fired.

Locking is deliberately cheap: one small lock per instrument, taken only
around the few arithmetic operations of an update.  Updates happen per
batch / per job / per level — never per row — so the cost is noise even
under the pooled serve path.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Dict, List, Optional, Sequence, Tuple

#: Default histogram boundaries (seconds): spans dispatch latencies in the
#: hundreds of microseconds up to multi-second levels.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)


class Counter:
    """Monotonically increasing value."""

    __slots__ = ("name", "help", "_value", "_lock")

    kind = "counter"

    def __init__(self, name: str, help_text: str = "") -> None:
        self.name = name
        self.help = help_text
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Gauge:
    """Last-write-wins value (set at scrape time for derived state)."""

    __slots__ = ("name", "help", "_value", "_lock")

    kind = "gauge"

    def __init__(self, name: str, help_text: str = "") -> None:
        self.name = name
        self.help = help_text
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """Fixed-boundary histogram (cumulative buckets at render time)."""

    __slots__ = ("name", "help", "buckets", "_counts", "_sum", "_count",
                 "_lock")

    kind = "histogram"

    def __init__(self, name: str, help_text: str = "",
                 buckets: Optional[Sequence[float]] = None) -> None:
        self.name = name
        self.help = help_text
        self.buckets = tuple(buckets) if buckets else DEFAULT_BUCKETS
        self._counts = [0] * (len(self.buckets) + 1)  # trailing +Inf
        self._sum = 0.0
        self._count = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        index = bisect_left(self.buckets, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def bucket_counts(self) -> List[int]:
        """Cumulative counts per boundary, +Inf last."""
        with self._lock:
            raw = list(self._counts)
        cumulative: List[int] = []
        running = 0
        for count in raw:
            running += count
            cumulative.append(running)
        return cumulative


def _format_value(value: float) -> str:
    """Render 3.0 as ``3`` (Prometheus accepts both; integers read better)."""
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


class MetricsRegistry:
    """Named instruments plus Prometheus / dict rendering."""

    enabled = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[str, object] = {}

    def _get(self, name: str, factory):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = factory()
                self._metrics[name] = metric
        return metric

    def counter(self, name: str, help_text: str = "") -> Counter:
        metric = self._get(name, lambda: Counter(name, help_text))
        if not isinstance(metric, Counter):
            raise TypeError(f"metric {name!r} already registered as "
                            f"{type(metric).__name__}")
        return metric

    def gauge(self, name: str, help_text: str = "") -> Gauge:
        metric = self._get(name, lambda: Gauge(name, help_text))
        if not isinstance(metric, Gauge):
            raise TypeError(f"metric {name!r} already registered as "
                            f"{type(metric).__name__}")
        return metric

    def histogram(self, name: str, help_text: str = "",
                  buckets: Optional[Sequence[float]] = None) -> Histogram:
        metric = self._get(name, lambda: Histogram(name, help_text, buckets))
        if not isinstance(metric, Histogram):
            raise TypeError(f"metric {name!r} already registered as "
                            f"{type(metric).__name__}")
        return metric

    # -- rendering ---------------------------------------------------------------

    def render_prometheus(self) -> str:
        """Text exposition format, version 0.0.4 (the `/metrics` body)."""
        lines: List[str] = []
        with self._lock:
            metrics = list(self._metrics.values())
        for metric in metrics:
            if metric.help:
                lines.append(f"# HELP {metric.name} {metric.help}")
            lines.append(f"# TYPE {metric.name} {metric.kind}")
            if isinstance(metric, Histogram):
                cumulative = metric.bucket_counts()
                for boundary, count in zip(metric.buckets, cumulative):
                    lines.append(
                        f'{metric.name}_bucket{{le="{boundary}"}} {count}'
                    )
                lines.append(
                    f'{metric.name}_bucket{{le="+Inf"}} {cumulative[-1]}'
                )
                lines.append(
                    f"{metric.name}_sum {_format_value(metric.sum)}"
                )
                lines.append(f"{metric.name}_count {metric.count}")
            else:
                lines.append(
                    f"{metric.name} {_format_value(metric.value)}"
                )
        return "\n".join(lines) + "\n"

    def snapshot(self) -> Dict[str, object]:
        """Plain-dict view for the ``metrics`` section of ``/healthz``."""
        result: Dict[str, object] = {}
        with self._lock:
            metrics = list(self._metrics.values())
        for metric in metrics:
            if isinstance(metric, Histogram):
                result[metric.name] = {
                    "count": metric.count,
                    "sum": round(metric.sum, 6),
                }
            else:
                result[metric.name] = metric.value
        return result


class _NoopInstrument:
    """Shared stand-in for Counter/Gauge/Histogram when metrics are off."""

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        return None

    def set(self, value: float) -> None:
        return None

    def observe(self, value: float) -> None:
        return None

    @property
    def value(self) -> float:
        return 0.0


_NOOP_INSTRUMENT = _NoopInstrument()


class NoopRegistry:
    """The zero-cost default registry."""

    enabled = False

    def counter(self, name, help_text="") -> _NoopInstrument:
        return _NOOP_INSTRUMENT

    def gauge(self, name, help_text="") -> _NoopInstrument:
        return _NOOP_INSTRUMENT

    def histogram(self, name, help_text="", buckets=None) -> _NoopInstrument:
        return _NOOP_INSTRUMENT

    def render_prometheus(self) -> str:
        return ""

    def snapshot(self) -> Dict[str, object]:
        return {}


NOOP_REGISTRY = NoopRegistry()

_registry = NOOP_REGISTRY

#: The metric families pre-registered by :func:`bootstrap` so a fresh
#: serve process exposes the full schema before any traffic arrives.
#: ``(kind, name, help)`` — histogram boundaries use the defaults.
STANDARD_METRICS: Tuple[Tuple[str, str, str], ...] = (
    ("counter", "repro_engine_runs_total",
     "Discovery runs completed by this process"),
    ("counter", "repro_engine_levels_total",
     "Lattice levels processed across all runs"),
    ("counter", "repro_engine_oc_candidates_total",
     "OC candidates validated across all runs"),
    ("counter", "repro_engine_ofd_candidates_total",
     "OFD candidates validated across all runs"),
    ("histogram", "repro_level_seconds",
     "Wall-clock seconds per processed lattice level"),
    ("counter", "repro_pool_groups_total",
     "Validation groups submitted to the shard pool"),
    ("counter", "repro_pool_jobs_total",
     "Shard jobs dispatched to pool workers"),
    ("counter", "repro_pool_worker_deaths_total",
     "Pool worker processes that died unexpectedly"),
    ("counter", "repro_pool_respawns_total",
     "Pool workers respawned after a death"),
    ("counter", "repro_pool_requeued_shards_total",
     "Shard jobs requeued after losing their worker"),
    ("counter", "repro_pool_inline_fallbacks_total",
     "Shard jobs recovered by in-process execution"),
    ("counter", "repro_pool_quarantined_shards_total",
     "Shard jobs quarantined after repeated worker deaths"),
    ("counter", "repro_pool_worker_timeouts_total",
     "Shard jobs whose worker exceeded the dispatch timeout"),
    ("histogram", "repro_pool_round_trip_seconds",
     "Dispatch-to-harvest latency per shard job"),
    ("histogram", "repro_pool_queue_wait_seconds",
     "Dispatch-to-kernel-start wait per shard job"),
    ("counter", "repro_result_cache_hits_total",
     "Serve-layer result cache hits"),
    ("counter", "repro_result_cache_misses_total",
     "Serve-layer result cache misses"),
    ("gauge", "repro_pool_degraded",
     "1 when the shared validation pool has degraded to in-process"),
    ("gauge", "repro_datasets",
     "Datasets currently hosted by this serve process"),
    ("gauge", "repro_result_cache_entries",
     "Entries across all serve-layer result caches"),
    ("counter", "repro_serve_admitted_total",
     "Requests admitted past the serve-layer admission controller"),
    ("counter", "repro_serve_rejected_429_total",
     "Requests rejected 429: per-dataset admission queue full"),
    ("counter", "repro_serve_rejected_503_total",
     "Requests rejected 503: server saturated or draining"),
    ("counter", "repro_serve_deadline_timeouts_total",
     "Requests abandoned because their deadline expired"),
    ("counter", "repro_serve_disconnect_cancellations_total",
     "Discovery runs cancelled after the client disconnected"),
    ("counter", "repro_serve_requests_total",
     "HTTP requests handled by the serve layer"),
    ("counter", "repro_serve_dataset_uploads_total",
     "Datasets uploaded over HTTP (PUT /datasets/<name>)"),
    ("counter", "repro_serve_dataset_evictions_total",
     "Datasets evicted over HTTP (DELETE /datasets/<name>)"),
    ("counter", "repro_serve_ttl_evictions_total",
     "Datasets evicted by the TTL idle sweep"),
    ("histogram", "repro_serve_queue_wait_seconds",
     "Admission-queue wait per admitted request"),
    ("histogram", "repro_serve_request_seconds",
     "End-to-end serve-layer request duration (admission to response)"),
    ("gauge", "repro_serve_inflight",
     "Requests currently admitted (executing or queued)"),
    ("gauge", "repro_serve_draining",
     "1 while the serve process is draining for shutdown"),
)


def bootstrap(registry: MetricsRegistry) -> MetricsRegistry:
    """Pre-register :data:`STANDARD_METRICS` on ``registry``."""
    for kind, name, help_text in STANDARD_METRICS:
        getattr(registry, kind)(name, help_text)
    return registry


def get_metrics():
    """The currently-installed registry (:data:`NOOP_REGISTRY` default)."""
    return _registry


def set_metrics(registry) -> object:
    """Install ``registry`` process-wide; returns the previous registry."""
    global _registry
    previous = _registry
    _registry = registry if registry is not None else NOOP_REGISTRY
    return previous


def enable_metrics() -> MetricsRegistry:
    """Install (or return the already-installed) real registry, with the
    standard metric families pre-registered.  Idempotent."""
    global _registry
    if not isinstance(_registry, MetricsRegistry):
        _registry = bootstrap(MetricsRegistry())
    return _registry
