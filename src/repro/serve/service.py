"""The serve layer's core: a resilient, multi-tenant dataset registry.

:class:`ProfilerService` keeps one long-lived warm
:class:`~repro.discovery.session.Profiler` per dataset and runs discovery
requests against them.  Since the serve-hardening pass it is built for
overload and churn, not just the happy path:

* **admission control** — per-dataset bounded FIFO queues plus a global
  in-flight cap (:mod:`repro.serve.admission`) replace the old blocking
  per-dataset lock.  Overflow is refused with 429 + ``Retry-After``
  (computed from the dataset's run-time EWMA), saturation with 503;
  nothing ever parks an unbounded number of threads.
* **deadlines** — every operation takes an optional cancellation token
  (see :class:`~repro.discovery.session.CancellationToken`); tokens with
  deadlines cancel queued *and* running work, threading straight into the
  engine's group-boundary interrupt checks.
* **dataset lifecycle** — datasets can be uploaded
  (:meth:`upload_dataset`) and evicted (:meth:`evict_dataset`) at runtime;
  an optional TTL sweep evicts idle unpinned datasets in the background.
  Startup datasets are *pinned* (never TTL-evicted) unless asked otherwise.
* **graceful shutdown** — :meth:`begin_drain` refuses new work,
  :meth:`shutdown_gracefully` drains or cancels in-flight runs within a
  bounded grace period, then closes every session deterministically.

Everything observable lands in ``repro.obs``: admission and lifecycle
counters, queue-wait and request-latency histograms, and the ``admission``
/ ``lifecycle`` blocks of ``/healthz``.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, Iterator, List, Optional

from repro.caching import BoundedLRU
from repro.dataset.relation import Relation
from repro.discovery.config import DiscoveryRequest
from repro.discovery.events import DiscoveryEvent, RunCompleted
from repro.discovery.results import DiscoveryResult
from repro.discovery.session import CancellationToken, Profiler
from repro.obs import enable_metrics, get_logger, get_metrics
from repro.serve.admission import (
    AdmissionCancelled,
    AdmissionController,
    AdmissionError,
    DEFAULT_MAX_INFLIGHT,
    DEFAULT_QUEUE_DEPTH,
)

log = get_logger("serve")

#: How long :meth:`ProfilerService.evict_dataset` waits for an executing
#: run before cancelling it (seconds).
DEFAULT_EVICT_GRACE_SECONDS = 5.0

#: Ceiling on the TTL sweep interval (seconds); the sweep also never runs
#: more often than a quarter of the TTL itself.
MAX_TTL_SWEEP_INTERVAL_SECONDS = 30.0

#: Lifecycle events tracked by :meth:`ProfilerService.lifecycle_stats`.
LIFECYCLE_COUNTERS = (
    "uploads", "evictions", "ttl_evictions",
    "deadline_timeouts", "disconnect_cancellations",
)

_COUNTER_METRICS = {
    "uploads": "repro_serve_dataset_uploads_total",
    "evictions": "repro_serve_dataset_evictions_total",
    "ttl_evictions": "repro_serve_ttl_evictions_total",
    "deadline_timeouts": "repro_serve_deadline_timeouts_total",
    "disconnect_cancellations": "repro_serve_disconnect_cancellations_total",
}


class ServiceError(Exception):
    """A client-facing error with an HTTP status code.

    ``extra`` keys are merged into the JSON error payload, so a response
    can carry structured context (e.g. the body-size limit a 413 names).
    """

    def __init__(self, status: int, message: str, **extra: object) -> None:
        super().__init__(message)
        self.status = status
        self.extra = extra


class ProfilerService:
    """A registry of named datasets, each backed by one warm session."""

    def __init__(
        self,
        *,
        backend=None,
        num_workers: int = 1,
        max_memo_entries: Optional[int] = None,
        max_cached_partitions: Optional[int] = None,
        queue_depth: int = DEFAULT_QUEUE_DEPTH,
        max_inflight: int = DEFAULT_MAX_INFLIGHT,
        default_deadline_seconds: Optional[float] = None,
        auth_token: Optional[str] = None,
        dataset_ttl_seconds: Optional[float] = None,
    ) -> None:
        self._backend = backend
        self._num_workers = num_workers
        # Per-session memory bounds, forwarded to every dataset's Profiler
        # (LRU eviction; evicted state is recomputed, results never change).
        self._max_memo_entries = max_memo_entries
        self._max_cached_partitions = max_cached_partitions
        #: Server-side default request deadline; ``None`` = unbounded.
        self.default_deadline_seconds = default_deadline_seconds
        #: Bearer token gating the lifecycle endpoints (``None`` = open).
        self.auth_token = auth_token
        self._registry_lock = threading.RLock()
        self._profilers: Dict[str, Profiler] = {}
        self._pinned: Dict[str, bool] = {}
        self._last_used: Dict[str, float] = {}
        # Result cache: dataset name -> canonical request JSON -> result.
        # Guarded by the admission gate (one run per dataset at a time);
        # invalidated by appends and LRU-bounded per dataset so ad-hoc
        # request streams cannot grow a long-lived server without limit.
        self._results: Dict[str, BoundedLRU] = {}
        self._cache_hits = 0
        self._cache_misses = 0
        self.admission = AdmissionController(
            queue_depth=queue_depth, max_inflight=max_inflight
        )
        self._counters = {key: 0 for key in LIFECYCLE_COUNTERS}
        self._counter_lock = threading.Lock()
        self._closed = False
        # TTL sweep: a background thread evicting idle unpinned datasets.
        self._ttl_seconds = dataset_ttl_seconds
        self._sweep_stop = threading.Event()
        self._sweep_thread: Optional[threading.Thread] = None
        # Serving is the surface observability exists for: install the
        # process-wide metrics registry (idempotent) so engine
        # instrumentation lands in /metrics and /healthz.
        enable_metrics()
        if dataset_ttl_seconds is not None:
            if dataset_ttl_seconds <= 0:
                raise ValueError("dataset_ttl_seconds must be positive")
            self._sweep_thread = threading.Thread(
                target=self._ttl_sweep_loop, name="repro-ttl-sweep",
                daemon=True,
            )
            self._sweep_thread.start()

    #: Per-dataset cap on cached results (each is a full DiscoveryResult).
    max_cached_results = 128

    # -- dataset registry --------------------------------------------------------

    def add_dataset(
        self, name: str, relation: Relation, *, pinned: bool = True
    ) -> Profiler:
        """Register ``relation`` under ``name`` and build its session.

        ``pinned`` datasets (the startup default) are never TTL-evicted;
        runtime uploads arrive unpinned via :meth:`upload_dataset`.
        """
        with self._registry_lock:
            if self._closed:
                raise RuntimeError("service is closed")
            if name in self._profilers:
                raise ValueError(f"dataset {name!r} already loaded")
            profiler = Profiler(
                relation, backend=self._backend,
                num_workers=self._num_workers,
                max_memo_entries=self._max_memo_entries,
                max_cached_partitions=self._max_cached_partitions,
            )
            self._profilers[name] = profiler
            self._pinned[name] = pinned
            self._last_used[name] = time.monotonic()
            self._results[name] = BoundedLRU(self.max_cached_results)
            return profiler

    def upload_dataset(
        self, name: str, relation: Relation, *, pinned: bool = False
    ) -> Dict[str, object]:
        """Runtime dataset upload (``PUT /datasets/<name>``).

        Uploaded datasets are unpinned by default, so a configured TTL can
        reclaim them once idle.  An existing name is refused with 409 —
        evict first; silently replacing a dataset other clients are
        querying would be a correctness hazard, not a convenience.
        """
        if self.admission.draining:
            raise ServiceError(503, "server is draining for shutdown")
        try:
            profiler = self.add_dataset(name, relation, pinned=pinned)
        except ValueError:
            raise ServiceError(
                409,
                f"dataset {name!r} already loaded; DELETE it first to replace",
            )
        self._note("uploads")
        log.info("dataset %r uploaded (%d rows, %d attributes)",
                 name, relation.num_rows, len(relation.attribute_names))
        return {
            "dataset": name,
            "num_rows": profiler.relation.num_rows,
            "attributes": profiler.relation.attribute_names,
            "pinned": pinned,
        }

    def evict_dataset(
        self,
        name: str,
        *,
        grace_seconds: float = DEFAULT_EVICT_GRACE_SECONDS,
        reason: str = "evicted",
    ) -> Dict[str, object]:
        """Remove a dataset and close its session (``DELETE``).

        The dataset disappears from the registry immediately (new requests
        get 404, already-queued ones 410); an executing run is given
        ``grace_seconds`` to finish and then cancelled.
        """
        with self._registry_lock:
            profiler = self._profilers.pop(name, None)
            if profiler is None:
                raise ServiceError(
                    404,
                    f"unknown dataset {name!r} (loaded: {self.dataset_names})",
                )
            self._pinned.pop(name, None)
            self._last_used.pop(name, None)
            cache = self._results.pop(name, None)
        if cache is not None:
            cache.clear()
        # Wait our FIFO turn behind any executing/queued run; queued
        # requests admitted before us find the registry entry gone and
        # answer 410 without touching the session.
        token = CancellationToken(deadline_seconds=grace_seconds)
        ticket = None
        try:
            ticket = self.admission.acquire(name, token)
        except AdmissionCancelled:
            # Grace expired with a run still executing: cancel it and
            # take the slot as soon as it unwinds.
            self.admission.cancel_dataset(name, "evicted")
            retry = CancellationToken(deadline_seconds=grace_seconds)
            try:
                ticket = self.admission.acquire(name, retry)
            except AdmissionError:
                ticket = None  # close anyway: the run is cancelled
        except AdmissionError:
            ticket = None  # draining/saturated: close without the gate
        try:
            profiler.close()
        finally:
            if ticket is not None:
                ticket.release()
            self.admission.forget_dataset(name)
        self._note("ttl_evictions" if reason == "ttl" else "evictions")
        log.info("dataset %r evicted (%s)", name, reason)
        return {"dataset": name, "evicted": True, "reason": reason}

    def _ttl_sweep_loop(self) -> None:
        interval = min(
            MAX_TTL_SWEEP_INTERVAL_SECONDS, max(0.05, self._ttl_seconds / 4)
        )
        while not self._sweep_stop.wait(interval):
            self.sweep_idle_datasets()

    def sweep_idle_datasets(self) -> List[str]:
        """Evict every unpinned dataset idle for longer than the TTL.

        Called by the background sweep; exposed for deterministic tests.
        Returns the names evicted.
        """
        if self._ttl_seconds is None:
            return []
        now = time.monotonic()
        with self._registry_lock:
            idle = [
                name for name in self._profilers
                if not self._pinned.get(name, True)
                and now - self._last_used.get(name, now) > self._ttl_seconds
            ]
        evicted = []
        for name in idle:
            try:
                self.evict_dataset(name, reason="ttl")
                evicted.append(name)
            except ServiceError:
                pass  # raced with an explicit eviction
        return evicted

    @property
    def dataset_names(self) -> List[str]:
        with self._registry_lock:
            return sorted(self._profilers)

    def compute_info(self) -> Dict[str, str]:
        """The compute backend new sessions get and its OC kernel
        (``"native"``, ``"numpy"`` or ``"python"``), for ``/healthz``."""
        from repro.backend import resolve_backend

        backend = resolve_backend(self._backend)
        return {"backend": backend.name, "oc_kernel": backend.oc_kernel_name}

    def describe(self) -> List[Dict[str, object]]:
        """Dataset summaries for ``GET /datasets``."""
        with self._registry_lock:
            profilers = dict(self._profilers)
            pinned = dict(self._pinned)
            last_used = dict(self._last_used)
        now = time.monotonic()
        described = []
        for name in sorted(profilers):
            profiler = profilers[name]
            described.append({
                "name": name,
                "num_rows": profiler.relation.num_rows,
                "attributes": profiler.relation.attribute_names,
                "backend": profiler.backend.name,
                "oc_kernel": profiler.backend.oc_kernel_name,
                "pinned": pinned.get(name, True),
                "idle_seconds": round(now - last_used.get(name, now), 3),
                "cache": profiler.cache_info(),
            })
        return described

    # -- discovery ---------------------------------------------------------------

    def _resolve(self, name: Optional[str]) -> str:
        with self._registry_lock:
            if name is None:
                if len(self._profilers) == 1:
                    return next(iter(self._profilers))
                raise ServiceError(
                    400,
                    "request must name a dataset "
                    f"(loaded: {self.dataset_names})",
                )
            if name not in self._profilers:
                raise ServiceError(
                    404,
                    f"unknown dataset {name!r} (loaded: {self.dataset_names})",
                )
            return name

    def _profiler_or_gone(self, name: str) -> Profiler:
        """The dataset's session, re-checked *after* admission: a queued
        request whose dataset was evicted while it waited gets 410."""
        with self._registry_lock:
            profiler = self._profilers.get(name)
            self._last_used[name] = time.monotonic()
        if profiler is None:
            raise ServiceError(
                410, f"dataset {name!r} was evicted while the request queued"
            )
        return profiler

    def _check_request(self, request: DiscoveryRequest) -> None:
        # The thread cap is a deployment concern (--workers on `repro
        # serve`), not something a client may change per request.  Two
        # values are accepted: the server's own setting and 1 (the
        # default).  Served results only ever embed one of these in their
        # request, so replaying a response's request always works.
        if (request.num_workers is not None
                and request.num_workers not in (1, self._num_workers)):
            raise ServiceError(
                400,
                "num_workers is a server-side setting "
                f"(this server runs {self._num_workers}; set it with "
                "repro serve --workers); remove it from the request",
            )

    def make_token(
        self, deadline_seconds: Optional[float] = None
    ) -> CancellationToken:
        """A cancellation token for one request, carrying the request's
        deadline when given, else the server default."""
        if deadline_seconds is None:
            deadline_seconds = self.default_deadline_seconds
        return CancellationToken(deadline_seconds=deadline_seconds)

    def discover(
        self,
        dataset: Optional[str],
        request: DiscoveryRequest,
        *,
        cancellation: Optional[CancellationToken] = None,
    ) -> DiscoveryResult:
        """Run one discovery against the named dataset's warm session.

        Completed results are cached under the canonical request JSON and
        replayed until an append to the dataset invalidates them.  The
        request queues through admission control (429/503 on overload,
        mapped by the HTTP layer); a cancellation token with a deadline
        bounds queue wait plus run time, and a deadline that fires mid-run
        surfaces as :class:`ServiceError` 504.
        """
        name = self._resolve(dataset)
        self._check_request(request)
        key = request.to_json()
        registry = get_metrics()
        started = time.monotonic()
        with self.admission.acquire(name, cancellation):
            profiler = self._profiler_or_gone(name)
            cache = self._results.get(name)
            cached = cache.get(key) if cache is not None else None
            if cached is not None:
                self._cache_hits += 1
                registry.counter("repro_result_cache_hits_total").inc()
                return cached
            self._cache_misses += 1
            registry.counter("repro_result_cache_misses_total").inc()
            result = profiler.discover(request, cancellation=cancellation)
            self._raise_on_deadline(cancellation, result)
            self._store_result(name, key, result)
            registry.histogram("repro_serve_request_seconds").observe(
                time.monotonic() - started
            )
            return result

    def _raise_on_deadline(self, cancellation, result) -> None:
        """Map a deadline-cancelled run to 504 (other reasons pass the
        partial result through: the caller knows what it asked for)."""
        if (result.cancelled and cancellation is not None
                and cancellation.reason == "deadline"):
            self._note("deadline_timeouts")
            raise ServiceError(
                504,
                "request deadline exceeded during discovery "
                f"(completed {result.stats.levels_processed} level(s))",
            )

    def _store_result(self, name: str, key: str, result: DiscoveryResult) -> None:
        # Interrupted runs are partial (and timing-dependent): never cache.
        if not result.cancelled and not result.timed_out:
            cache = self._results.get(name)
            if cache is not None:
                cache[key] = result

    def iter_events(
        self,
        dataset: Optional[str],
        request: DiscoveryRequest,
        *,
        cancellation: Optional[CancellationToken] = None,
    ) -> Iterator[DiscoveryEvent]:
        """Stream one discovery; the admission slot is held until the
        stream is exhausted (or closed).  Dataset resolution *and
        admission* are eager, so a bad name or a full queue fails before
        any event (and before HTTP headers go out).  The final result
        populates the result cache like a non-streamed run (a stream never
        *serves* from the cache: its point is watching the levels finish
        live)."""
        name = self._resolve(dataset)
        self._check_request(request)
        key = request.to_json()
        ticket = self.admission.acquire(name, cancellation)
        try:
            profiler = self._profiler_or_gone(name)
        except BaseException:
            ticket.release()
            raise

        def _generate() -> Iterator[DiscoveryEvent]:
            started = time.monotonic()
            try:
                for event in profiler.iter_events(
                    request, cancellation=cancellation
                ):
                    if isinstance(event, RunCompleted):
                        self._raise_on_deadline(cancellation, event.result)
                        self._store_result(name, key, event.result)
                        get_metrics().histogram(
                            "repro_serve_request_seconds"
                        ).observe(time.monotonic() - started)
                    yield event
            finally:
                ticket.release()

        return _generate()

    def append(
        self,
        dataset: Optional[str],
        rows: List[object],
        request: Optional[DiscoveryRequest] = None,
        *,
        cancellation: Optional[CancellationToken] = None,
    ):
        """Append rows to a dataset's warm session; optionally revalidate.

        Returns ``(name, delta_summary, outcome)`` where ``outcome`` is the
        :class:`~repro.incremental.IncrementalOutcome` of the revalidation
        when ``request`` was given, else ``None``.  The dataset's result
        cache is always invalidated; a revalidated result re-seeds it.
        """
        name = self._resolve(dataset)
        if request is not None:
            self._check_request(request)
        with self.admission.acquire(name, cancellation):
            profiler = self._profiler_or_gone(name)
            summary = profiler.extend(rows)
            cache = self._results.get(name)
            if cache is not None:
                cache.clear()
            outcome = None
            if request is not None:
                outcome = profiler.discover_incremental(
                    request, cancellation=cancellation
                )
                self._raise_on_deadline(cancellation, outcome.result)
                self._store_result(name, request.to_json(), outcome.result)
            return name, summary, outcome

    # -- counters / stats --------------------------------------------------------

    def _note(self, event: str) -> None:
        with self._counter_lock:
            self._counters[event] += 1
        get_metrics().counter(_COUNTER_METRICS[event]).inc()

    def note_disconnect_cancellation(self) -> None:
        """Record a discovery run cancelled by a client disconnect (the
        HTTP layer's watchdog observed the socket close mid-run)."""
        self._note("disconnect_cancellations")

    def note_deadline_timeout(self) -> None:
        """Record a request abandoned by its deadline while still queued."""
        self._note("deadline_timeouts")

    def result_cache_stats(self) -> Dict[str, int]:
        """Hit/miss counters and current size of the result cache."""
        with self._registry_lock:
            entries = sum(len(cache) for cache in self._results.values())
        return {
            "hits": self._cache_hits,
            "misses": self._cache_misses,
            "entries": entries,
        }

    def lifecycle_stats(self) -> Dict[str, object]:
        """The ``lifecycle`` block of ``/healthz``."""
        with self._counter_lock:
            stats: Dict[str, object] = dict(self._counters)
        stats["auth_required"] = self.auth_token is not None
        stats["ttl_seconds"] = self._ttl_seconds
        stats["draining"] = self.admission.draining
        return stats

    def _refresh_gauges(self) -> None:
        """Set the scrape-time gauges from current service state."""
        registry = get_metrics()
        if not registry.enabled:
            return
        with self._registry_lock:
            datasets = len(self._profilers)
            entries = sum(len(cache) for cache in self._results.values())
        registry.gauge("repro_datasets").set(datasets)
        registry.gauge("repro_result_cache_entries").set(entries)
        admission = self.admission.snapshot()
        registry.gauge("repro_serve_inflight").set(admission["inflight"])
        registry.gauge("repro_serve_draining").set(
            1 if admission["draining"] else 0
        )

    def metrics_text(self) -> str:
        """The Prometheus text-exposition body for ``GET /metrics``."""
        self._refresh_gauges()
        return get_metrics().render_prometheus()

    def metrics_snapshot(self) -> Dict[str, object]:
        """Plain-dict metrics for the ``metrics`` section of ``/healthz``
        (histograms collapse to ``{count, sum}``)."""
        self._refresh_gauges()
        return get_metrics().snapshot()

    # -- lifecycle ---------------------------------------------------------------

    def begin_drain(self) -> None:
        """Refuse new work; queued waiters are woken with 503."""
        self.admission.begin_drain()

    def shutdown_gracefully(self, grace_seconds: float = 10.0) -> bool:
        """Drain-or-cancel in-flight work, then close everything.

        1. stop admitting (queued waiters answer 503 immediately);
        2. wait up to ``grace_seconds`` for executing runs to finish;
        3. past the grace, fire every active run's cancellation token and
           wait (bounded) for the engines to unwind at their next
           group-boundary check;
        4. close the sessions.

        Returns ``True`` when everything drained without cancellation.
        """
        self.begin_drain()
        drained = self.admission.wait_idle(grace_seconds)
        if not drained:
            cancelled = self.admission.cancel_active("shutdown")
            log.warning(
                "graceful shutdown: grace period (%.1fs) expired with work "
                "in flight; cancelled %d active run(s)",
                grace_seconds, cancelled,
            )
            self.admission.wait_idle(max(1.0, grace_seconds / 2))
        self.close()
        return drained

    def close(self) -> None:
        """Close every session (idempotent)."""
        with self._registry_lock:
            if self._closed:
                return
            self._closed = True
            profilers = list(self._profilers.values())
            self._profilers.clear()
            self._pinned.clear()
            self._last_used.clear()
            self._results.clear()
        self._sweep_stop.set()
        if self._sweep_thread is not None:
            self._sweep_thread.join(timeout=5)
            self._sweep_thread = None
        for profiler in profilers:
            profiler.close()
