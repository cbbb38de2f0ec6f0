"""Layer clock: time the program's layers from outside by wrapping calls.

The benchmark never edits the program.  ``LayerClock.install`` replaces a
fixed set of public functions and methods (one or more per layer) with
timing wrappers and restores them on ``uninstall``.  Each wrapper records
its call's duration and its *self* time (duration minus the wrapped calls
nested inside it, tracked per thread), so the self times of all layers plus
the self time of the benchmark's root span add up to the root span's
duration.  A few wrappers also read counters the program already keeps
(``PartitionCache.stats``, ``ShardedValidationPool.stats``,
``DeltaSummary``, ``DiscoveryStatistics``).
"""

from __future__ import annotations

import functools
import threading
from collections import defaultdict
from statistics import median
from time import perf_counter

from common import tail

#: Root span of a cold-workload op (serve-mix roots are the handler spans).
ROOT = "op"

#: Pool counters copied out of ``ShardedValidationPool.stats`` right
#: before the pool closes (a one-shot run closes its pool at the end of
#: every op, taking its counters with it).
POOL_COUNTERS = ("groups", "jobs", "inline_groups", "columns_shipped",
                 "columns_rle")
POOL_FAILURE_COUNTERS = ("worker_deaths", "requeued_shards",
                         "inline_fallbacks")
ENGINE_COUNTERS = ("validation_memo_hits", "oc_candidates_validated",
                   "ofd_candidates_validated", "levels_processed")


class LayerClock:
    """Per-layer call counts, total and self seconds, plus counters."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counters = defaultdict(float)
        #: Summed duration of outermost spans (whatever their name).
        self.root_seconds = 0.0
        self._engine_stats = []
        self._patches = []

    # -- spans -------------------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def timed(self, name, fn, before=None, after=None):
        """Wrap ``fn`` as a span called ``name``.

        ``before(args, kwargs)`` returns a token handed to
        ``after(args, kwargs, result, token)``; both run inside the span.
        """
        clock = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = clock._stack()
            frame = [0.0, name]
            stack.append(frame)
            start = perf_counter()
            try:
                token = before(args, kwargs) if before is not None else None
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, kwargs, result, token)
                return result
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                with clock._lock:
                    if not stack:
                        clock.root_seconds += elapsed
                    clock.total[name] += elapsed
                    clock.self_time[name] += elapsed - frame[0]
                    clock.calls[name] += 1

        return wrapper

    def run_root(self, fn, *args, **kwargs):
        """Call ``fn`` inside the root span."""
        return self.timed(ROOT, fn)(*args, **kwargs)

    def count(self, name, amount=1) -> None:
        with self._lock:
            self.counters[name] += amount

    # -- counters read from the program -------------------------------------------

    def _note_engine(self, args, kwargs, result, token):
        with self._lock:
            self._engine_stats.append(args[0].stats)

    def engine_totals(self):
        """Sum of the engine counters over every engine built so far."""
        with self._lock:
            stats = list(self._engine_stats)
        return {key: sum(getattr(s, key) for s in stats)
                for key in ENGINE_COUNTERS}

    def _partition_before(self, args, kwargs):
        # Nested gets (a cache miss building from a cached subset) are
        # already inside the outermost get's stats delta.
        if sum(1 for frame in self._stack() if frame[1] == "partition.get") > 1:
            return None
        stats = args[0].stats
        return stats["hits"], stats["misses"]

    def _partition_after(self, args, kwargs, result, token):
        if token is not None:
            stats = args[0].stats
            self.count("partition.hits", stats["hits"] - token[0])
            self.count("partition.misses", stats["misses"] - token[1])

    def _pool_before_close(self, args, kwargs):
        pool = args[0]
        if not pool.closed:
            for key in POOL_COUNTERS:
                self.count(f"pool.{key}", pool.stats.get(key, 0))
            self.count("pool.failures", sum(
                pool.stats.get(key, 0) for key in POOL_FAILURE_COUNTERS
            ))

    def _count_arg(self, name, index):
        def before(args, kwargs):
            self.count(name, len(args[index]))
        return before

    def _note_delta(self, args, kwargs, summary, token):
        self.count("incremental.memo_adjusted", summary.adjusted_memo_entries)
        self.count("incremental.memo_invalidated",
                   summary.invalidated_memo_entries)
        self.count("incremental.memo_retained", summary.retained_memo_entries)

    # -- install / uninstall --------------------------------------------------------

    def _patch(self, owner, attribute, name=None, before=None, after=None):
        original = getattr(owner, attribute)
        owned = attribute in vars(owner)
        self._patches.append((owner, attribute, original, owned))
        if name is None:
            # Untimed hook: read counters, push no span.
            @functools.wraps(original)
            def hook(*args, **kwargs):
                result = original(*args, **kwargs)
                after(args, kwargs, result, None)
                return result
            setattr(owner, attribute, hook)
        else:
            setattr(owner, attribute,
                    self.timed(name, original, before, after))

    def install(self) -> None:
        """Wrap every layer boundary."""
        import repro.discovery.engine as engine_module
        import repro.incremental.repair as repair_module
        from repro.backend import resolve_backend
        from repro.dataset.encoding import EncodedRelation
        from repro.dataset.partition import PartitionCache
        from repro.dataset.relation import Relation
        from repro.discovery.results import DiscoveryResult
        from repro.discovery.session import Profiler
        from repro.serve.admission import AdmissionController
        from repro.serve.service import ProfilerService
        from repro.validation.distributed import (
            ColumnPlane,
            ShardedValidationPool,
        )

        backend_cls = type(resolve_backend("numpy"))
        patch = self._patch
        patch(Relation, "encoded", "encoding.encode")
        patch(EncodedRelation, "extend", "encoding.extend")
        patch(PartitionCache, "get", "partition.get",
              self._partition_before, self._partition_after)
        patch(PartitionCache, "apply_delta", "partition.apply_delta")
        patch(backend_cls, "partition_product", "partition.product")
        patch(backend_cls, "partition_refine", "partition.product")
        patch(backend_cls, "oc_optimal_removal_count_batch", "backend.oc_batch",
              self._count_arg("backend.oc_pairs", 2))
        patch(backend_cls, "ofd_removal_batch", "backend.ofd_batch",
              self._count_arg("backend.ofd_candidates", 2))
        for function in ("generate_next_level_sets", "candidate_ofd_rhs",
                         "candidate_oc_pairs"):
            patch(engine_module, function, "engine.candidate_gen")
        patch(engine_module.DiscoveryEngine, "__init__",
              after=self._note_engine)
        patch(ShardedValidationPool, "__init__", "pool.spawn")
        patch(ShardedValidationPool, "close", "pool.close",
              self._pool_before_close)
        patch(ColumnPlane, "submit", "pool.submit")
        patch(ColumnPlane, "harvest", "pool.harvest_wait")
        patch(repair_module, "repair_memo", "incremental.repair_memo")
        patch(Profiler, "discover_incremental", "incremental.revalidate")
        patch(Profiler, "extend", after=self._note_delta)
        patch(AdmissionController, "acquire", "serve.admission_wait")
        patch(ProfilerService, "discover", "serve.discover_handle")
        patch(ProfilerService, "append", "serve.append_handle")
        patch(DiscoveryResult, "to_dict", "serve.serialize")

    def uninstall(self) -> None:
        for owner, attribute, original, owned in reversed(self._patches):
            if owned:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)
        self._patches = []

    # -- snapshots ------------------------------------------------------------------

    def snapshot(self):
        """Cumulative totals as plain JSON-compatible dicts."""
        engine = self.engine_totals()
        with self._lock:
            return {
                "total": dict(self.total),
                "self": dict(self.self_time),
                "calls": dict(self.calls),
                "counters": {**self.counters, **engine},
                "root": {"seconds": self.root_seconds},
            }


def diff_snapshots(later, earlier):
    """``later - earlier`` for every numeric entry of two snapshots."""
    return {
        section: {
            key: value - earlier.get(section, {}).get(key, 0)
            for key, value in entries.items()
        }
        for section, entries in later.items()
    }


#: Layer time metrics (self seconds per op unless the unit says ms) and the
#: span they read.  Together with ``engine.self_s`` (the root span's self
#: time) and, on serve-mix, ``serve.http_ms``, they add up to the traced op.
SELF_TIME_METRICS = (
    ("encoding.encode_s", "encoding.encode", "s"),
    ("encoding.extend_s", "encoding.extend", "s"),
    ("partition.get_s", "partition.get", "s"),
    ("partition.product_s", "partition.product", "s"),
    ("partition.apply_delta_s", "partition.apply_delta", "s"),
    ("backend.oc_batch_s", "backend.oc_batch", "s"),
    ("backend.ofd_batch_s", "backend.ofd_batch", "s"),
    ("engine.candidate_gen_s", "engine.candidate_gen", "s"),
    ("pool.spawn_s", "pool.spawn", "s"),
    ("pool.close_s", "pool.close", "s"),
    ("pool.submit_s", "pool.submit", "s"),
    ("pool.harvest_wait_s", "pool.harvest_wait", "s"),
    ("incremental.repair_memo_s", "incremental.repair_memo", "s"),
    ("incremental.revalidate_s", "incremental.revalidate", "s"),
    ("serve.admission_wait_ms", "serve.admission_wait", "ms"),
    ("serve.serialize_ms", "serve.serialize", "ms"),
)

#: Wrapped calls that are roots on the server side (a handler call is the
#: serve-mix counterpart of the cold workloads' benchmark op).
SERVE_HANDLERS = ("serve.discover_handle", "serve.append_handle")


def layer_metrics(snap, ops, op_seconds, http_seconds=0.0):
    """Per-op layer metrics from a snapshot covering ``ops`` traced ops.

    ``op_seconds`` is the summed duration of those ops as the caller saw
    them; ``http_seconds`` the part spent outside the server's handlers
    (serve-mix only).  Returns ``{name: {"value": v, "unit": u}}``.
    """
    per_op = 1.0 / ops
    self_time, calls, counters = snap["self"], snap["calls"], snap["counters"]
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    def ratio(part, whole):
        return part / whole if whole else 0.0

    for name, span, unit in SELF_TIME_METRICS:
        scale = 1000.0 if unit == "ms" else 1.0
        put(name, self_time.get(span, 0.0) * per_op * scale, unit)
    put("engine.self_s", per_op * sum(
        self_time.get(span, 0.0) for span in (ROOT,) + SERVE_HANDLERS
    ), "s")
    hits = counters.get("partition.hits", 0)
    misses = counters.get("partition.misses", 0)
    put("partition.builds", misses * per_op, "count")
    put("partition.hit_ratio", ratio(hits, hits + misses), "ratio")
    for kind, items in (("oc", "oc_pairs"), ("ofd", "ofd_candidates")):
        put(f"backend.{kind}_batch_calls",
            calls.get(f"backend.{kind}_batch", 0) * per_op, "count")
        put(f"backend.{items}", counters.get(f"backend.{items}", 0) * per_op,
            "count")
    memo_hits = counters.get("validation_memo_hits", 0)
    oc = counters.get("oc_candidates_validated", 0)
    ofd = counters.get("ofd_candidates_validated", 0)
    put("engine.memo_hits", memo_hits * per_op, "count")
    put("engine.memo_hit_ratio", ratio(memo_hits, oc + ofd), "ratio")
    put("engine.oc_validated", oc * per_op, "count")
    put("engine.ofd_validated", ofd * per_op, "count")
    put("engine.levels", counters.get("levels_processed", 0) * per_op, "count")
    for key in POOL_COUNTERS + ("failures",):
        put(f"pool.{key}", counters.get(f"pool.{key}", 0) * per_op, "count")
    for key in ("memo_adjusted", "memo_invalidated", "memo_retained"):
        put(f"incremental.{key}",
            counters.get(f"incremental.{key}", 0) * per_op, "count")
    for span in SERVE_HANDLERS:
        put(span + "_ms", 1000.0 * ratio(snap["total"].get(span, 0.0),
                                         calls.get(span, 0)), "ms")
    put("serve.http_ms", http_seconds * per_op * 1000.0, "ms")
    # Read from /healthz by serve-mix; no serve layer runs elsewhere.
    put("serve.result_cache_hit_ratio", 0.0, "ratio")
    put("serve.rejected", 0, "count")
    put("trace.op_s", op_seconds * per_op, "s")
    return metrics


def add_overhead(metrics, plain_op_s, traced_op_s):
    metrics["trace.untraced_op_s"] = {"value": plain_op_s, "unit": "s"}
    metrics["trace.overhead_ratio"] = {"value": traced_op_s / plain_op_s,
                                       "unit": "ratio"}


def add_client_latencies(metrics, discovers, appends):
    """Untraced per-op-type latencies as a serve client sees them (zero on
    workloads without that op type)."""
    for kind, values in (("discover", discovers), ("append", appends)):
        if values:
            tail_value, tail_pct, n = tail(values)
            p50 = median(values)
        else:
            tail_value, tail_pct, n, p50 = 0.0, 0.0, 0, 0.0
        metrics[f"client.{kind}_p50_ms"] = {"value": p50 * 1000.0,
                                            "unit": "ms"}
        metrics[f"client.{kind}_tail_ms"] = {"value": tail_value * 1000.0,
                                             "unit": "ms"}
        metrics[f"client.{kind}_tail_pct"] = {"value": tail_pct, "unit": "pct"}
        metrics[f"client.{kind}_samples"] = {"value": n, "unit": "count"}
