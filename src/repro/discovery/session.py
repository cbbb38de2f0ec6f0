"""Session-oriented profiling API: the long-lived :class:`Profiler`.

The one-shot entry points (:func:`repro.discovery.api.discover_aods` and
friends) run one engine that owns its state: every call builds its own
partitions, and evicts them level by level.  The paper's
core evaluation loop — discovery over the *same* table at many ε values
(Exp-4/5/6 threshold sweeps) — would repeat exactly that setup per
threshold.

A :class:`Profiler` owns the expensive state once and runs many discoveries
against it:

* the **encoded relation** (order-preserving dictionary encoding),
* a **partition cache** shared across runs and never evicted mid-session,
* a **validation memo** mapping candidates to their kernel outcomes, so a
  sweep revalidates only what a new removal budget actually changes
  (soundness rules in ``DiscoveryEngine._memo_lookup``; memoised runs stay
  byte-identical),
* the **completed results**, one per canonical request, each tagged with
  the dataset version it was computed at: :meth:`Profiler.completed_result`
  replays one until an append supersedes it (``repro serve`` answers
  repeated requests from it), and :meth:`Profiler.discover_incremental`
  diffs against it.

Usage::

    with Profiler(relation, backend="numpy", num_workers=4) as profiler:
        result = profiler.discover(DiscoveryRequest(threshold=0.1))
        series = profiler.sweep([0.05, 0.10, 0.15])
        for event in profiler.iter_events(DiscoveryRequest(threshold=0.2)):
            ...  # LevelStarted / DependencyFound / LevelCompleted / RunCompleted
        profiler.extend(new_rows)              # evolving data: delta-encode,
        profiler.discover_incremental(threshold=0.1)  # repair, rerun, diff

Requests are plain :class:`~repro.discovery.config.DiscoveryRequest` values
(JSON-serialisable); live concerns — backend, the plane's thread cap,
cancellation — belong to the session and the call site.

Sessions also survive their dataset *growing*: :meth:`Profiler.extend`
appends rows while keeping every warm asset consistent (delta encoding,
class patches found from the appended rows, per-class memo repair — see
:mod:`repro.incremental`; cached partitions are dropped and rebuilt when
a kernel next reads them), and :meth:`Profiler.discover_incremental` is a
warm :meth:`Profiler.discover`, which recounts only what the repaired memo
cannot answer, plus a diff against the request's last completed result;
its result is byte-identical to a cold run.  Long-lived
serving sessions bound their memory with ``max_memo_entries`` /
``max_cached_partitions`` (LRU eviction, results unchanged).
"""

from __future__ import annotations

import threading
import time
from dataclasses import replace
from typing import Dict, Iterable, Iterator, List, Optional, Sequence

from repro.backend import resolve_backend
from repro.caching import BoundedLRU
from repro.dataset.partition import PartitionCache
from repro.dataset.relation import Relation
from repro.discovery.config import DiscoveryRequest
from repro.discovery.engine import DiscoveryEngine
from repro.discovery.events import DiscoveryEvent, RunCompleted
from repro.discovery.lattice import AttributeBits
from repro.discovery.results import DiscoveryResult
from repro.incremental import repair
from repro.incremental.delta import (
    DeltaSummary,
    IncrementalOutcome,
    rows_to_columns,
)
from repro.obs import get_tracer


#: Cap on per-request completed results retained by a session (each is a
#: full DiscoveryResult).  Evicting one is harmless — see `_baselines`.
MAX_BASELINES = 64


class CancellationToken:
    """Thread-safe cooperative cancellation for a running discovery.

    Hand one to :meth:`Profiler.discover` / :meth:`Profiler.iter_events`
    (or ``DiscoveryEngine.run``) and call :meth:`cancel` — from a callback,
    another thread, or a signal handler — to stop the run at the next
    node / context-group boundary.  The interrupted run returns a
    well-formed partial :class:`~repro.discovery.results.DiscoveryResult`
    with ``result.cancelled`` set.

    A token may also carry a **deadline** (``deadline_seconds``, measured
    from construction): once the wall clock passes it, :meth:`cancelled`
    fires on its own.  This is how the serve layer threads per-request
    deadlines into the engine — the deadline covers queue wait *and* run
    time, and the engine needs no new interrupt machinery.  :attr:`reason`
    records why the token fired (``"deadline"``, or whatever string
    :meth:`cancel` was given, ``"cancelled"`` by default) so callers can
    map explicit cancellation, deadline expiry, and client disconnects to
    different responses.
    """

    __slots__ = ("_event", "_deadline", "_cancel_lock", "reason")

    def __init__(self, deadline_seconds: Optional[float] = None) -> None:
        self._event = threading.Event()
        self._cancel_lock = threading.Lock()
        self._deadline = (
            None if deadline_seconds is None
            else time.monotonic() + deadline_seconds
        )
        #: Why the token fired; ``None`` until it has.
        self.reason: Optional[str] = None

    def cancel(self, reason: str = "cancelled") -> bool:
        """Request cancellation (idempotent; first reason wins).

        Returns ``True`` for the call that actually fired the token, so
        racing cancellers (watchdog thread vs. failed socket write, say)
        can attribute the cancellation exactly once.
        """
        with self._cancel_lock:
            first = not self._event.is_set()
            if first:
                self.reason = reason
            self._event.set()
        return first

    def cancelled(self) -> bool:
        """Whether cancellation has been requested (or the deadline hit)."""
        if self._event.is_set():
            return True
        if self._deadline is not None and time.monotonic() >= self._deadline:
            self.cancel("deadline")
            return True
        return False

    @property
    def deadline_remaining(self) -> Optional[float]:
        """Seconds until the deadline (``None`` without one; floored at 0)."""
        if self._deadline is None:
            return None
        return max(0.0, self._deadline - time.monotonic())


class Profiler:
    """A reusable discovery session over one relation.

    Parameters
    ----------
    relation:
        The table to profile.  Encoded once, at construction.
    backend:
        Compute backend for every run of this session (instance, name, or
        ``None`` for the environment default).
    num_workers:
        The thread cap of every run of this session: values above 1 cap
        the run's OC plane threads, which each run starts and stops
        itself (see ``DiscoveryConfig.num_workers``); a warm run, whose
        memo already holds outcomes, counts inline.  Requests carry no
        cap of their own.
    max_memo_entries:
        Optional LRU bound on the validation memo.  The memo's entries are
        tiny but grow with every distinct candidate ever validated; a
        long-lived serving session caps it so ad-hoc attribute subsets
        cannot grow it without limit.  Evicted outcomes are simply
        recomputed — results never change.
    max_cached_partitions:
        Optional LRU bound on the retained partition cache (each entry is
        O(rows)).  Evicted partitions are rebuilt on demand.  The bound
        costs no incremental reuse: :meth:`extend` patches the memo's
        contexts from the appended rows, whatever the cache holds.
    """

    def __init__(
        self,
        relation: Relation,
        *,
        backend=None,
        num_workers: int = 1,
        max_memo_entries: Optional[int] = None,
        max_cached_partitions: Optional[int] = None,
    ) -> None:
        if num_workers < 1:
            raise ValueError("num_workers must be at least 1")
        self.relation = relation
        self.backend = resolve_backend(backend)
        self.num_workers = num_workers
        self.encoded = relation.encoded(self.backend)
        self.partitions = PartitionCache(
            self.encoded,
            backend=self.backend,
            max_entries=max_cached_partitions,
        )
        self._memo = BoundedLRU(max_memo_entries)
        #: Monotone dataset version: bumped by every :meth:`extend`.
        self._dataset_version = 0
        self._closed = False
        self._active_streams = 0
        #: Appends that added at least one row.
        self._num_appends = 0
        #: Canonical request JSON -> ``(dataset_version, result)`` of the
        #: request's last completed run.  LRU-bounded: losing one only
        #: means a later `completed_result` misses and a later
        #: `discover_incremental` reports no diff (and re-seeds it) —
        #: results never change, so a fixed cap keeps ad-hoc request
        #: streams from growing session state without limit.
        self._baselines: BoundedLRU = BoundedLRU(MAX_BASELINES)

    # -- discovery ---------------------------------------------------------------

    def discover(
        self,
        request: Optional[DiscoveryRequest] = None,
        *,
        cancellation=None,
        **overrides,
    ) -> DiscoveryResult:
        """Run one discovery against the session's warm state.

        ``request`` defaults to ``DiscoveryRequest()``; keyword overrides
        build or amend it (``profiler.discover(threshold=0.1)`` is
        shorthand for ``profiler.discover(DiscoveryRequest(threshold=0.1))``).

        A completed (not cancelled, not timed-out) run is remembered as the
        session's result for its canonical request: :meth:`completed_result`
        replays it, and :meth:`discover_incremental` later diffs against it.
        """
        request = self._resolve_request(request, overrides)
        engine = self._engine(request)
        result = engine.run(cancellation)
        self._remember(request, result)
        return result

    def completed_result(
        self, request: DiscoveryRequest
    ) -> Optional[DiscoveryResult]:
        """The request's last completed result, while no append has come
        after it (``None`` otherwise): what a fresh :meth:`discover` of
        ``request`` would return, counters aside."""
        stored = self._baselines.get(request.to_json())
        if stored is None or stored[0] != self._dataset_version:
            return None
        return stored[1]

    def num_completed_results(self) -> int:
        """How many requests :meth:`completed_result` would answer."""
        return sum(
            version == self._dataset_version
            for version, _ in list(self._baselines.values())
        )

    def _remember(self, request, result) -> None:
        # Interrupted runs are partial (and timing-dependent): never kept.
        if not result.cancelled and not result.timed_out:
            self._baselines[request.to_json()] = (
                self._dataset_version, result
            )

    def iter_events(
        self,
        request: Optional[DiscoveryRequest] = None,
        *,
        cancellation=None,
        **overrides,
    ) -> Iterator[DiscoveryEvent]:
        """Stream one discovery as level events (see
        :mod:`repro.discovery.events`); the final
        :class:`~repro.discovery.events.RunCompleted` carries the result.

        Like :meth:`discover`, a run whose stream completes uninterrupted
        becomes the session's completed result for its request, so
        streamed and one-shot runs feed :meth:`completed_result` and
        :meth:`discover_incremental` equally."""
        request = self._resolve_request(request, overrides)
        engine = self._engine(request)

        def _record_on_completion() -> Iterator[DiscoveryEvent]:
            # The count makes `extend` refuse to mutate warm state while
            # this stream can still resume into it (see `extend`).
            self._active_streams += 1
            try:
                for event in engine.iter_events(cancellation):
                    if isinstance(event, RunCompleted):
                        self._remember(request, event.result)
                    yield event
            finally:
                self._active_streams -= 1

        return _record_on_completion()

    def sweep(
        self,
        thresholds: Iterable[float],
        *,
        request: Optional[DiscoveryRequest] = None,
        cancellation=None,
        **overrides,
    ) -> List[Optional[DiscoveryResult]]:
        """Discover at every threshold, reusing warm state across runs.

        Returns one :class:`~repro.discovery.results.DiscoveryResult` per
        threshold, in the order given.  Internally the thresholds execute
        largest-first: a removal count computed under a large budget is
        reusable for every smaller budget (and "over budget" verdicts
        transfer downward), so the descending order maximises validation
        memo reuse.  Results are identical for any execution order.

        When ``cancellation`` fires, the sweep stops after the run it
        interrupted (that run's result carries ``result.cancelled``);
        thresholds it never reached get ``None`` in the returned list, so
        positions always correspond to the input thresholds —
        ``zip(thresholds, results)`` stays correct for partial sweeps.  An
        uninterrupted sweep never contains ``None``.
        """
        thresholds = list(thresholds)
        base = request if request is not None else DiscoveryRequest()
        if overrides:
            base = replace(base, **overrides)
        results: List[Optional[DiscoveryResult]] = [None] * len(thresholds)
        order = sorted(range(len(thresholds)), key=lambda i: -thresholds[i])
        for i in order:
            results[i] = self.discover(
                replace(base, threshold=thresholds[i]),
                cancellation=cancellation,
            )
            if cancellation is not None and cancellation.cancelled():
                break
        return results

    # -- evolving data ----------------------------------------------------------

    def extend(self, rows: Sequence[object]) -> DeltaSummary:
        """Append rows and bring the session's warm state up to date.

        Each row is a sequence of cell values in schema order or a mapping
        from attribute name to value.  The appended rows are delta-encoded
        into the session's :class:`~repro.dataset.encoding.EncodedRelation`
        (dictionaries grow monotonically; columns whose new values sort
        into the middle of the domain are remapped order-preservingly).
        Every context the validation memo holds entries of, and every
        context whose grouped-row count the partition cache keeps, gets
        the classes the delta replaced, found from the appended rows
        alone; the memo's counts are adjusted by those classes and the
        entries of every other context are kept, as the delta provably did
        not change them.  Cached partitions are dropped, not rebuilt: the
        next run rebuilds the ones a kernel reads.
        The returned :class:`~repro.incremental.DeltaSummary` says what
        happened; :meth:`discover_incremental` then recounts only what the
        repaired memo cannot answer.
        """
        if self._closed:
            raise RuntimeError("Profiler is closed")
        if self._active_streams:
            # A suspended iter_events generator holds an engine built
            # against the current encoding; rebinding the shared partition
            # cache under it would resume that engine onto row ids its
            # captured rank columns cannot cover (a deep kernel IndexError
            # far from the misuse).  Make the contract explicit instead.
            raise RuntimeError(
                "dataset extended while a discovery stream is active; "
                "drain or close the iter_events generator first"
            )
        schema = self.relation.schema
        columns = rows_to_columns(schema, list(rows))
        old_num_rows = self.relation.num_rows
        extended, modes = self.encoded.extend(columns)
        delta_relation = Relation(schema, columns)
        new_relation = self.relation.concat(delta_relation)
        new_relation.adopt_encoding(extended)
        # Contexts are attribute-set masks, as in the memo's keys.
        bits = AttributeBits(schema)
        names = schema.names

        def masked(key):
            return bits.mask(names[i] for i in key)

        # Every context the memo holds entries of gets its class patch,
        # found from the appended rows, as does every context whose
        # grouped-row count the cache keeps.
        keys = {bits.key_of(context)
                for context in {key[2] for key in self._memo}}
        keys.update(self.partitions.counted_keys())
        patches = self.partitions.apply_delta(extended, old_num_rows, keys)
        patches_by_context = {
            masked(key): patch for key, patch in patches.items()
        }
        with get_tracer().span(
            "memo-repair",
            appended_rows=new_relation.num_rows - old_num_rows,
            affected_contexts=len(patches_by_context),
        ) as span:
            # Through the module attribute, so wrappers of it see the call.
            counts = repair.repair_memo(
                self._memo, extended, bits.names, patches_by_context
            )
            if span is not None:
                span.attrs.update(oc_jobs=counts.oc_jobs,
                                  ofd_jobs=counts.ofd_jobs)
        self.relation = new_relation
        self.encoded = extended
        self._dataset_version += 1
        summary = DeltaSummary(
            old_num_rows=old_num_rows,
            new_num_rows=new_relation.num_rows,
            dataset_version=self._dataset_version,
            column_modes=modes,
            affected_contexts=tuple(sorted(
                map(bits.names_of, patches_by_context), key=sorted
            )),
            patched_partitions=len(keys),
            invalidated_memo_entries=counts.invalidated,
            adjusted_memo_entries=counts.adjusted,
            retained_memo_entries=counts.retained,
        )
        if summary.num_appended:
            self._num_appends += 1
        return summary

    def discover_incremental(
        self,
        request: Optional[DiscoveryRequest] = None,
        *,
        cancellation=None,
        **overrides,
    ) -> IncrementalOutcome:
        """Re-establish the request's dependency set after :meth:`extend`.

        A warm :meth:`discover`: :meth:`extend` already repaired the memo,
        so the engine recounts only the candidates whose entries are gone
        or whose verdicts do not transfer to the grown removal budget.
        Returns an :class:`~repro.incremental.IncrementalOutcome` whose
        ``result`` is byte-identical to a cold discovery over the
        concatenated table, diffed against the (canonicalised) request's
        last completed result; without one the diff is empty and the run
        seeds it.
        """
        request = self._resolve_request(request, overrides)
        previous = self._baselines.get(request.to_json())
        result = self.discover(request, cancellation=cancellation)
        return IncrementalOutcome.between(
            None if previous is None else previous[1], result
        )

    # -- incremental session state ---------------------------------------------

    @property
    def validation_memo(self) -> BoundedLRU:
        """The cross-run validation memo."""
        return self._memo

    @property
    def dataset_version(self) -> int:
        """How many times :meth:`extend` has advanced this session's data.
        """
        return self._dataset_version

    # -- introspection -----------------------------------------------------------

    def cache_info(self) -> Dict[str, object]:
        """Warm-state statistics: partition cache hits/misses/entries and
        the number of memoised validation outcomes."""
        info: Dict[str, object] = dict(self.partitions.stats)
        info["validation_memo_entries"] = len(self._memo)
        info["validation_memo_evictions"] = self._memo.evictions
        info["backend"] = self.backend.name
        info["num_appends"] = self._num_appends
        info["dataset_version"] = self._dataset_version
        return info

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        return self._closed

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        """Mark the session closed (idempotent); later runs raise.  Each
        run stops its own plane threads, so nothing outlives it."""
        self._closed = True

    def __enter__(self) -> "Profiler":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- internals ---------------------------------------------------------------

    def _resolve_request(self, request, overrides) -> DiscoveryRequest:
        if request is None:
            return DiscoveryRequest(**overrides)
        if overrides:
            return replace(request, **overrides)
        return request

    def _engine(self, request) -> DiscoveryEngine:
        if self._closed:
            raise RuntimeError("Profiler is closed")
        config = request.to_config(
            backend=self.backend,
            num_workers=self.num_workers,
        )
        return DiscoveryEngine(
            self.relation,
            config,
            partitions=self.partitions,
            validation_memo=self._memo,
        )
