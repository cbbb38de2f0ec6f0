"""Session-oriented profiling API: the long-lived :class:`Profiler`.

The one-shot entry points (:func:`repro.discovery.api.discover_aods` and
friends) pay the full setup cost on every call: the relation is encoded,
and the partition cache rebuilt.  The paper's
core evaluation loop — discovery over the *same* table at many ε values
(Exp-4/5/6 threshold sweeps) — repeats exactly that setup per threshold.

A :class:`Profiler` owns the expensive state once and runs many discoveries
against it:

* the **encoded relation** (order-preserving dictionary encoding),
* a **partition cache** shared across runs and never evicted mid-session,
* a **validation memo** mapping candidates to their kernel outcomes, so a
  sweep revalidates only what a new removal budget actually changes
  (soundness rules in ``DiscoveryEngine._memo_lookup``; memoised runs stay
  byte-identical).

Usage::

    with Profiler(relation, backend="numpy", num_workers=4) as profiler:
        result = profiler.discover(DiscoveryRequest(threshold=0.1))
        series = profiler.sweep([0.05, 0.10, 0.15])
        for event in profiler.iter_events(DiscoveryRequest(threshold=0.2)):
            ...  # LevelStarted / DependencyFound / LevelCompleted / RunCompleted
        profiler.extend(new_rows)              # evolving data: delta-encode,
        profiler.discover_incremental(threshold=0.1)  # patch, repair, rerun

Requests are plain :class:`~repro.discovery.config.DiscoveryRequest` values
(JSON-serialisable); live concerns — backend, workers, progress callbacks,
cancellation — belong to the session and the call site.

Sessions also survive their dataset *growing*: :meth:`Profiler.extend`
appends rows while keeping every warm asset consistent (delta encoding,
per-context partition patching, per-class memo repair — see
:mod:`repro.incremental`), and :meth:`Profiler.discover_incremental`
re-establishes a request's dependency set revalidating only what the
appends could have changed, byte-identical to a cold run.  Long-lived
serving sessions bound their memory with ``max_memo_entries`` /
``max_cached_partitions`` (LRU eviction, results unchanged).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, replace
from typing import Dict, Iterable, Iterator, List, Optional, Sequence

from repro.backend import resolve_backend
from repro.caching import BoundedLRU
from repro.dataset.partition import PartitionCache
from repro.dataset.relation import Relation
from repro.discovery.config import DiscoveryRequest
from repro.discovery.engine import DiscoveryEngine
from repro.discovery.events import DiscoveryEvent, RunCompleted
from repro.discovery.results import DiscoveryResult
from repro.incremental.delta import DeltaSummary, rows_to_columns
from repro.obs import get_tracer


#: Cap on per-request incremental baselines retained by a session (each is
#: a full DiscoveryResult).  Evicting one is harmless — see `_baselines`.
MAX_BASELINES = 64


@dataclass(frozen=True)
class _Baseline:
    """The last completed result for one canonical request, together with
    the dataset state it was computed against (row count and position in
    the session's delta log)."""

    delta_index: int
    num_rows: int
    result: DiscoveryResult


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
        Default for runs whose request does not pin its own
        (``DiscoveryRequest.num_workers is None``).  Values above 1 cap
        the run's OC plane threads, which each run starts and stops
        itself (see ``DiscoveryConfig.num_workers``); a warm run, whose
        memo already holds outcomes, counts inline.
    cache_validations:
        Keep a cross-run memo of validation outcomes (default on).  Cold
        runs behave identically to the one-shot API; repeated runs and
        :meth:`sweep` skip every kernel call whose outcome is still sound
        for the new threshold.  Disable to measure raw engine time.
    retain_partitions:
        Keep one partition cache alive across runs (default on — it is the
        session's main warm asset).  When disabled each run owns its own
        cache and evicts it level by level, bounding peak memory exactly
        like the pre-session engine; the one-shot ``discover_*`` wrappers
        use this, since their session never runs twice.
    max_memo_entries:
        Optional LRU bound on the validation memo.  The memo's entries are
        tiny but grow with every distinct candidate ever validated; a
        long-lived serving session caps it so ad-hoc attribute subsets
        cannot grow it without limit.  Evicted outcomes are simply
        recomputed — results never change.
    max_cached_partitions:
        Optional LRU bound on the retained partition cache (each entry is
        O(rows)).  Evicted partitions are rebuilt on demand; during
        :meth:`extend`, contexts whose partitions were evicted lose their
        memo entries too (their delta effect is unknown), so tight bounds
        trade incremental reuse for memory.
    """

    def __init__(
        self,
        relation: Relation,
        *,
        backend=None,
        num_workers: int = 1,
        cache_validations: bool = True,
        retain_partitions: bool = True,
        max_memo_entries: Optional[int] = None,
        max_cached_partitions: Optional[int] = None,
    ) -> None:
        if num_workers < 1:
            raise ValueError("num_workers must be at least 1")
        self.relation = relation
        self.backend = resolve_backend(backend)
        self.num_workers = num_workers
        self.encoded = relation.encoded(self.backend)
        self.partitions = (
            PartitionCache(
                self.encoded,
                backend=self.backend,
                max_entries=max_cached_partitions,
            )
            if retain_partitions else None
        )
        self._memo: Optional[BoundedLRU] = (
            BoundedLRU(max_memo_entries) if cache_validations else None
        )
        #: Monotone dataset version: bumped by every :meth:`extend`.
        self._dataset_version = 0
        self._closed = False
        self._active_streams = 0
        #: Every append applied to this session, in order.
        self._delta_log: List[DeltaSummary] = []
        #: Canonical request JSON -> baseline of the last completed run.
        #: LRU-bounded: losing a baseline only means a later
        #: `discover_incremental` for that request degrades to a cold run
        #: (which re-seeds it) — results never change, so a fixed cap keeps
        #: ad-hoc request streams from growing session state without limit.
        self._baselines: BoundedLRU = BoundedLRU(MAX_BASELINES)

    # -- discovery ---------------------------------------------------------------

    def discover(
        self,
        request: Optional[DiscoveryRequest] = None,
        *,
        progress_callback=None,
        cancellation=None,
        **overrides,
    ) -> DiscoveryResult:
        """Run one discovery against the session's warm state.

        ``request`` defaults to ``DiscoveryRequest()``; keyword overrides
        build or amend it (``profiler.discover(threshold=0.1)`` is
        shorthand for ``profiler.discover(DiscoveryRequest(threshold=0.1))``).

        A completed (not cancelled, not timed-out) run is remembered as the
        session's *baseline* for its canonical request, which is what
        :meth:`discover_incremental` later diffs and repairs against.
        """
        request = self._resolve_request(request, overrides)
        engine = self._engine(request, progress_callback)
        result = engine.run(cancellation)
        if not result.cancelled and not result.timed_out:
            self._record_baseline(request.to_json(), result)
        return result

    def iter_events(
        self,
        request: Optional[DiscoveryRequest] = None,
        *,
        progress_callback=None,
        cancellation=None,
        **overrides,
    ) -> Iterator[DiscoveryEvent]:
        """Stream one discovery as level events (see
        :mod:`repro.discovery.events`); the final
        :class:`~repro.discovery.events.RunCompleted` carries the result.

        Like :meth:`discover`, a run whose stream completes uninterrupted
        becomes the session's incremental baseline for its request, so
        streamed and one-shot runs feed :meth:`discover_incremental`
        equally."""
        request = self._resolve_request(request, overrides)
        engine = self._engine(request, progress_callback)

        def _record_on_completion() -> Iterator[DiscoveryEvent]:
            # The count makes `extend` refuse to mutate warm state while
            # this stream can still resume into it (see `extend`).
            self._active_streams += 1
            try:
                for event in engine.iter_events(cancellation):
                    if isinstance(event, RunCompleted):
                        result = event.result
                        if not result.cancelled and not result.timed_out:
                            self._record_baseline(request.to_json(), result)
                    yield event
            finally:
                self._active_streams -= 1

        return _record_on_completion()

    def sweep(
        self,
        thresholds: Iterable[float],
        *,
        request: Optional[DiscoveryRequest] = None,
        progress_callback=None,
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
                progress_callback=progress_callback,
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
        into the middle of the domain are remapped order-preservingly),
        every retained partition is patched per context, and the validation
        memo keeps exactly the entries the delta provably did not change.
        The returned :class:`~repro.incremental.DeltaSummary` says what
        happened; :meth:`discover_incremental` then revalidates only the
        affected candidates.
        """
        if self._closed:
            raise RuntimeError("Profiler is closed")
        if self._active_streams:
            # A suspended iter_events generator holds an engine built
            # against the current encoding; patching the shared partition
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
        affected_names: List[frozenset] = []
        dropped_names: List[frozenset] = []
        patches_by_context: Dict[frozenset, tuple] = {}
        patched = 0
        if self.partitions is not None:
            patches = self.partitions.apply_delta(extended, old_num_rows)
            names = schema.names

            def named(key):
                return frozenset(names[i] for i in key)

            affected_names = [named(key) for key in patches.affected]
            dropped_names = [named(key) for key in patches.dropped]
            patches_by_context = {
                named(key): patch
                for key, patch in patches.class_patches.items()
            }
            patched = sum(1 for _ in self.partitions.cached_keys())
        with get_tracer().span(
            "memo-repair",
            appended_rows=new_relation.num_rows - old_num_rows,
            affected_contexts=len(patches_by_context),
            dropped_contexts=len(dropped_names),
        ):
            invalidated, adjusted, retained = self._repair_memo(
                extended, patches_by_context, dropped_names
            )
        self.relation = new_relation
        self.encoded = extended
        self._dataset_version += 1
        summary = DeltaSummary(
            old_num_rows=old_num_rows,
            new_num_rows=new_relation.num_rows,
            dataset_version=self._dataset_version,
            column_modes=modes,
            affected_contexts=tuple(sorted(affected_names, key=sorted)),
            dropped_contexts=tuple(sorted(dropped_names, key=sorted)),
            patched_partitions=patched,
            invalidated_memo_entries=invalidated,
            adjusted_memo_entries=adjusted,
            retained_memo_entries=retained,
        )
        if summary.num_appended:
            self._delta_log.append(summary)
        return summary

    def discover_incremental(
        self,
        request: Optional[DiscoveryRequest] = None,
        *,
        progress_callback=None,
        cancellation=None,
        **overrides,
    ):
        """Re-establish the request's dependency set after :meth:`extend`.

        Classifies the previous result's candidates (still-valid /
        must-revalidate / newly-possible), revalidates only what the
        appended rows can have changed, and returns an
        :class:`~repro.incremental.IncrementalOutcome` whose ``result`` is
        byte-identical to a cold discovery over the concatenated table.
        Without a prior completed run for the (canonicalised) request this
        degrades to a cold run that seeds the baseline.
        """
        from repro.incremental.engine import IncrementalEngine

        if self._closed:
            raise RuntimeError("Profiler is closed")
        engine = IncrementalEngine(
            self, self._resolve_request(request, overrides)
        )
        return engine.discover(
            progress_callback=progress_callback, cancellation=cancellation
        )

    def _repair_memo(self, extended, patches_by_context, dropped_names):
        """Repair or drop memo entries an append may have changed.

        Entries of unaffected, still-cached contexts are kept as they are;
        entries of affected contexts are adjusted per class (see
        :mod:`repro.incremental.repair`); entries whose context is no
        longer provably tracked (dropped or LRU-evicted partitions) are
        purged.  Without a retained partition cache nothing is provable,
        so everything goes.
        """
        if self._memo is None:
            return 0, 0, 0
        if self.partitions is None:
            invalidated = len(self._memo)
            self._memo.clear()
            return invalidated, 0, 0
        from repro.incremental.repair import repair_memo

        names = self.relation.schema.names
        cached = {
            frozenset(names[i] for i in key)
            for key in self.partitions.cached_keys()
        }
        return repair_memo(
            self._memo, extended, patches_by_context, dropped_names, cached
        )

    # -- incremental session state (read by repro.incremental) -------------------

    @property
    def validation_memo(self) -> Optional[BoundedLRU]:
        """The cross-run validation memo (``None`` when disabled)."""
        return self._memo

    @property
    def delta_log(self) -> List[DeltaSummary]:
        """Every append applied to this session, oldest first."""
        return self._delta_log

    @property
    def dataset_version(self) -> int:
        """How many times :meth:`extend` has advanced this session's data.
        """
        return self._dataset_version

    def _baseline(self, request_key: str) -> Optional[_Baseline]:
        return self._baselines.get(request_key)

    def _record_baseline(self, request_key: str, result: DiscoveryResult) -> None:
        self._baselines[request_key] = _Baseline(
            delta_index=len(self._delta_log),
            num_rows=self.relation.num_rows,
            result=result,
        )

    # -- introspection -----------------------------------------------------------

    def cache_info(self) -> Dict[str, object]:
        """Warm-state statistics: partition cache hits/misses/entries and
        the number of memoised validation outcomes."""
        info: Dict[str, object] = (
            dict(self.partitions.stats) if self.partitions is not None
            else {"hits": 0, "misses": 0, "entries": 0, "evictions": 0}
        )
        info["validation_memo_entries"] = (
            len(self._memo) if self._memo is not None else 0
        )
        info["validation_memo_evictions"] = (
            self._memo.evictions if self._memo is not None else 0
        )
        info["backend"] = self.backend.name
        info["num_appends"] = len(self._delta_log)
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

    def _engine(self, request, progress_callback) -> DiscoveryEngine:
        if self._closed:
            raise RuntimeError("Profiler is closed")
        config = request.to_config(
            backend=self.backend,
            num_workers=self.num_workers,
            progress_callback=progress_callback,
        )
        return DiscoveryEngine(
            self.relation,
            config,
            partitions=self.partitions,
            validation_memo=self._memo,
        )
