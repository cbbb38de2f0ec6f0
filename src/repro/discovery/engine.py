"""The level-wise discovery engine (Section 3.1, Figure 1).

The engine traverses the set-based attribute lattice bottom-up.  At each
node ``X`` it validates the OFD candidates ``X \\ {A}: [] ↦→ A`` and the OC
candidates ``X \\ {A, B}: A ~ B`` that survived pruning, records the valid
ones, and shrinks the node's candidate sets so that only minimal
dependencies are ever reported.  Nodes whose candidate sets empty out are
dropped, and the next level is generated by a prefix join over the
surviving nodes.

The level loop works on ``int`` bitmasks (see
:mod:`repro.discovery.lattice`): nodes, candidate sets, job contexts, the
pruning index and the memo keys are masks or bit positions under the
schema's :class:`~repro.discovery.lattice.AttributeBits` numbering (bit
``i`` is the ``i``-th attribute name in sorted order).  Names appear only
where a :class:`~repro.discovery.results.DiscoveredOC` /
:class:`~repro.discovery.results.DiscoveredOFD` or a trace span is built
and where a kernel batch fetches its rank columns, and partition-cache keys
(schema column indices) only where a partition is fetched; contexts reach
both through the run's cached mask maps.  Ascending bits are name
order, so nodes, contexts, right-hand sides and pairs are visited, and
results reported, in sorted-name order.

The AOC validation step is pluggable (``exact`` / ``optimal`` /
``iterative``), which is exactly the knob the paper's experiments turn: the
framework is identical across the three series of Figures 2-4; only the
validator changes.

Validation runs level-synchronously: all surviving candidates of a level
are pruned first, then grouped by context and dispatched through the
backend's batch kernels, so each context's partition, columnar view and
sort infrastructure are paid once per level instead of once per candidate.
Reordering is sound because within one level no discovery can influence
another candidate's pruning decision: rule 1 consults strictly smaller
contexts and rule 4 consults contexts two attributes smaller, both of which
were settled at earlier levels.  Outcomes are recorded in candidate order,
so results do not depend on the order groups were validated in.

Every run validates a level on one schedule: each OC context group is
submitted to a *plane* up front, the coordinator validates the level's OFD
candidates — building their partitions — while the plane counts, and the
groups are harvested in submission order before outcomes are recorded in
job order.  The plane (:class:`~repro.validation.distributed.ColumnPlane`)
counts the groups on threads of the coordinator's process while the
native kernel releases the GIL: one thread per usable core, at most
``num_workers`` of them when ``num_workers > 1``, inline when that leaves
fewer than two (see :meth:`DiscoveryEngine._oc_threads`).  Results,
statistics counters included, are byte-identical for every thread count
(enforced by ``tests/discovery/test_batched_scheduler.py`` and
``tests/discovery/test_pipelined_scheduler.py``).

Streaming
---------

The primary entry point is :meth:`DiscoveryEngine.iter_events`, a generator
that turns the level loop into an event stream (:class:`LevelStarted`,
:class:`DependencyFound`, :class:`LevelCompleted`, final
:class:`RunCompleted` — see :mod:`repro.discovery.events`).  Time limits and
an optional cancellation token are honored *mid-level*: the context groups
validated before the interrupt are still recorded and streamed, so a
partial run's completed-level prefix is byte-identical to an uninterrupted
run.  :meth:`DiscoveryEngine.run` is a thin consumer that drains the stream
and returns the result, which keeps results byte-identical between the
one-shot and streaming APIs by construction.

Session state
-------------

A :class:`~repro.discovery.session.Profiler` session can hand the engine
long-lived state so repeated runs over the same relation stay warm:

* ``partitions`` — a shared :class:`~repro.dataset.partition.PartitionCache`.
  The engine then skips its per-level eviction (the session keeps partitions
  for later runs).
* ``validation_memo`` — a dict memoising validation outcomes keyed by
  ``(kind, tag, context_mask, a_bit[, b_bit])``: ``"oc"`` / ``"ofd"``, the
  effective validator (:func:`oc_validator_tag` for OCs, ``"exact"`` /
  ``"approx"`` for OFDs), the context's mask and the bit positions of the
  right-hand side or of the pair's sides (``a_bit < b_bit``).  The
  numbering covers the whole schema, so a key means the same candidate for
  every request of a session, whatever its ``attributes``.  Entries record
  the removal count, the exceeded flag and the removal budget they were
  computed under, and are only reused when sound for the current run's
  budget (see ``_memo_lookup``), so memoised runs remain byte-identical.
"""

from __future__ import annotations

import functools
import os
import time
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.backend import BACKEND_CHOICES, resolve_backend
from repro.dataset.partition import PartitionCache
from repro.dataset.relation import Relation
from repro.dependencies.oc import CanonicalOC
from repro.dependencies.ofd import OFD
from repro.discovery.config import DiscoveryRequest
from repro.discovery.events import (
    DependencyFound,
    DiscoveryEvent,
    LevelCompleted,
    LevelStarted,
    RunCompleted,
)
from repro.discovery.interestingness import context_coverage, interestingness_score
from repro.discovery.lattice import (
    AttributeBits,
    LatticeNode,
    Level,
    candidate_oc_pairs,
    candidate_ofd_rhs,
    generate_next_level_sets,
    initial_level,
    lex_sorted,
)
from repro.discovery.pruning import (
    KnowledgeBase,
    oc_pruned_by_constancy,
    ofd_pruned_by_subcontext,
)
from repro.discovery.results import DiscoveredOC, DiscoveredOFD, DiscoveryResult
from repro.discovery.stats import DiscoveryStatistics, PhaseTimer
from repro.obs import get_metrics, get_tracer
from repro.validation.approx_oc_iterative import iterative_removal_rows
from repro.validation.common import removal_limit
from repro.validation.distributed import ColumnPlane, ShardedValidationPool

#: One scheduled OFD validation: ``(node, attribute bit, context mask)``.
OFDJob = Tuple[LatticeNode, int, int]
#: One scheduled OC validation: ``(node, pair-id bit, a bit, b bit, context
#: mask)``, ``a < b``; the pair-id bit is ``1 << (a·n + b)``.
OCJob = Tuple[LatticeNode, int, int, int, int]
#: Validation outcome: ``(removal_size, valid)``.
Outcome = Tuple[int, bool]

#: Early-exit slack for memoised sessions.  Kernels may abandon a candidate
#: once its removal count exceeds the budget; a verdict of "over budget B"
#: transfers only to budgets ≤ B, so a verdict computed at exactly the
#: current budget goes stale the moment the budget grows — which row
#: appends do continuously (``limit = ⌊ε·n⌋``).  Sessions therefore run
#: their kernels with a 25% larger exit budget: valid candidates still get
#: exact counts (unchanged results), invalid ones get verdicts that remain
#: conclusive until the dataset has grown ~25%, making the memo robust for
#: incremental maintenance at a bounded extra cost on wildly-invalid
#: candidates.  One-shot engines (no memo) keep the tight budget.
MEMO_LIMIT_SLACK = 1.25


class _TimeBudgetExceeded(Exception):
    """Internal signal: the configured wall-clock budget ran out."""


class _RunCancelled(Exception):
    """Internal signal: the caller's cancellation token was set."""


def oc_validator_tag(request: DiscoveryRequest) -> str:
    """The effective OC validation mode (memo key component)."""
    if request.validator == "exact" or (
        request.is_exact and request.validator == "optimal"
    ):
        return "exact"
    return request.validator


def memo_outcome(entry, limit: Optional[int]) -> Optional[Outcome]:
    """Resolve a memo entry ``(count, exceeded, limit_used)`` under ``limit``.

    Returns ``(removal_size, valid)`` when the entry transfers soundly to
    the given removal budget, ``None`` when it does not (an "over budget"
    verdict computed under a smaller budget says nothing about a larger
    one).  This is the engine's one soundness rule
    (:meth:`DiscoveryEngine._memo_lookup`); after an append it alone
    decides which candidates :meth:`Profiler.discover_incremental`
    recounts.
    """
    count, exceeded, limit_used = entry
    if limit_used is None:
        return (count, not exceeded)
    if not exceeded:
        return (count, limit is None or count <= limit)
    if limit is not None and limit <= limit_used:
        return (count, False)
    return None


class DiscoveryEngine:
    """Runs one OD / AOD discovery over a relation.

    The engine is single-use: construct, consume :meth:`iter_events` (or
    call :meth:`run`), read the result.  ``partitions`` /
    ``validation_memo`` inject session-owned state (see the module
    docstring); when omitted the engine owns everything itself.

    ``backend`` is a :class:`~repro.backend.numpy_backend.NumpyBackend`,
    a name in ``BACKEND_CHOICES`` or ``None`` for ``REPRO_BACKEND``;
    ``num_workers`` caps the threads that count the run's OC groups (see
    :meth:`_oc_threads`).  Every backend and cap give identical results;
    only optimal approximate runs report the cap in ``stats.num_workers``
    (others report 1).
    """

    def __init__(
        self,
        relation: Relation,
        request: Optional[DiscoveryRequest] = None,
        *,
        backend=None,
        num_workers: int = 1,
        partitions: Optional[PartitionCache] = None,
        validation_memo: Optional[dict] = None,
    ):
        if backend is not None and backend not in BACKEND_CHOICES:
            from repro.backend.numpy_backend import NumpyBackend

            if not isinstance(backend, NumpyBackend):
                raise ValueError(
                    f"backend must be one of {BACKEND_CHOICES} or a "
                    f"NumpyBackend instance, got {backend!r}"
                )
        if num_workers < 1:
            raise ValueError("num_workers must be at least 1")
        self.relation = relation
        self.request = request or DiscoveryRequest()
        self.num_workers = num_workers
        self.attributes: List[str] = list(
            self.request.attributes
            if self.request.attributes is not None
            else relation.attribute_names
        )
        unknown = [a for a in self.attributes if a not in relation.schema]
        if unknown:
            raise KeyError(f"attributes not in relation: {unknown}")
        #: The schema's bit numbering (see :class:`AttributeBits`).
        self.bits = AttributeBits(relation.schema)
        self._request_mask = self.bits.mask(self.attributes)
        self._pairs_containing = self.bits.pairs_containing()
        self._oc_tag = oc_validator_tag(self.request)
        self._ofd_tag = "exact" if self.request.is_exact else "approx"
        self.backend = resolve_backend(backend)
        self.encoded = relation.encoded(self.backend)
        if partitions is not None:
            self.partitions = partitions
        else:
            self.partitions = PartitionCache(self.encoded, backend=self.backend)
        # A session-owned cache is kept warm for later runs; only an
        # engine-owned cache is evicted level by level.
        self._owns_partitions = partitions is None
        self.knowledge = KnowledgeBase()
        # The thread cap on optimal approximate runs, 1 elsewhere:
        # the value earlier releases recorded, so stats stay comparable.
        self.stats = DiscoveryStatistics(
            backend=self.backend.name,
            num_workers=(
                num_workers
                if self.request.validator == "optimal"
                and not self.request.is_exact else 1
            ),
        )
        self.result = DiscoveryResult(
            request=self.request,
            num_rows=relation.num_rows,
            attributes=list(self.attributes),
            stats=self.stats,
        )
        self._removal_limit = removal_limit(relation.num_rows, self.request.threshold)
        # The budget handed to kernels (early-exit point, memo `limit_used`);
        # validity is always judged against `_removal_limit`.
        self._kernel_limit = (
            self._removal_limit if validation_memo is None
            else int(self._removal_limit * MEMO_LIMIT_SLACK)
        )
        self._deadline: Optional[float] = None
        self._cancellation = None
        self._plane: Optional[ColumnPlane] = None
        self._memo = validation_memo
        self._found_events: List[DiscoveryEvent] = []
        # Observability handles, captured once per engine (= per run).  Both
        # default to process-wide no-op singletons, so every instrumentation
        # site below costs an attribute lookup and a no-op call when off.
        self._tracer = get_tracer()
        self._metrics = get_metrics()
        self._run_span = None
        self._level_span = None

    # -- public API --------------------------------------------------------------

    def run(self, cancellation=None) -> DiscoveryResult:
        """Execute the level-wise search and return the discovery result.

        A thin consumer of :meth:`iter_events`: draining the stream *is* the
        run, so one-shot and streaming results are identical by construction.
        """
        for _ in self.iter_events(cancellation):
            pass
        return self.result

    def iter_events(self, cancellation=None) -> Iterator[DiscoveryEvent]:
        """Stream the run as level events (see :mod:`repro.discovery.events`).

        ``cancellation`` is any object exposing ``cancelled() -> bool``
        (e.g. :class:`repro.discovery.session.CancellationToken`); it is
        polled alongside the time limit before every context group, so
        both interrupts take effect mid-level.  The final event is always
        :class:`~repro.discovery.events.RunCompleted`; the run's plane
        threads are shut down even when the stream is abandoned early or
        the run raises.
        """
        start = time.perf_counter()
        if self.request.time_limit_seconds is not None:
            self._deadline = start + self.request.time_limit_seconds
        self._cancellation = cancellation
        self._run_span = self._tracer.start_span(
            "run",
            backend=self.backend.name,
            num_workers=self.stats.num_workers,
            num_rows=self.relation.num_rows,
        )
        threads = self._oc_threads()
        pool = ShardedValidationPool(threads) if threads else None
        self._plane = ColumnPlane(self._oc_group_count, pool)
        try:
            yield from self._iter_levels()
        except _TimeBudgetExceeded:
            self.stats.timed_out = True
        except _RunCancelled:
            self.stats.cancelled = True
        finally:
            if pool is not None:
                pool.close()
            self._plane = None
            self.stats.total_seconds = time.perf_counter() - start
            self._tracer.end_span(self._run_span)
            self._run_span = None
            if self._metrics.enabled:
                self._metrics.counter("repro_engine_runs_total").inc()
                self._metrics.counter(
                    "repro_engine_oc_candidates_total"
                ).inc(self.stats.oc_candidates_validated)
                self._metrics.counter(
                    "repro_engine_ofd_candidates_total"
                ).inc(self.stats.ofd_candidates_validated)
        # A mid-level interrupt leaves the partial level's recorded
        # discoveries undrained; stream them before closing the run.
        yield from self._drain_found()
        yield RunCompleted(result=self.result)

    # -- the level loop ----------------------------------------------------------

    def _iter_levels(self) -> Iterator[DiscoveryEvent]:
        current: Level = initial_level(self._request_mask)
        level = 1
        while current:
            if self.request.max_level is not None and level > self.request.max_level:
                break
            self.stats.levels_processed += 1
            self.stats.nodes_per_level[level] = len(current)
            yield LevelStarted(level=level, num_nodes=len(current))
            ocs_before = len(self.result.ocs)
            ofds_before = len(self.result.ofds)

            # The level span covers validation *and* the next level's
            # candidate generation; the per-level stat entries cover only
            # validation + recording (candidate generation stays in the
            # run-wide accumulator).  Splits are differences of the phase
            # accumulators — no extra timers on hot paths.
            level_span = self._tracer.start_span(
                "level", parent=self._run_span,
                level=level, num_nodes=len(current),
            )
            self._level_span = level_span
            level_started = time.perf_counter()
            oc_seconds_before = self.stats.oc_validation_seconds
            ofd_seconds_before = self.stats.ofd_validation_seconds
            partition_seconds_before = self.stats.partition_seconds
            try:
                # Levels are generated in lexicographic order.
                ordered = list(current.values())
                self._process_level(ordered)
                level_elapsed = time.perf_counter() - level_started
                split = {
                    "oc": self.stats.oc_validation_seconds - oc_seconds_before,
                    "ofd": (
                        self.stats.ofd_validation_seconds - ofd_seconds_before
                    ),
                    "partition": (
                        self.stats.partition_seconds - partition_seconds_before
                    ),
                }
                self.stats.level_seconds[level] = level_elapsed
                self.stats.level_phase_seconds[level] = split
                if self._metrics.enabled:
                    self._metrics.counter("repro_engine_levels_total").inc()
                    self._metrics.histogram("repro_level_seconds").observe(
                        level_elapsed
                    )
                yield from self._drain_found()
                yield LevelCompleted(
                    level=level,
                    num_nodes=len(ordered),
                    num_ocs=len(self.result.ocs) - ocs_before,
                    num_ofds=len(self.result.ofds) - ofds_before,
                    seconds=level_elapsed,
                    oc_seconds=split["oc"],
                    ofd_seconds=split["ofd"],
                    partition_seconds=split["partition"],
                )

                # Node deletion (pruning rule 5): exhausted nodes stop
                # superset generation entirely.  With pruning disabled every
                # node stays alive, making the search exhaustively complete
                # at the cost of visiting the full 2^|R| lattice.
                if self.request.prune_exhausted_nodes:
                    survivors = {
                        key: node
                        for key, node in current.items()
                        if not node.is_exhausted
                    }
                else:
                    survivors = current
                self.stats.nodes_pruned += len(current) - len(survivors)

                with self._tracer.span(
                    "candidate-gen", parent=level_span, level=level
                ):
                    with PhaseTimer(self.stats, "candidate_generation_seconds"):
                        next_sets = generate_next_level_sets(survivors)
                        next_level: Level = {}
                        for attrs in next_sets:
                            node = LatticeNode(
                                attrs,
                                candidate_ofd_rhs(
                                    attrs, survivors, self._request_mask
                                ),
                                candidate_oc_pairs(
                                    attrs, survivors, self._pairs_containing
                                ),
                            )
                            if not node.is_exhausted \
                                    or not self.request.prune_exhausted_nodes:
                                next_level[attrs] = node
            finally:
                self._tracer.end_span(level_span)
                self._level_span = None
            if self._owns_partitions:
                self.partitions.evict_level(level - 1)
            current = next_level
            level += 1

    # -- level validation ----------------------------------------------------------

    def _collect_node_jobs(
        self, node: LatticeNode
    ) -> Tuple[List[OFDJob], List[OCJob]]:
        """Apply the pruning rules and collect the node's surviving
        candidates, in the order validation must record them.

        Pruning decisions cannot depend on discoveries made later in the
        same level (see the module docstring), so checking them all up
        front is equivalent to interleaving them with validation.
        """
        ofd_jobs: List[OFDJob] = []
        oc_jobs: List[OCJob] = []
        knowledge = self.knowledge
        attributes = node.attributes
        # Ascending bits: right-hand sides and pairs in name order.
        if self.request.find_ofds:
            rest = attributes & node.ofd_candidates
            while rest:
                low = rest & -rest
                rest ^= low
                attribute = low.bit_length() - 1
                context = attributes ^ low
                if ofd_pruned_by_subcontext(context, attribute, knowledge):
                    node.ofd_candidates ^= low
                    self.stats.ofd_candidates_pruned += 1
                    continue
                ofd_jobs.append((node, attribute, context))
        rest = node.oc_candidates
        width = len(self.bits.names)
        while rest:
            pair = rest & -rest
            rest ^= pair
            a, b = divmod(pair.bit_length() - 1, width)
            context = attributes ^ (1 << a) ^ (1 << b)
            if oc_pruned_by_constancy(context, a, b, knowledge):
                node.oc_candidates ^= pair
                self.stats.oc_candidates_pruned += 1
                continue
            oc_jobs.append((node, pair, a, b, context))
        return ofd_jobs, oc_jobs

    def _process_level(self, nodes: List[LatticeNode]) -> None:
        """Prune, then validate a whole level's candidates context by context.

        Phase 1 applies the pruning rules and collects every surviving
        candidate in node order.  Phase 2 groups the jobs by context and
        validates each group with one kernel dispatch (building each
        context's partition and columnar view exactly once).  Phase 3
        records the outcomes in collection order, so the result lists and
        knowledge base do not depend on how the groups were scheduled.
        """
        ofd_jobs: List[OFDJob] = []
        oc_jobs: List[OCJob] = []
        for node in nodes:
            self._check_interrupt()
            node_ofd_jobs, node_oc_jobs = self._collect_node_jobs(node)
            ofd_jobs.extend(node_ofd_jobs)
            oc_jobs.extend(node_oc_jobs)
        ofd_outcomes: List[Optional[Outcome]] = [None] * len(ofd_jobs)
        oc_outcomes: List[Optional[Outcome]] = [None] * len(oc_jobs)
        try:
            self._validate_level(ofd_jobs, ofd_outcomes, oc_jobs, oc_outcomes)
        finally:
            # On a mid-level interrupt (deadline or cancellation) the
            # context groups validated so far are still recorded before the
            # exception unwinds.
            for (node, attribute, context), outcome in zip(ofd_jobs, ofd_outcomes):
                if outcome is not None:
                    self._record_ofd_outcome(node, attribute, context, outcome)
            for job, outcome in zip(oc_jobs, oc_outcomes):
                if outcome is not None:
                    self._record_oc_outcome(*job, outcome)
        # Nodes count as processed once their level's validation completed
        # (a mid-level interrupt leaves them uncounted rather than
        # overstating progress).
        self.stats.nodes_processed += len(nodes)

    def _validate_level(
        self,
        ofd_jobs: Sequence[OFDJob],
        ofd_outcomes: List[Optional[Outcome]],
        oc_jobs: Sequence[OCJob],
        oc_outcomes: List[Optional[Outcome]],
    ) -> None:
        """Validate one level's jobs, filling the outcome lists in place.

        Every OC context group is submitted to the run's plane up front
        (non-blocking); the coordinator then validates the level's OFD jobs
        while the plane counts, and finally harvests the groups in
        submission order.  On an interrupt the in-flight groups are
        abandoned.  Memo keys are unique within a level and the caller
        records outcomes in collection order, so results do not depend on
        the plane, counters included.
        """
        plane = self._plane
        tag = self._oc_tag
        names = self.bits.names
        in_flight: List[Tuple[List[Tuple[int, tuple]], object]] = []
        try:
            for context, todo in self._memo_misses(
                [job[4] for job in oc_jobs],
                [("oc", tag, context, a, b) for _, _, a, b, context in oc_jobs],
                oc_outcomes,
            ):
                classes = self._context_classes(context)
                pairs = [
                    (names[oc_jobs[i][2]], names[oc_jobs[i][3]])
                    for i, _ in todo
                ]
                with self._tracer.span(
                    "oc-submit", parent=self._level_span, pairs=len(todo)
                ), PhaseTimer(self.stats, "oc_validation_seconds"):
                    pending = plane.submit(classes, pairs, self._kernel_limit)
                in_flight.append((todo, pending))
                self.stats.oc_batches += 1
            self._validate_ofd_jobs(ofd_jobs, ofd_outcomes)
            while in_flight:
                self._check_interrupt()
                todo, pending = in_flight.pop(0)
                with self._tracer.span(
                    "oc-harvest", parent=self._level_span, pairs=len(todo)
                ), PhaseTimer(self.stats, "oc_validation_seconds"):
                    counts = plane.harvest(pending)
                self._settle(todo, counts, tag == "exact", oc_outcomes)
        except BaseException:
            for _, pending in in_flight:
                plane.abandon(pending)
            raise

    def _memo_misses(self, contexts: Sequence[int], keys: Sequence[tuple],
                     outcomes):
        """Yield ``(context, todo)`` per context group that needs a kernel.

        Groups come in lexicographic order of their contexts (a level's
        contexts all have one size), which fixes the order partitions are
        requested in; results are order-independent because outcomes are
        recorded separately, in job order.  ``keys[i]`` is job ``i``'s
        memo key.  The interrupt check runs before every group; memo hits
        fill ``outcomes`` directly and ``todo`` lists the misses as
        ``(job index, memo key)``.  A group served entirely from the memo
        is skipped.
        """
        groups: Dict[int, List[int]] = {}
        for index, context in enumerate(contexts):
            groups.setdefault(context, []).append(index)
        for context in lex_sorted(groups):
            self._check_interrupt()
            todo: List[Tuple[int, tuple]] = []
            for i in groups[context]:
                key = keys[i]
                hit = self._memo_lookup(key)
                if hit is not None:
                    outcomes[i] = hit
                else:
                    todo.append((i, key))
            if todo:
                yield context, todo

    def _settle(
        self, todo, counts, exact: bool, outcomes: List[Optional[Outcome]],
    ) -> None:
        """Turn one group's kernel ``(count, exceeded)`` pairs into outcomes
        and memo entries.

        Every kernel ran at ``self._kernel_limit``.  For an ``exact`` check
        that limit is 0, so ``exceeded`` means "does not hold"; its count
        is dropped and the memo keeps the boolean shape ``(0, failed,
        None)``.
        """
        limit_used = None if exact else self._kernel_limit
        for (i, key), (count, exceeded) in zip(todo, counts):
            if exact:
                count = 0
            self._memo_store(key, count, exceeded, limit_used)
            outcomes[i] = (
                count, not exceeded and count <= self._removal_limit
            )

    def _validate_ofd_jobs(
        self, jobs: Sequence[OFDJob], outcomes: List[Optional[Outcome]]
    ) -> None:
        tag = self._ofd_tag
        names = self.bits.names
        for context, todo in self._memo_misses(
            [job[2] for job in jobs],
            [("ofd", tag, context, attribute) for _, attribute, context in jobs],
            outcomes,
        ):
            classes = self._context_classes(context)
            rhs = [self.encoded.kernel_ranks(names[jobs[i][1]]) for i, _ in todo]
            with self._tracer.span(
                "ofd-batch", parent=self._level_span, candidates=len(todo)
            ), PhaseTimer(self.stats, "ofd_validation_seconds"):
                counts = self.backend.ofd_removal_batch(
                    classes, rhs, self._kernel_limit
                )
            self._settle(todo, counts, self.request.is_exact, outcomes)
            self.stats.ofd_batches += 1

    def _oc_threads(self) -> int:
        """Threads of the run's OC plane: one per usable core, at most
        ``num_workers`` of them when ``num_workers > 1``; none (inline)
        when that leaves fewer than two, or when the OC count holds the
        GIL (the reference loops, Algorithm 1).

        ``num_workers=1``, the default, does not mean one thread: a lone
        plane thread only moves the counting off the coordinator, and at
        16k x 10 it was ~25% slower than two.

        None either for a warm session run, whose memo already holds
        outcomes: it sends few, small groups to a kernel, and in ``repro
        serve`` it runs beside other requests, whose core a plane thread
        would take (on a 2-core host, plane threads raised serve-mix's
        discover p50 by 15%).  Asking for the kernel name loads the native
        library here, on the coordinator.
        """
        if self._memo or self._oc_tag == "iterative" \
                or self.backend.oc_kernel_name != "native":
            return 0
        if hasattr(os, "sched_getaffinity"):
            threads = len(os.sched_getaffinity(0))
        else:
            threads = os.cpu_count() or 1
        if self.num_workers > 1:
            threads = min(threads, self.num_workers)
        return threads if threads > 1 else 0

    def _oc_group_count(
        self, classes, pairs: Sequence[Tuple[str, str]], limit: Optional[int]
    ) -> Callable[[], List[Tuple[int, bool]]]:
        """Resolve one OC context group's inputs on the calling thread and
        return the call that counts it: one ``(count, exceeded)`` per pair,
        at ``limit``.  The call reads only what was resolved here."""
        if self._oc_tag != "iterative":
            # The engine only records removal sizes, and Algorithm 2's
            # per-class contributions are minimal, so the count-only kernel
            # (no subsequence reconstruction) returns the same numbers.  An
            # exact check is the same kernel at limit 0.
            column = self.encoded.kernel_ranks
            rank_pairs = [(column(a), column(b)) for a, b in pairs]
            return functools.partial(
                self.backend.oc_optimal_removal_count_batch,
                classes, rank_pairs, limit,
            )
        # Algorithm 1 stays row-at-a-time by design (the paper's quadratic
        # strawman) on canonical lists in every backend; it still benefits
        # from the shared context partition.
        encoded = self.encoded
        rank_pairs = [(encoded.ranks(a), encoded.ranks(b)) for a, b in pairs]

        def count():
            counts = []
            for a_ranks, b_ranks in rank_pairs:
                removal, exceeded = iterative_removal_rows(
                    classes, a_ranks, b_ranks, limit
                )
                counts.append((len(removal), exceeded))
            return counts

        return count

    # -- outcome recording --------------------------------------------------------

    def _record_ofd_outcome(
        self, node: LatticeNode, attribute: int, context: int,
        outcome: Outcome,
    ) -> None:
        removal_size, valid = outcome
        self.stats.ofd_candidates_validated += 1
        if not valid:
            return
        factor = (
            removal_size / self.relation.num_rows if self.relation.num_rows else 0.0
        )
        self.knowledge.record_ofd(context, attribute)
        named = self.bits.names_of(context)
        ofd = OFD(named, self.bits.names[attribute])
        coverage = context_coverage(
            self.partitions.grouped_rows(self.bits.key_of(context)),
            self.relation.num_rows,
        )
        found = DiscoveredOFD(
            ofd=ofd,
            approximation_factor=factor,
            removal_size=removal_size,
            level=node.level,
            interestingness=interestingness_score(
                len(named), coverage, factor
            ),
        )
        self.result.ofds.append(found)
        self._found_events.append(
            DependencyFound(level=node.level, kind="ofd", dependency=found)
        )
        node.ofd_candidates &= ~(1 << attribute)
        if removal_size == 0 and self.request.aggressive_ofd_pruning:
            # TANE rule: attributes outside X cannot yield minimal FDs
            # through this node once X \ {A} -> A holds exactly.  (The
            # candidates never leave the request's attributes.)
            node.ofd_candidates &= node.attributes

    def _record_oc_outcome(
        self, node: LatticeNode, pair: int, a: int, b: int, context: int,
        outcome: Outcome,
    ) -> None:
        removal_size, valid = outcome
        self.stats.oc_candidates_validated += 1
        if not valid:
            return
        factor = (
            removal_size / self.relation.num_rows if self.relation.num_rows else 0.0
        )
        coverage = context_coverage(
            self.partitions.grouped_rows(self.bits.key_of(context)),
            self.relation.num_rows,
        )
        names = self.bits.names
        named = self.bits.names_of(context)
        found = DiscoveredOC(
            oc=CanonicalOC(named, names[a], names[b]),
            approximation_factor=factor,
            removal_size=removal_size,
            level=node.level,
            interestingness=interestingness_score(
                len(named), coverage, factor
            ),
        )
        self.result.ocs.append(found)
        self._found_events.append(
            DependencyFound(level=node.level, kind="oc", dependency=found)
        )
        node.oc_candidates &= ~pair

    # -- session validation memo --------------------------------------------------

    def _memo_lookup(self, key) -> Optional[Outcome]:
        """Reuse a memoised validation outcome when sound for this run.

        Entries are ``(count, exceeded, limit_used)``.  ``limit_used`` of
        ``None`` marks an exact (boolean) validation, reusable always.  A
        non-exceeded count is the candidate's true minimal removal size —
        limit-independent, so it transfers to any budget.  An exceeded
        entry only proves "over budget" for budgets at most ``limit_used``;
        larger budgets force a recomputation.
        """
        if self._memo is None:
            return None
        entry = self._memo.get(key)
        if entry is None:
            return None
        outcome = memo_outcome(entry, self._removal_limit)
        if outcome is None:
            return None
        self.stats.validation_memo_hits += 1
        return outcome

    def _memo_store(
        self, key, count: int, exceeded: bool, limit_used: Optional[int]
    ) -> None:
        if self._memo is not None:
            self._memo[key] = (count, exceeded, limit_used)

    def _drain_found(self) -> Iterator[DiscoveryEvent]:
        events, self._found_events = self._found_events, []
        for event in events:
            yield event

    def _context_classes(self, context: int):
        # Returns the cached Partition itself (an iterable of classes):
        # backends attach their columnar view to it, so candidates sharing a
        # context reuse one concatenated array instead of rebuilding it.
        indices = self.bits.key_of(context)
        with PhaseTimer(self.stats, "partition_seconds"):
            if not self._tracer.enabled:
                return self.partitions.get(indices)
            # Traced runs get a partition-product span — but only when the
            # cache actually built one; hits are dictionary lookups and
            # would drown the timeline in nanosecond spans.
            misses_before = self.partitions.stats["misses"]
            started = time.time()
            partition = self.partitions.get(indices)
            if self.partitions.stats["misses"] != misses_before:
                self._tracer.record_span(
                    "partition-product", started, time.time(),
                    parent=self._level_span,
                    attributes=",".join(sorted(self.bits.names_of(context))),
                )
            return partition

    def _check_interrupt(self) -> None:
        if self._cancellation is not None and self._cancellation.cancelled():
            raise _RunCancelled()
        if self._deadline is not None and time.perf_counter() > self._deadline:
            raise _TimeBudgetExceeded()
