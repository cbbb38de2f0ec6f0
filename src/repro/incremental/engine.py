"""Candidate-set repair: classify, revalidate, reconcile.

The heart of the incremental subsystem.  After one or more appends, the
previous run's knowledge splits three ways — and the split rests on a
monotonicity argument worth spelling out:

*Appending rows never removes violations.*  An equivalence class of any
context over the concatenated table restricted to the old rows is exactly
the old class (appends never split classes), and the per-class minimal
removal count of every kernel (LNDS for OCs, mode counting for OFDs, the
exact checks) is non-decreasing when a class gains rows.  Hence

* a candidate whose context classes the delta did **not** touch has exactly
  its old removal count — its memoised outcome is still the truth
  (*still-valid* when that outcome passes the new budget, which it always
  does for previously valid candidates since the budget only grows with
  the row count);
* a candidate whose context classes changed may have grown its count in
  either direction relative to the (also grown) budget — it *must be
  revalidated*;
* a previously *pruned* candidate can never silently become a minimal
  dependency: it can enter the result only through revalidation, either
  because its context was touched or because the grown removal budget
  un-rejects it (*newly-possible* — an "over budget" verdict recorded under
  a smaller budget transfers only downward, the same rule
  :func:`repro.discovery.engine.memo_outcome` applies).

:class:`IncrementalEngine` therefore never re-derives what the delta cannot
have changed: :meth:`Profiler.extend` already purged exactly the memo
entries of touched contexts, so driving the ordinary level-wise engine over
the surviving memo revalidates only the affected candidates through the
existing batch kernels — and produces a result byte-identical to a cold
discovery over the concatenated table, because the memo rules are sound and
the engine is otherwise unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.discovery.config import DiscoveryRequest
from repro.discovery.engine import (
    memo_outcome,
    oc_memo_key,
    oc_validator_tag,
    ofd_memo_key,
)
from repro.discovery.events import (
    DatasetExtended,
    DependencyRevoked,
    DiscoveryEvent,
    RunCompleted,
)
from repro.discovery.results import DiscoveredOC, DiscoveredOFD, DiscoveryResult
from repro.incremental.delta import DeltaSummary
from repro.validation.common import removal_limit


@dataclass
class RepairPlan:
    """Classification of the previous run's candidates after appends.

    ``still_valid`` / ``must_revalidate`` partition the previous result's
    dependencies by whether their recorded validation outcome provably
    transfers to the extended table (see the module docstring);
    ``newly_possible`` lists the memo keys of previously *rejected*
    candidates whose rejection no longer transfers (the budget grew past
    the limit they were rejected under, or their verdict now passes it).
    Candidates of touched contexts whose memo entries were purged are
    accounted for by ``invalidated_entries``.
    """

    still_valid_ocs: List[DiscoveredOC]
    still_valid_ofds: List[DiscoveredOFD]
    revalidate_ocs: List[DiscoveredOC]
    revalidate_ofds: List[DiscoveredOFD]
    newly_possible: List[tuple]
    invalidated_entries: int
    old_removal_limit: Optional[int]
    new_removal_limit: Optional[int]

    @property
    def num_still_valid(self) -> int:
        return len(self.still_valid_ocs) + len(self.still_valid_ofds)

    @property
    def num_must_revalidate(self) -> int:
        return len(self.revalidate_ocs) + len(self.revalidate_ofds)

    @property
    def num_newly_possible(self) -> int:
        return len(self.newly_possible) + self.invalidated_entries

    def to_dict(self) -> Dict[str, object]:
        return {
            "still_valid": self.num_still_valid,
            "must_revalidate": self.num_must_revalidate,
            "newly_possible": self.num_newly_possible,
            "invalidated_entries": self.invalidated_entries,
            "old_removal_limit": self.old_removal_limit,
            "new_removal_limit": self.new_removal_limit,
        }


@dataclass
class IncrementalOutcome:
    """The reconciled result of one incremental discovery.

    ``result`` is the full :class:`~repro.discovery.results.DiscoveryResult`
    over the extended table (byte-identical to a cold run); the revoked /
    added lists diff it against the previous baseline by dependency
    statement.  ``previous`` / ``plan`` are ``None`` when the session had no
    completed baseline for this request (the run was effectively cold).
    """

    result: DiscoveryResult
    previous: Optional[DiscoveryResult]
    plan: Optional[RepairPlan]
    deltas: Tuple[DeltaSummary, ...]
    revoked_ocs: List[DiscoveredOC]
    revoked_ofds: List[DiscoveredOFD]
    added_ocs: List[DiscoveredOC]
    added_ofds: List[DiscoveredOFD]

    @property
    def num_revoked(self) -> int:
        return len(self.revoked_ocs) + len(self.revoked_ofds)

    @property
    def num_added(self) -> int:
        return len(self.added_ocs) + len(self.added_ofds)

    def to_dict(self) -> Dict[str, object]:
        return {
            "result": self.result.to_dict(),
            "deltas": [delta.to_dict() for delta in self.deltas],
            "plan": None if self.plan is None else self.plan.to_dict(),
            "revoked_ocs": [found.to_dict() for found in self.revoked_ocs],
            "revoked_ofds": [found.to_dict() for found in self.revoked_ofds],
            "added_ocs": [found.to_dict() for found in self.added_ocs],
            "added_ofds": [found.to_dict() for found in self.added_ofds],
        }


def diff_results(
    previous: DiscoveryResult, current: DiscoveryResult
) -> Tuple[List[DiscoveredOC], List[DiscoveredOFD],
           List[DiscoveredOC], List[DiscoveredOFD]]:
    """Statement-level diff: ``(revoked_ocs, revoked_ofds, added_ocs,
    added_ofds)``.  Revoked entries carry the *previous* run's metadata,
    added entries the current run's."""
    old_ocs = {found.oc for found in previous.ocs}
    old_ofds = {found.ofd for found in previous.ofds}
    new_ocs = {found.oc for found in current.ocs}
    new_ofds = {found.ofd for found in current.ofds}
    return (
        [found for found in previous.ocs if found.oc not in new_ocs],
        [found for found in previous.ofds if found.ofd not in new_ofds],
        [found for found in current.ocs if found.oc not in old_ocs],
        [found for found in current.ofds if found.ofd not in old_ofds],
    )


class IncrementalEngine:
    """Drives incremental rediscovery for one request on a warm session.

    Thin, stateless driver over a :class:`~repro.discovery.session.Profiler`:
    the session owns the warm assets (extended encoding, rebuilt partitions,
    purged memo, per-request baselines and the delta log); the engine reads
    them to classify, stream and reconcile.  Construct one per call — or
    use the :meth:`Profiler.discover_incremental` convenience wrapper.
    """

    def __init__(self, profiler, request: Optional[DiscoveryRequest] = None,
                 **overrides) -> None:
        # One resolution rule for the whole session API: the profiler's.
        self.profiler = profiler
        self.request = profiler._resolve_request(request, overrides)
        self.request_key = self.request.to_json()

    # -- classification ----------------------------------------------------------

    def classify(self) -> Optional[RepairPlan]:
        """Classify the baseline's candidates; ``None`` without a baseline."""
        baseline = self.profiler._baseline(self.request_key)
        if baseline is None:
            return None
        deltas = self.pending_deltas()
        config = self.request.to_config()
        memo = self.profiler.validation_memo
        old_limit = removal_limit(baseline.num_rows, self.request.threshold)
        new_limit = removal_limit(
            self.profiler.relation.num_rows, self.request.threshold
        )

        def transfers(key, context) -> bool:
            # `extend` already repaired the memo: surviving entries are
            # sound for the extended table by construction (unaffected
            # contexts verbatim, affected contexts adjusted per class), so
            # presence plus budget soundness is the whole check.  Purged or
            # evicted entries must re-run their kernels.
            if memo is None:
                return False
            entry = memo.get(key)
            if entry is None:
                return False
            outcome = memo_outcome(entry, new_limit)
            return outcome is not None and outcome[1]

        still_ocs: List[DiscoveredOC] = []
        reval_ocs: List[DiscoveredOC] = []
        for found in baseline.result.ocs:
            key = oc_memo_key(config, found.oc.context, found.oc.a, found.oc.b)
            (still_ocs if transfers(key, found.oc.context) else reval_ocs).append(
                found
            )
        still_ofds: List[DiscoveredOFD] = []
        reval_ofds: List[DiscoveredOFD] = []
        for found in baseline.result.ofds:
            key = ofd_memo_key(config, found.ofd.context, found.ofd.attribute)
            (still_ofds if transfers(key, found.ofd.context)
             else reval_ofds).append(found)

        newly_possible: List[tuple] = []
        if memo is not None:
            # Only entries this request's engine will actually consult: the
            # memo is session-wide, and keys tagged for another validator
            # cannot turn into candidates of this run.
            tags = {
                "oc": oc_validator_tag(config),
                "ofd": "exact" if config.is_exact else "approx",
            }
            for key, entry in memo.items():
                if tags.get(key[0]) != key[1]:
                    continue
                new_outcome = memo_outcome(entry, new_limit)
                if new_outcome is None:
                    # Rejected under a smaller budget than today's: unknown.
                    newly_possible.append(key)
                    continue
                old_outcome = memo_outcome(entry, old_limit)
                was_valid = old_outcome is not None and old_outcome[1]
                if new_outcome[1] and not was_valid:
                    newly_possible.append(key)
        return RepairPlan(
            still_valid_ocs=still_ocs,
            still_valid_ofds=still_ofds,
            revalidate_ocs=reval_ocs,
            revalidate_ofds=reval_ofds,
            newly_possible=newly_possible,
            invalidated_entries=sum(
                delta.invalidated_memo_entries for delta in deltas
            ),
            old_removal_limit=old_limit,
            new_removal_limit=new_limit,
        )

    def pending_deltas(self) -> Tuple[DeltaSummary, ...]:
        """Appends applied since this request's baseline (all of them when
        no baseline exists)."""
        baseline = self.profiler._baseline(self.request_key)
        start = 0 if baseline is None else baseline.delta_index
        return tuple(self.profiler.delta_log[start:])

    # -- execution ---------------------------------------------------------------

    def iter_events(
        self, *, progress_callback=None, cancellation=None, _sink=None
    ) -> Iterator[DiscoveryEvent]:
        """Stream the incremental run: a :class:`DatasetExtended` header
        (when appends are pending against a baseline), the ordinary level
        events, then one :class:`DependencyRevoked` per dependency that
        fell out, and finally :class:`RunCompleted`.  A completed run
        becomes the new baseline for this request.

        ``_sink`` lets :meth:`discover` collect the plan/deltas/diff this
        stream computes anyway without recomputing them (classification
        scans the whole memo)."""
        baseline = self.profiler._baseline(self.request_key)
        previous = baseline.result if baseline is not None else None
        plan = self.classify()
        deltas = self.pending_deltas()
        if _sink is not None:
            _sink["previous"] = previous
            _sink["plan"] = plan
            _sink["deltas"] = deltas
        if deltas and previous is not None:
            yield DatasetExtended(
                old_num_rows=deltas[0].old_num_rows,
                new_num_rows=self.profiler.relation.num_rows,
                appended_rows=sum(delta.num_appended for delta in deltas),
                dataset_version=self.profiler.dataset_version,
                affected_contexts=len({
                    context
                    for delta in deltas
                    for context in delta.affected_contexts
                }),
                still_valid=plan.num_still_valid,
                must_revalidate=plan.num_must_revalidate,
                newly_possible=plan.num_newly_possible,
            )
        stream = self.profiler.iter_events(
            self.request,
            progress_callback=progress_callback,
            cancellation=cancellation,
        )
        for event in stream:
            if not isinstance(event, RunCompleted):
                yield event
                continue
            # The profiler's stream has already recorded the completed run
            # as the new baseline for this request by the time the event
            # reaches us; the diff below still runs against the `previous`
            # snapshot taken before the run started.
            result = event.result
            if (previous is not None
                    and not result.cancelled and not result.timed_out):
                diff = diff_results(previous, result)
                if _sink is not None:
                    _sink["diff"] = diff
                for found in diff[0]:
                    yield DependencyRevoked(kind="oc", dependency=found)
                for found in diff[1]:
                    yield DependencyRevoked(kind="ofd", dependency=found)
            yield event

    def discover(
        self, *, progress_callback=None, cancellation=None
    ) -> IncrementalOutcome:
        """Run the incremental discovery and reconcile against the baseline."""
        sink: dict = {}
        result: Optional[DiscoveryResult] = None
        for event in self.iter_events(
            progress_callback=progress_callback,
            cancellation=cancellation,
            _sink=sink,
        ):
            if isinstance(event, RunCompleted):
                result = event.result
        assert result is not None  # iter_events always ends with RunCompleted
        revoked_ocs, revoked_ofds, added_ocs, added_ofds = sink.get(
            "diff", ([], [], [], [])
        )
        return IncrementalOutcome(
            result=result,
            previous=sink.get("previous"),
            plan=sink.get("plan"),
            deltas=sink.get("deltas", ()),
            revoked_ocs=revoked_ocs,
            revoked_ofds=revoked_ofds,
            added_ocs=added_ocs,
            added_ofds=added_ofds,
        )
