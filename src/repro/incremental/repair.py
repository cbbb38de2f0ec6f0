"""Per-class repair of memoised validation outcomes after an append.

Context-level invalidation alone is too blunt for real data: with
low-cardinality attributes, a handful of appended rows lands inside *some*
class of nearly every context, and purging every touched context would
throw away almost the whole memo.  The saving grace is that every kernel
the engine memoises is **class-additive** — a context's removal count is
the sum of independent per-class contributions — and
:meth:`~repro.dataset.partition.PartitionCache.apply_delta` reports the
precise classes a delta removed and added per context, found from the
appended rows alone for every context the memo holds entries of.  So
instead of dropping an affected entry we *adjust* it::

    new_count = old_count - kernel(removed_classes) + kernel(added_classes)

running the kernel only over the few classes that actually changed.
Monotonicity handles the rest outright: a failing exact check can never
start holding again under appends (a violation inside a class survives the
class growing), so failing booleans are kept and only previously-passing
ones re-check the added classes (they hold iff the added classes remove
nothing); an "over budget ``limit_used``" verdict is a lower bound that
appends can only reinforce, so it is kept verbatim — the engine recomputes
it only once the growing removal budget passes ``limit_used`` (sessions
pre-empt that with the early-exit slack in
:data:`repro.discovery.engine.MEMO_LIMIT_SLACK`).

The recount is batched across contexts: every affected context's removed
and added patch classes are concatenated into one CSR (a
:class:`~repro.dataset.partition.ClassCSR`: classes of different contexts
share rows), and each recount — an Algorithm 2 pair or a ``g3`` column
over one side of one context's patch — is a job over its own class range
``[lo, hi)`` of it.  An append therefore makes one OC count call and one
OFD count call, however many contexts it touched.  The iterative
validator (Algorithm 1) has no count kernel, so its counts of affected
contexts are purged and the engine recounts them, batched with early
exit, like every entry of an oversized patch that needs a kernel (such a
patch carries no classes, only its sizes).

Byte-identity is preserved because adjusted counts equal what a full
kernel over the rebuilt context would return (same per-class sums), and
the engine's memo soundness rules treat them exactly like freshly computed
outcomes.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Sequence, Tuple

from repro.dataset.partition import ClassCSR, ClassPatch


class RepairCounts(NamedTuple):
    """What :func:`repair_memo` did to the memo, and the size of its two
    batched count calls."""

    invalidated: int
    adjusted: int
    retained: int
    #: Jobs (pair over one class range) in the one OC count call.
    oc_jobs: int
    #: Jobs (column over one class range) in the one OFD count call.
    ofd_jobs: int


def repair_memo(
    memo,
    encoded,
    names: Sequence[str],
    patches_by_context: Dict[int, ClassPatch],
) -> RepairCounts:
    """Bring a session's validation memo in line with an applied delta.

    Memo keys are ``(kind, tag, context mask, a bit[, b bit])``, and
    ``names[i]`` is the attribute of bit ``i`` (see
    :class:`~repro.discovery.lattice.AttributeBits`).
    ``patches_by_context`` maps the masks of the memo's contexts whose
    classes the append changed to their
    :class:`~repro.dataset.partition.ClassPatch`, each side classes the
    batch kernels read as they read a context partition's;
    every other context kept its classes, so its entries stay.  Mutates
    ``memo`` (a :class:`~repro.caching.BoundedLRU`) in place, leaving its
    recency order as reading every affected entry and then adjusting the
    entries one context at a time would, and returns the
    :class:`RepairCounts`.
    """
    invalidated = adjusted = retained = 0
    #: Passing exact checks, re-checked over their added classes.
    checks: List[tuple] = []
    #: context -> memo keys whose counts await adjustment.
    pending: Dict[int, List[tuple]] = {}
    #: key -> (count, limit_used) of every pending entry.
    entries: Dict[tuple, tuple] = {}
    bounded = memo.max_entries is not None
    for key, (count, exceeded, limit_used) in list(memo.items()):
        context = key[2]
        patch = patches_by_context.get(context)
        if patch is None:
            retained += 1
            continue
        if bounded:
            # Reading an affected entry refreshes it, as it always has.
            memo.move_to_end(key)
        if exceeded:
            # Failing exact checks and "over budget" counts are final
            # under appends (counts only grow): kept verbatim, no kernel
            # runs — that is "retained", not "adjusted".
            retained += 1
        elif patch.oversized or key[1] == "iterative":
            # Adjusting costs two full (no-early-exit) kernel runs over the
            # patch classes; once a patch spans about the whole relation —
            # the unit context always does — the engine's one recount,
            # batched and with early exit, is cheaper.  Iterative-validator
            # counts are always recomputed that way.
            del memo[key]
            invalidated += 1
        elif limit_used is None:
            checks.append(key)
            adjusted += 1
        else:
            pending.setdefault(context, []).append(key)
            entries[key] = (count, limit_used)
            adjusted += 1

    batch = _Batch(encoded, names, patches_by_context)
    #: context -> (OC-optimal keys, first OC job, OFD keys, first OFD job);
    #: each key list is counted over the removed classes, then over the
    #: added ones.
    jobs = {}
    for context, keys in pending.items():
        # Pending OCs are all Algorithm 2 counts: exact checks and
        # iterative counts never reach `pending`.
        oc_keys = [key for key in keys if key[0] == "oc"]
        ofd_keys = [key for key in keys if key[0] == "ofd"]
        jobs[context] = (
            oc_keys, batch.count_oc(oc_keys, context, (0, 1)),
            ofd_keys, batch.count_ofd(ofd_keys, context, (0, 1)),
        )
    check_jobs = [
        batch.count_oc([key], key[2], (1,)) if key[0] == "oc"
        else batch.count_ofd([key], key[2], (1,))
        for key in checks
    ]
    oc_counts, ofd_counts = batch.run()

    # A passing exact check keeps its place in the recency order (it was
    # settled while the memo was walked); adjusted counts move to the most
    # recent end, context by context, OC pairs, then OFDs.
    for key, at in zip(checks, check_jobs):
        counts = oc_counts if key[0] == "oc" else ofd_counts
        memo.replace(key, (0, counts[at] > 0, None))
    for context in pending:
        oc_keys, oc_at, ofd_keys, ofd_at = jobs[context]
        for kind_keys, counts, at in ((oc_keys, oc_counts, oc_at),
                                      (ofd_keys, ofd_counts, ofd_at)):
            n = len(kind_keys)
            for key, removed, added in zip(
                kind_keys, counts[at:at + n], counts[at + n:at + 2 * n]
            ):
                count, limit_used = entries[key]
                memo[key] = (count - removed + added, False, limit_used)
    return RepairCounts(
        invalidated, adjusted, retained, len(batch.oc_pairs),
        len(batch.ofd_columns),
    )


class _Batch:
    """The recounts of one append, gathered for one OC and one OFD count
    call over the concatenation of every patch side a job reads."""

    def __init__(self, encoded, names, patches_by_context) -> None:
        self._encoded = encoded
        self._patches = patches_by_context
        # Rank columns by attribute bit, each fetched once.
        self._ranks = [encoded.kernel_ranks(name) for name in names]
        self._parts: List[ClassCSR] = []
        #: (context, side) -> the side's class range in the concatenation;
        #: side 0 is the removed classes, 1 the added ones.
        self._ranges: Dict[Tuple[int, int], Tuple[int, int]] = {}
        self._num_classes = 0
        self.oc_pairs: List[tuple] = []
        self.oc_ranges: List[Tuple[int, int]] = []
        self.ofd_columns: List[object] = []
        self.ofd_ranges: List[Tuple[int, int]] = []

    def _range(self, context: int, side: int) -> Tuple[int, int]:
        """The class range of one side of ``context``'s patch, appending
        that side to the concatenation on first use."""
        found = self._ranges.get((context, side))
        if found is None:
            part = self._patches[context][side]
            found = (self._num_classes, self._num_classes + len(part))
            self._num_classes = found[1]
            self._parts.append(part)
            self._ranges[context, side] = found
        return found

    def count_oc(self, keys, context: int, sides) -> int:
        """Queue an Algorithm 2 count of each OC key over each of
        ``context``'s patch ``sides`` in turn; returns the first job's
        index."""
        at = len(self.oc_pairs)
        ranks = self._ranks
        pairs = [(ranks[key[3]], ranks[key[4]]) for key in keys]
        for side in sides if keys else ():
            self.oc_pairs += pairs
            self.oc_ranges += [self._range(context, side)] * len(keys)
        return at

    def count_ofd(self, keys, context: int, sides) -> int:
        """Queue a ``g3`` count of each OFD key over each of ``context``'s
        patch ``sides`` in turn; returns the first job's index."""
        at = len(self.ofd_columns)
        columns = [self._ranks[key[3]] for key in keys]
        for side in sides if keys else ():
            self.ofd_columns += columns
            self.ofd_ranges += [self._range(context, side)] * len(keys)
        return at

    def run(self) -> Tuple[List[int], List[int]]:
        """Both calls' counts, one per queued job."""
        if not self._parts:
            return [], []
        classes = _concatenate(self._parts)
        backend = self._encoded.backend
        oc = backend.oc_optimal_removal_count_batch(
            classes, self.oc_pairs, None, self.oc_ranges
        ) if self.oc_pairs else []
        ofd = backend.ofd_removal_batch(
            classes, self.ofd_columns, None, self.ofd_ranges
        ) if self.ofd_columns else []
        return [count for count, _ in oc], [count for count, _ in ofd]


def _concatenate(parts: Sequence[ClassCSR]) -> ClassCSR:
    """The classes of ``parts``, in order, as one CSR the count kernels
    read (its classes may share rows)."""
    import numpy as np

    rows = np.concatenate([part.row_indices for part in parts])
    num_classes = [len(part) for part in parts]
    row_counts = [part.row_indices.size for part in parts]
    # Shift each part's offsets by the rows before it; a part's first
    # offset repeats the previous part's last, so all but the first drop.
    offsets = np.concatenate([part.class_offsets for part in parts])
    offsets += np.repeat(
        np.cumsum([0] + row_counts[:-1], dtype=np.int64),
        [n + 1 for n in num_classes],
    )
    keep = np.ones(offsets.size, dtype=bool)
    keep[np.cumsum([n + 1 for n in num_classes[:-1]], dtype=np.int64)] = False
    return ClassCSR(rows, offsets[keep])
