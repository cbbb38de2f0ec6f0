"""Per-class repair of memoised validation outcomes after an append.

Context-level invalidation alone is too blunt for real data: with
low-cardinality attributes, a handful of appended rows lands inside *some*
class of nearly every context, and purging every touched context would
throw away almost the whole memo.  The saving grace is that every kernel
the engine memoises is **class-additive** — a context's removal count is
the sum of independent per-class contributions — and
:meth:`~repro.dataset.partition.PartitionCache.apply_delta` reports the
precise classes a delta removed and added per context.  So instead of
dropping an affected entry we *adjust* it::

    new_count = old_count - kernel(removed_classes) + kernel(added_classes)

running the kernel only over the few classes that actually changed.
Monotonicity handles the rest outright: a failing exact check can never
start holding again under appends (a violation inside a class survives the
class growing), so failing booleans are kept and only previously-passing
ones re-check the added classes; an "over budget ``limit_used``" verdict is
a lower bound that appends can only reinforce, so it is kept verbatim —
the engine recomputes it only once the growing removal budget passes
``limit_used`` (sessions pre-empt that with the early-exit slack in
:data:`repro.discovery.engine.MEMO_LIMIT_SLACK`).

Byte-identity is preserved because adjusted counts equal what a full
kernel over the rebuilt context would return (same per-class sums), and
the engine's memo soundness rules treat them exactly like freshly computed
outcomes.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.dataset.partition import ClassPatch
from repro.validation.approx_oc_iterative import iterative_removal_rows

#: (invalidated, adjusted, retained) counters returned by :func:`repair_memo`.
RepairCounts = Tuple[int, int, int]


def repair_memo(
    memo,
    encoded,
    names: Sequence[str],
    patches_by_context: Dict[int, ClassPatch],
    cached_contexts: Sequence[int],
) -> RepairCounts:
    """Bring a session's validation memo in line with an applied delta.

    Memo keys are ``(kind, tag, context mask, a bit[, b bit])``, and
    ``names[i]`` is the attribute of bit ``i`` (see
    :class:`~repro.discovery.lattice.AttributeBits`).
    ``patches_by_context`` maps affected context masks to their
    ``(removed, added)`` class patch, each side a sub-partition the batch
    kernels read as they read a context partition; ``cached_contexts`` are
    the context masks whose partitions stayed cached across the append
    (entries for anything else cannot be proven unchanged and are
    dropped).  Mutates ``memo`` in place and returns ``(invalidated,
    adjusted, retained)``.
    """
    cached = set(cached_contexts)
    # Adjusting costs two full (no-early-exit) kernel runs over the patch
    # classes; once a patch spans about the whole relation — the unit
    # context always does, its single class is every row — letting the
    # engine recompute the entry once, batched and with early exit, is
    # cheaper.  Verdict-only entries (exceeded / failing exact) are exempt:
    # monotonicity keeps them for free at any patch size.
    oversized = {
        context
        for context, (removed, added) in patches_by_context.items()
        if removed.num_grouped_rows + added.num_grouped_rows
        >= encoded.num_rows
    }
    invalidated = adjusted = retained = 0
    #: context -> list of memo keys whose counts await batched adjustment.
    pending: Dict[int, List[tuple]] = {}
    for key in list(memo):
        context = key[2]
        patch = patches_by_context.get(context)
        if patch is not None:
            entry = memo[key]
            count, exceeded, limit_used = entry
            if exceeded:
                # Failing exact checks and "over budget" counts are final
                # under appends (counts only grow): kept verbatim, no
                # kernel runs — that is "retained", not "adjusted".
                retained += 1
            elif limit_used is None:
                # Passing exact check: re-check only the added classes.
                memo[key] = (
                    0, not _holds(key[0], key, patch[1], encoded, names), None
                )
                adjusted += 1
            elif context in oversized:
                del memo[key]
                invalidated += 1
            else:
                pending.setdefault(context, []).append(key)
        elif context not in cached:
            del memo[key]
            invalidated += 1
        else:
            retained += 1
    for context, keys in pending.items():
        _adjust_counts_batched(
            memo, keys, patches_by_context[context], encoded, names
        )
        adjusted += len(keys)
    return invalidated, adjusted, retained


def _adjust_counts_batched(memo, keys, patch, encoded, names) -> None:
    """Adjust the exact-count entries of one context in batch kernel calls.

    All candidates of a context share the patch classes, so the removed and
    added contributions come out of two batched kernel dispatches per kind
    instead of two kernel calls per candidate.
    """
    removed, added = patch
    backend = encoded.backend
    oc_optimal = [key for key in keys if key[0] == "oc" and key[1] == "optimal"]
    if oc_optimal:
        pairs = [
            (encoded.kernel_ranks(names[key[3]]),
             encoded.kernel_ranks(names[key[4]]))
            for key in oc_optimal
        ]
        deltas = _batched_oc_counts(backend, removed, added, pairs)
        for key, delta in zip(oc_optimal, deltas):
            count, _, limit_used = memo[key]
            memo[key] = (count + delta, False, limit_used)
    ofd_approx = [key for key in keys if key[0] == "ofd"]
    if ofd_approx:
        columns = [encoded.kernel_ranks(names[key[3]]) for key in ofd_approx]
        removed_counts = (
            [count for count, _ in backend.ofd_removal_batch(
                removed, columns, None)]
            if removed else [0] * len(columns)
        )
        added_counts = (
            [count for count, _ in backend.ofd_removal_batch(
                added, columns, None)]
            if added else [0] * len(columns)
        )
        for key, r, a in zip(ofd_approx, removed_counts, added_counts):
            count, _, limit_used = memo[key]
            memo[key] = (count - r + a, False, limit_used)
    # The greedy (iterative) validator has no batch kernel; loop.
    for key in keys:
        if key[0] == "oc" and key[1] == "iterative":
            count, _, limit_used = memo[key]
            adjusted_count = (
                count
                - _greedy_count(key, removed, encoded, names)
                + _greedy_count(key, added, encoded, names)
            )
            memo[key] = (adjusted_count, False, limit_used)


def _batched_oc_counts(backend, removed, added, pairs) -> List[int]:
    """Per-pair count deltas ``added - removed`` via the batch kernel."""
    if removed:
        removed_counts = [
            count for count, _ in backend.oc_optimal_removal_count_batch(
                removed, pairs, None
            )
        ]
    else:
        removed_counts = [0] * len(pairs)
    if added:
        added_counts = [
            count for count, _ in backend.oc_optimal_removal_count_batch(
                added, pairs, None
            )
        ]
    else:
        added_counts = [0] * len(pairs)
    return [a - r for r, a in zip(removed_counts, added_counts)]


def _holds(kind, key, classes, encoded, names) -> bool:
    """An exact check over ``classes``: a removal count at limit 0."""
    backend = encoded.backend
    if kind == "oc":
        [(_, exceeded)] = backend.oc_optimal_removal_count_batch(classes, [
            (encoded.kernel_ranks(names[key[3]]),
             encoded.kernel_ranks(names[key[4]]))
        ], 0)
    else:
        [(_, exceeded)] = backend.ofd_removal_batch(
            classes, [encoded.kernel_ranks(names[key[3]])], 0
        )
    return not exceeded


def _greedy_count(key, classes, encoded, names) -> int:
    """An iterative-validator OC's removal contribution over ``classes``.

    Algorithm 1 (greedy) is per-class independent as well; it runs on
    canonical rank lists, mirroring the engine's dispatch.
    """
    if not classes:
        return 0
    removal, _ = iterative_removal_rows(
        classes, encoded.ranks(names[key[3]]), encoded.ranks(names[key[4]]),
        None,
    )
    return len(removal)
