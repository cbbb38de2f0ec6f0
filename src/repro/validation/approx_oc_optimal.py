"""Algorithm 2 — the paper's optimal LNDS-based AOC validator.

For each equivalence class ``E`` of the context:

1. order the class by ``[A ASC, B ASC]`` (line 3),
2. compute a longest non-decreasing subsequence of the projection over
   ``B`` (line 4),
3. the tuples *not* on that subsequence join the removal set (line 5).

The union over classes is a **minimal** removal set for the OC
(Theorem 3.3) and the overall runtime is ``O(n log n)`` (worst case
``m = n`` for a single class), which matches the ``Ω(n log n)`` lower bound
proved by reduction from LIS-DEC (Theorem 3.4).

The module exposes two layers:

* :func:`optimal_removal_rows` — the kernel over pre-materialised classes
  and rank columns, which is what the discovery framework calls in its
  inner loop;
* :func:`validate_aoc_optimal` — the public single-candidate API on a
  :class:`Relation`.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.dataset.partition import PartitionCache
from repro.dataset.relation import Relation
from repro.dataset.sorting import projection, sort_class_asc_asc
from repro.dependencies.oc import CanonicalOC
from repro.validation.common import context_classes, removal_limit, validation_backend
from repro.validation.lnds import lnds_indices, lnds_length
from repro.validation.result import ValidationResult


def class_removal_rows(
    class_rows: Sequence[int],
    a_ranks: Sequence[int],
    b_ranks: Sequence[int],
) -> List[int]:
    """Minimal removal rows for a single equivalence class.

    The class is sorted by ``[A ASC, B ASC]``; rows not on a longest
    non-decreasing subsequence of the ``B`` projection must be removed.
    """
    ordered = sort_class_asc_asc(class_rows, a_ranks, b_ranks)
    values = projection(ordered, b_ranks)
    kept_positions = set(lnds_indices(values))
    return [row for position, row in enumerate(ordered)
            if position not in kept_positions]


def class_removal_count(
    class_rows: Sequence[int],
    a_ranks: Sequence[int],
    b_ranks: Sequence[int],
) -> int:
    """Size of the minimal removal set of one class (no reconstruction).

    Cheaper than :func:`class_removal_rows` because only the LNDS *length*
    is needed; used when the caller only wants the approximation factor.
    """
    ordered = sort_class_asc_asc(class_rows, a_ranks, b_ranks)
    values = projection(ordered, b_ranks)
    return len(values) - lnds_length(values)


def optimal_removal_rows(
    classes: Sequence[Sequence[int]],
    a_ranks: Sequence[int],
    b_ranks: Sequence[int],
    limit: Optional[int] = None,
) -> Tuple[List[int], bool]:
    """Minimal removal rows for an AOC over pre-built context classes.

    When ``limit`` is given the computation stops as soon as the removal set
    provably exceeds it (the candidate is then "INVALID" w.r.t. the
    threshold); the partial set collected so far is returned with the
    ``exceeded`` flag set.  Because every class's contribution is itself
    minimal, stopping early never mislabels a valid candidate.
    """
    removal: List[int] = []
    for class_rows in classes:
        removal.extend(class_removal_rows(class_rows, a_ranks, b_ranks))
        if limit is not None and len(removal) > limit:
            return removal, True
    return removal, False


def optimal_removal_count(
    classes: Sequence[Sequence[int]],
    a_ranks: Sequence[int],
    b_ranks: Sequence[int],
    limit: Optional[int] = None,
) -> Tuple[int, bool]:
    """Size of the minimal removal set (count-only fast path)."""
    count = 0
    for class_rows in classes:
        count += class_removal_count(class_rows, a_ranks, b_ranks)
        if limit is not None and count > limit:
            return count, True
    return count, False


def validate_aoc_optimal(
    relation: Relation,
    oc: CanonicalOC,
    threshold: Optional[float] = None,
    partition_cache: Optional[PartitionCache] = None,
    backend=None,
) -> ValidationResult:
    """Validate an approximate OC with Algorithm 2 (optimal, minimal).

    Parameters
    ----------
    relation:
        The table instance ``r``.
    oc:
        The canonical OC candidate ``X: A ~ B``.
    threshold:
        Approximation threshold ``ε``; when given, validation may stop early
        once the removal set exceeds ``ε·|r|`` (the paper's "INVALID"
        outcome).  When ``None``, the exact approximation factor and a full
        minimal removal set are always computed.
    partition_cache:
        Optional partition cache shared across candidates.
    backend:
        Compute backend (instance, name or ``None`` for the default); all
        backends return identical results.

    Examples
    --------
    >>> from repro.dataset.examples import employee_salary_table
    >>> from repro.dependencies import CanonicalOC
    >>> table = employee_salary_table()
    >>> result = validate_aoc_optimal(table, CanonicalOC([], "sal", "tax"))
    >>> result.removal_size, round(result.approximation_factor, 2)
    (4, 0.44)
    """
    backend = validation_backend(backend, partition_cache)
    encoded = relation.encoded(backend)
    classes = context_classes(relation, oc.context, partition_cache, backend)
    removal, exceeded = optimal_removal_rows(
        classes, encoded.ranks(oc.a), encoded.ranks(oc.b),
        removal_limit(relation.num_rows, threshold),
    )
    return ValidationResult(
        dependency=oc,
        num_rows=relation.num_rows,
        removal_rows=frozenset(removal),
        threshold=threshold,
        exceeded_threshold=exceeded,
    )
