"""Exact validation of canonical order compatibilities.

A canonical OC ``X: A ~ B`` holds exactly iff no equivalence class of ``X``
contains a swap, which is the case iff, after sorting each class by
``[A ASC, B ASC]``, the projection over ``B`` is non-decreasing.  Given
pre-sorted classes this check is linear in the class size, which is why the
paper contrasts the exact validator's ``O(n)`` with the approximate
validator's ``O(n log n)``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.dataset.partition import PartitionCache
from repro.dataset.relation import Relation
from repro.dataset.sorting import is_non_decreasing, projection, sort_class_asc_asc
from repro.dependencies.oc import CanonicalOC
from repro.validation.common import context_classes, validation_backend
from repro.validation.result import ValidationResult


def oc_holds_in_classes(
    classes: Sequence[Sequence[int]],
    a_ranks: Sequence[int],
    b_ranks: Sequence[int],
) -> bool:
    """Exact OC check over pre-materialised context classes."""
    for class_rows in classes:
        ordered = sort_class_asc_asc(class_rows, a_ranks, b_ranks)
        if not is_non_decreasing(projection(ordered, b_ranks)):
            return False
    return True


def first_swap_in_classes(
    classes: Sequence[Sequence[int]],
    a_ranks: Sequence[int],
    b_ranks: Sequence[int],
) -> Optional[tuple]:
    """Return one witnessing swap pair ``(s, t)`` if the OC is violated.

    Useful for error messages and the outlier-detection application; returns
    ``None`` when the OC holds.
    """
    for class_rows in classes:
        ordered = sort_class_asc_asc(class_rows, a_ranks, b_ranks)
        values = projection(ordered, b_ranks)
        best_row = ordered[0]
        best_value = values[0]
        for position in range(1, len(ordered)):
            if values[position] < best_value:
                return (best_row, ordered[position])
            if values[position] >= best_value:
                best_value = values[position]
                best_row = ordered[position]
    return None


def validate_exact_oc(
    relation: Relation,
    oc: CanonicalOC,
    partition_cache: Optional[PartitionCache] = None,
    backend=None,
) -> ValidationResult:
    """Validate a canonical OC exactly (no tuple removals allowed).

    The returned :class:`ValidationResult` has an empty removal set when the
    OC holds; otherwise ``exceeded_threshold`` is set with a zero threshold,
    mirroring the exact-discovery special case ``ε = 0``: the check is the
    backend's removal count at limit 0.
    """
    backend = validation_backend(backend, partition_cache)
    encoded = relation.encoded(backend)
    a_ranks = encoded.native_ranks(oc.a)
    b_ranks = encoded.native_ranks(oc.b)
    classes = context_classes(relation, oc.context, partition_cache, backend)
    [(_, exceeded)] = backend.oc_optimal_removal_count_batch(
        classes, [(a_ranks, b_ranks)], 0
    )
    return ValidationResult(
        dependency=oc,
        num_rows=relation.num_rows,
        removal_rows=frozenset(),
        threshold=0.0,
        exceeded_threshold=exceeded,
    )
