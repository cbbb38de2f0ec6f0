"""Approximate OFD validation (the linear-time ``g3`` measure).

The paper relies on the established result (Huhtala et al., TANE) that
approximate FDs — and therefore approximate OFDs, which are the same
statement in the canonical framework — can be validated in linear time: for
each equivalence class of the context keep the most frequent value of the
right-hand-side attribute and remove the rest.  The resulting removal set is
minimal for the split-only violation type, so the approximation factor is
exact.
"""

from __future__ import annotations

from collections import Counter
from typing import List, Optional, Sequence, Tuple

from repro.dataset.partition import PartitionCache
from repro.dataset.relation import Relation
from repro.dependencies.ofd import OFD
from repro.validation.common import context_classes, removal_limit, validation_backend
from repro.validation.result import ValidationResult


def aofd_removal_rows(
    classes: Sequence[Sequence[int]],
    value_ranks: Sequence[int],
    limit: Optional[int] = None,
) -> Tuple[List[int], bool]:
    """Minimal removal rows for an approximate OFD over pre-built classes.

    For every class, all rows not carrying the class's most frequent value
    must be removed.  When ``limit`` is given, validation aborts as soon as
    the removal set grows beyond it and ``(partial_rows, True)`` is
    returned.
    """
    removal: List[int] = []
    for class_rows in classes:
        frequencies = Counter(value_ranks[row] for row in class_rows)
        keep_value, _ = frequencies.most_common(1)[0]
        for row in class_rows:
            if value_ranks[row] != keep_value:
                removal.append(row)
        if limit is not None and len(removal) > limit:
            return removal, True
    return removal, False


def validate_aofd(
    relation: Relation,
    ofd: OFD,
    threshold: Optional[float] = None,
    partition_cache: Optional[PartitionCache] = None,
    backend=None,
) -> ValidationResult:
    """Validate an approximate OFD; the removal set returned is minimal."""
    backend = validation_backend(backend, partition_cache)
    encoded = relation.encoded(backend)
    classes = context_classes(relation, ofd.context, partition_cache, backend)
    removal, exceeded = aofd_removal_rows(
        classes, encoded.ranks(ofd.attribute),
        removal_limit(relation.num_rows, threshold),
    )
    return ValidationResult(
        dependency=ofd,
        num_rows=relation.num_rows,
        removal_rows=frozenset(removal),
        threshold=threshold,
        exceeded_threshold=exceeded,
    )
