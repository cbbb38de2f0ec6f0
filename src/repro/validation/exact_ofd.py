"""Exact validation of order functional dependencies (OFDs).

``X: [] ↦→ A`` holds exactly iff ``A`` is constant within every equivalence
class of ``X`` — i.e. the partition ``Pi_X`` refines ``Pi_{X ∪ {A}}`` with no
class splitting.  With stripped partitions the check is linear in the number
of grouped rows.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.dataset.partition import PartitionCache
from repro.dataset.relation import Relation
from repro.dependencies.ofd import OFD
from repro.validation.common import context_classes, validation_backend
from repro.validation.result import ValidationResult


def ofd_holds_in_classes(
    classes: Sequence[Sequence[int]], value_ranks: Sequence[int]
) -> bool:
    """Exact OFD check over pre-materialised context classes."""
    for class_rows in classes:
        first = value_ranks[class_rows[0]]
        for row in class_rows[1:]:
            if value_ranks[row] != first:
                return False
    return True


def validate_exact_ofd(
    relation: Relation,
    ofd: OFD,
    partition_cache: Optional[PartitionCache] = None,
    backend=None,
) -> ValidationResult:
    """Validate an OFD exactly (the attribute must be constant per class):
    the backend's removal count at limit 0."""
    backend = validation_backend(backend, partition_cache)
    encoded = relation.encoded(backend)
    value_ranks = encoded.native_ranks(ofd.attribute)
    classes = context_classes(relation, ofd.context, partition_cache, backend)
    [(_, exceeded)] = backend.ofd_removal_batch(classes, [value_ranks], 0)
    return ValidationResult(
        dependency=ofd,
        num_rows=relation.num_rows,
        removal_rows=frozenset(),
        threshold=0.0,
        exceeded_threshold=exceeded,
    )
