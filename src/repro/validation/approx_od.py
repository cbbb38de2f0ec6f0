"""Approximate OD validation — the Section 3.3 extension of Algorithm 2.

Algorithm 2 validates approximate OCs.  The same LNDS machinery extends to
full order dependencies by changing only the sort order:

* **canonical ODs** ``X: A ↦→ B``: within each equivalence class of ``X``,
  order tuples by ``A`` *ascending* breaking ties by ``B`` *descending*,
  then remove everything not on a longest non-decreasing subsequence of the
  ``B`` projection.  The descending tie-break forces any split (two tuples
  with equal ``A`` but different ``B``) to appear as a strict decrease, so
  the LNDS removes splits as well as swaps — and the removal set remains
  minimal by the same exchange argument as Theorem 3.3.

* **list-based ODs** ``X ↦→ Y`` (footnote 1): order all tuples by the nested
  order over ``X`` ascending, breaking ties by the nested order over ``Y``
  descending, and run the LNDS over the (dense-encoded) ``Y`` projection.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.dataset.partition import PartitionCache
from repro.dataset.relation import Relation
from repro.dataset.sorting import projection, sort_class_asc_desc
from repro.dependencies.od import CanonicalOD, ListOD
from repro.validation.common import context_classes, removal_limit, validation_backend
from repro.validation.lnds import lnds_indices
from repro.validation.result import ValidationResult


def class_od_removal_rows(
    class_rows: Sequence[int],
    a_ranks: Sequence[int],
    b_ranks: Sequence[int],
) -> List[int]:
    """Minimal removal rows of one class for the canonical OD ``X: A ↦→ B``."""
    ordered = sort_class_asc_desc(class_rows, a_ranks, b_ranks)
    values = projection(ordered, b_ranks)
    kept = set(lnds_indices(values))
    return [row for position, row in enumerate(ordered) if position not in kept]


def od_removal_rows(
    classes: Sequence[Sequence[int]],
    a_ranks: Sequence[int],
    b_ranks: Sequence[int],
    limit: Optional[int] = None,
) -> Tuple[List[int], bool]:
    """Minimal removal rows for a canonical AOD over pre-built classes."""
    removal: List[int] = []
    for class_rows in classes:
        removal.extend(class_od_removal_rows(class_rows, a_ranks, b_ranks))
        if limit is not None and len(removal) > limit:
            return removal, True
    return removal, False


def validate_aod_optimal(
    relation: Relation,
    od: CanonicalOD,
    threshold: Optional[float] = None,
    partition_cache: Optional[PartitionCache] = None,
    backend=None,
) -> ValidationResult:
    """Validate a canonical approximate OD ``X: A ↦→ B`` with the LNDS method.

    Examples
    --------
    >>> from repro.dataset.examples import employee_salary_table
    >>> from repro.dependencies import CanonicalOD
    >>> table = employee_salary_table()
    >>> od = CanonicalOD([], "sal", "taxGrp")
    >>> validate_aod_optimal(table, od).holds_exactly
    True
    """
    backend = validation_backend(backend, partition_cache)
    encoded = relation.encoded(backend)
    classes = context_classes(relation, od.context, partition_cache, backend)
    removal, exceeded = od_removal_rows(
        classes, encoded.ranks(od.a), encoded.ranks(od.b),
        removal_limit(relation.num_rows, threshold),
    )
    return ValidationResult(
        dependency=od,
        num_rows=relation.num_rows,
        removal_rows=frozenset(removal),
        threshold=threshold,
        exceeded_threshold=exceeded,
    )


def _composite_ranks(relation: Relation, attributes: Sequence[str]) -> List[int]:
    """Dense-encode the nested-order rank of every row over ``attributes``.

    The rank tuples are ordered lexicographically (which *is* the nested
    order of Definition 2.1) and mapped to dense integers so the LNDS kernel
    can consume them directly.
    """
    encoded = relation.encoded()
    rank_columns = [encoded.ranks(a) for a in attributes]
    keys = [tuple(column[row] for column in rank_columns)
            for row in range(relation.num_rows)]
    ordered_keys = sorted(set(keys))
    dense: Dict[Tuple[int, ...], int] = {key: i for i, key in enumerate(ordered_keys)}
    return [dense[key] for key in keys]


def validate_list_aod(
    relation: Relation,
    od: ListOD,
    threshold: Optional[float] = None,
) -> ValidationResult:
    """Validate a list-based approximate OD ``X ↦→ Y`` (Section 3.3, footnote 1).

    Tuples are ordered ascending by the nested order over ``X`` and ties are
    broken descending by the nested order over ``Y``; the complement of a
    longest non-decreasing subsequence of the ``Y`` ranks is a minimal
    removal set.

    Examples
    --------
    >>> from repro.dataset.examples import employee_salary_table
    >>> from repro.dependencies import ListOD
    >>> table = employee_salary_table()
    >>> validate_list_aod(table, ListOD(["sal"], ["taxGrp"])).holds_exactly
    True
    """
    if relation.num_rows == 0:
        return ValidationResult(od, 0, frozenset(), threshold, False)
    x_ranks = _composite_ranks(relation, od.lhs) if od.lhs else [0] * relation.num_rows
    y_ranks = _composite_ranks(relation, od.rhs)
    order = sorted(range(relation.num_rows),
                   key=lambda row: (x_ranks[row], -y_ranks[row]))
    values = [y_ranks[row] for row in order]
    kept = set(lnds_indices(values))
    removal = [row for position, row in enumerate(order) if position not in kept]
    limit = removal_limit(relation.num_rows, threshold)
    exceeded = limit is not None and len(removal) > limit
    return ValidationResult(
        dependency=od,
        num_rows=relation.num_rows,
        removal_rows=frozenset(removal),
        threshold=threshold,
        exceeded_threshold=exceeded,
    )
