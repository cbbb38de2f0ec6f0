"""Algorithm 1 — the iterative (greedy) AOC validator from prior work.

This is the baseline the paper improves on.  To validate ``X: A ~ B`` with
threshold ``ε`` it repeatedly removes, within each equivalence class of the
context, a tuple with the largest number of swaps, updating the remaining
tuples' swap counts after every removal, until no swaps remain or more than
``ε·|r|`` tuples have been removed (in which case the candidate is declared
invalid).

Two well-documented weaknesses (Section 3.2):

* the runtime is ``O(n log n + ε·n²)`` — quadratic in the class size once
  removals start, which is what makes AOD discovery with this validator
  infeasible on larger datasets, and
* the removal set is **not** guaranteed minimal, so the approximation factor
  can be overestimated and borderline-valid AOCs are missed (Example 3.1:
  on Table 1 and ``sal ~ tax`` it removes 5 tuples where 4 suffice).

The implementation mirrors the paper's pseudo-code: initial swap counts come
from an ``O(m log m)`` Fenwick-tree sweep (the paper's inversion counting),
and each removal triggers an ``O(m)`` update pass over the remaining tuples.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.dataset.partition import PartitionCache
from repro.dataset.relation import Relation
from repro.dataset.sorting import projection, sort_class_asc_asc
from repro.dependencies.oc import CanonicalOC
from repro.validation.common import context_classes, removal_limit, validation_backend
from repro.validation.inversions import per_position_swap_counts
from repro.validation.result import ValidationResult


def _is_swap(a_first: int, b_first: int, a_second: int, b_second: int) -> bool:
    """Swap predicate on raw rank pairs: strictly opposite orders on A and B."""
    if a_first == a_second or b_first == b_second:
        return False
    return (a_first < a_second) != (b_first < b_second)


def class_greedy_removal(
    class_rows: Sequence[int],
    a_ranks: Sequence[int],
    b_ranks: Sequence[int],
    budget: Optional[int] = None,
) -> Tuple[List[int], bool]:
    """Greedy removal within one equivalence class (Algorithm 1, lines 3-15).

    Returns ``(removed_rows, exceeded)``: ``exceeded`` is set when the
    number of removals in this class alone would push the global removal set
    past ``budget`` (the caller passes the remaining global budget).
    """
    ordered = sort_class_asc_asc(class_rows, a_ranks, b_ranks)
    a_values = projection(ordered, a_ranks)
    b_values = projection(ordered, b_ranks)
    swap_counts = per_position_swap_counts(a_values, b_values)

    alive = list(range(len(ordered)))
    removed: List[int] = []
    while alive:
        # Pick the position with the largest swap count (the paper sorts
        # ascending and drops the last element; ties may be broken
        # arbitrarily — we take the last maximal position for determinism).
        best = max(alive, key=lambda position: (swap_counts[position], position))
        if swap_counts[best] == 0:
            break  # no swaps remain in this class (line 8)
        alive.remove(best)
        removed.append(ordered[best])
        if budget is not None and len(removed) > budget:
            return removed, True
        # Update swap counts of the remaining tuples (lines 9-11).
        for position in alive:
            if _is_swap(a_values[best], b_values[best],
                        a_values[position], b_values[position]):
                swap_counts[position] -= 1
    return removed, False


def iterative_removal_rows(
    classes: Sequence[Sequence[int]],
    a_ranks: Sequence[int],
    b_ranks: Sequence[int],
    limit: Optional[int] = None,
) -> Tuple[List[int], bool]:
    """Greedy removal rows for an AOC over pre-built context classes.

    ``limit`` is the global budget ``⌊ε·|r|⌋``; crossing it aborts with the
    ``exceeded`` flag set (the candidate is "INVALID"), exactly as in the
    paper's line 14.
    """
    removal: List[int] = []
    for class_rows in classes:
        budget = None if limit is None else limit - len(removal)
        removed, exceeded = class_greedy_removal(
            class_rows, a_ranks, b_ranks, budget
        )
        removal.extend(removed)
        if exceeded:
            return removal, True
    return removal, False


def validate_aoc_iterative(
    relation: Relation,
    oc: CanonicalOC,
    threshold: Optional[float] = None,
    partition_cache: Optional[PartitionCache] = None,
    backend=None,
) -> ValidationResult:
    """Validate an approximate OC with the iterative greedy baseline.

    The reported removal set makes the OC hold but may be larger than
    minimal, so the approximation factor may be overestimated (see
    Example 3.1 and Exp-4 of the paper).

    Examples
    --------
    >>> from repro.dataset.examples import employee_salary_table
    >>> from repro.dependencies import CanonicalOC
    >>> table = employee_salary_table()
    >>> result = validate_aoc_iterative(table, CanonicalOC([], "sal", "tax"))
    >>> result.removal_size  # the optimal validator removes only 4
    5
    """
    backend = validation_backend(backend, partition_cache)
    encoded = relation.encoded(backend)
    classes = context_classes(relation, oc.context, partition_cache, backend)
    removal, exceeded = iterative_removal_rows(
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
