"""Violation semantics: swaps, splits and direct (brute-force) OD checks.

Definitions 2.5 and 2.6 of the paper:

* a **swap** w.r.t. the OC ``X: A ~ B`` is a pair of tuples ``s, t`` in the
  same equivalence class of ``X`` with ``s ≺_A t`` but ``t ≺_B s``;
* a **split** w.r.t. the FD ``X -> Y`` is a pair with ``s_X = t_X`` but
  ``s_Y ≠ t_Y``.

The functions here enumerate violations by brute force (quadratic in the
class size).  They are *not* used by the discovery framework — that is what
the validators in :mod:`repro.validation` are for — but they provide the
ground truth the tests and the removal-set experiments (Exp-4) compare
against, and they power the violation reports of
:mod:`repro.applications.outlier_detection`.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.dataset.relation import Relation
from repro.dependencies.nested_order import nested_compare
from repro.dependencies.oc import CanonicalOC
from repro.dependencies.od import ListOD
from repro.dependencies.ofd import OFD


def _context_classes(relation: Relation, context: Iterable[str]) -> List[List[int]]:
    """Stripped equivalence classes of the context, grouped by hand.

    Singleton classes can contain no violating pair, so the stripped
    classes are sufficient for violation enumeration.  Rows are grouped by
    their rank tuples with a plain dict, not through the partition code
    the discovery framework runs, so this ground truth shares none of it:
    classes come out in first-row order, rows ascending.
    """
    context = list(context)
    encoded = relation.encoded()
    columns = [encoded.ranks(a) for a in context]
    groups: Dict[Tuple[int, ...], List[int]] = {}
    for row in range(relation.num_rows):
        groups.setdefault(tuple(c[row] for c in columns), []).append(row)
    return [rows for rows in groups.values() if len(rows) >= 2]


def find_swaps(relation: Relation, oc: CanonicalOC) -> List[Tuple[int, int]]:
    """Enumerate all swap pairs (row indices, ``i < j``) w.r.t. a canonical OC."""
    encoded = relation.encoded()
    a_ranks = encoded.ranks(oc.a)
    b_ranks = encoded.ranks(oc.b)
    swaps: List[Tuple[int, int]] = []
    for class_rows in _context_classes(relation, oc.context):
        for s, t in combinations(class_rows, 2):
            a_cmp = (a_ranks[s] > a_ranks[t]) - (a_ranks[s] < a_ranks[t])
            b_cmp = (b_ranks[s] > b_ranks[t]) - (b_ranks[s] < b_ranks[t])
            if a_cmp * b_cmp == -1:  # strictly opposite orders on A and B
                swaps.append((min(s, t), max(s, t)))
    swaps.sort()
    return swaps


def count_swaps(relation: Relation, oc: CanonicalOC) -> int:
    """Number of swap pairs w.r.t. a canonical OC."""
    return len(find_swaps(relation, oc))


def find_splits(relation: Relation, ofd: OFD) -> List[Tuple[int, int]]:
    """Enumerate all split pairs (row indices, ``i < j``) w.r.t. an OFD.

    A split is a pair of tuples agreeing on the context but disagreeing on
    the OFD's attribute.
    """
    encoded = relation.encoded()
    value_ranks = encoded.ranks(ofd.attribute)
    splits: List[Tuple[int, int]] = []
    for class_rows in _context_classes(relation, ofd.context):
        for s, t in combinations(class_rows, 2):
            if value_ranks[s] != value_ranks[t]:
                splits.append((min(s, t), max(s, t)))
    splits.sort()
    return splits


def count_splits(relation: Relation, ofd: OFD) -> int:
    """Number of split pairs w.r.t. an OFD."""
    return len(find_splits(relation, ofd))


def oc_holds(relation: Relation, oc: CanonicalOC) -> bool:
    """Brute-force check of a canonical OC: no swaps exist."""
    return not find_swaps(relation, oc)


def ofd_holds(relation: Relation, ofd: OFD) -> bool:
    """Brute-force check of an OFD: no splits exist."""
    return not find_splits(relation, ofd)


def od_holds(relation: Relation, od: ListOD) -> bool:
    """Brute-force check of a list-based OD straight from Definition 2.2.

    ``r |= X ↦→ Y`` iff for all tuple pairs ``s, t``: ``s ⪯_X t`` implies
    ``s ⪯_Y t``.  Quadratic in the number of tuples — intended for tests and
    small examples only.
    """
    encoded = relation.encoded()
    lhs = list(od.lhs)
    rhs = list(od.rhs)
    for s in range(relation.num_rows):
        for t in range(relation.num_rows):
            if s == t:
                continue
            if nested_compare(encoded, s, t, lhs) <= 0:
                if nested_compare(encoded, s, t, rhs) > 0:
                    return False
    return True


def order_equivalent(relation: Relation, x: Sequence[str], y: Sequence[str]) -> bool:
    """Brute-force check of order equivalence ``X ↔ Y`` (Definition 2.2)."""
    return od_holds(relation, ListOD(x, y)) and od_holds(relation, ListOD(y, x))


def order_compatible(relation: Relation, x: Sequence[str], y: Sequence[str]) -> bool:
    """Brute-force check of list order compatibility ``X ~ Y``
    (Definition 2.3: ``XY ↔ YX``)."""
    xy = list(x) + [a for a in y if a not in x]
    yx = list(y) + [a for a in x if a not in y]
    return order_equivalent(relation, xy, yx)


def removal_set_is_valid(relation: Relation, oc: CanonicalOC,
                         removal_rows: Iterable[int]) -> bool:
    """Check that dropping ``removal_rows`` makes the OC hold (Definition 2.14).

    Used by tests and Exp-4 to certify removal sets returned by either
    validator.
    """
    remaining = relation.drop_rows(removal_rows)
    return oc_holds(remaining, oc)


def minimal_removal_size_bruteforce(relation: Relation, oc: CanonicalOC) -> int:
    """Exact minimal removal set size by exhaustive search.

    Exponential — only usable on very small relations; serves as the ground
    truth oracle in property-based tests of Theorem 3.3 (minimality of the
    LNDS-based removal set).
    """
    rows = list(range(relation.num_rows))
    if oc_holds(relation, oc):
        return 0
    for size in range(1, relation.num_rows + 1):
        for candidate in combinations(rows, size):
            if removal_set_is_valid(relation, oc, candidate):
                return size
    return relation.num_rows
