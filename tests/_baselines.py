"""Baseline discovery algorithms, kept as cross-checks for the tests.

Neither runs inside the system: ``tests/baselines/`` checks them, and
``tests/validation/test_removal_limit.py`` also runs TANE at a removal
budget that lands on a row multiple.

TANE (Huhtala, Kärkkäinen, Porkka, Toivonen 1999) is the classic level-wise,
partition-based FD discovery algorithm; the paper cites it both as the
source of the linear-time approximate-FD validation reused for OFDs and as
one of the reference systems in the raw evaluation data.  This
implementation covers the parts of TANE the reproduction needs:

* level-wise traversal of the attribute-set lattice with ``C+`` candidate
  sets and prefix-join level generation,
* exact FD validation via stripped-partition error counts,
* approximate FD validation via the ``g3`` measure (minimum tuple removals),
* key pruning (a candidate set that is a superkey stops producing
  candidates).

It is intentionally independent of the OD machinery so it can serve as an
external cross-check: every exact OFD found by the OD framework must
correspond to an FD found by TANE and vice versa.

The bounded list-based OD discovery follows ORDER (Langer & Naumann 2016).
The paper contrasts the set-based canonical framework (exponential in the
number of attributes) with list-based discovery, whose search space over
attribute *lists* is factorial:

* candidate ODs are lists ``X ↦→ Y`` built level-wise by extending valid
  shorter candidates on either side (prefix pruning: if ``X ↦→ Y`` fails
  with a swap, no extension of ``Y`` can fix it; if it fails only with
  splits, extending ``Y`` may still help — mirroring ORDER's
  swap/split-aware pruning),
* validation sorts once per candidate and scans linearly,
* the search is capped by ``max_list_length`` because the factorial
  explosion is exactly the point being demonstrated.

It reports plain list-based ODs ``[A] ↦→ [B]``-style statements; the tests
cross-check its level-1/2 output against the canonical framework through
the mapping of Section 2.2.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import combinations
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.dataset.partition import Partition, PartitionCache
from repro.dataset.relation import Relation
from repro.dependencies.fd import FD
from repro.dependencies.od import ListOD
from repro.validation.common import removal_limit

AttributeSet = FrozenSet[str]


@dataclass(frozen=True)
class DiscoveredFD:
    """An FD found by TANE, with its ``g3`` approximation factor."""

    fd: FD
    approximation_factor: float
    level: int

    @property
    def is_exact(self) -> bool:
        return self.approximation_factor == 0.0


@dataclass
class TaneResult:
    """Outcome of one TANE run."""

    fds: List[DiscoveredFD] = field(default_factory=list)
    total_seconds: float = 0.0
    candidates_validated: int = 0
    threshold: float = 0.0

    @property
    def num_fds(self) -> int:
        return len(self.fds)

    def fd_statements(self) -> Set[Tuple[AttributeSet, str]]:
        """``{(lhs, rhs)}`` pairs, for set comparisons against other runs."""
        return {(found.fd.lhs, found.fd.rhs) for found in self.fds}


def _g3_removal_count(context_partition: Partition, value_ranks: Sequence[int]) -> int:
    """Minimum number of tuples to remove so the FD holds (``g3`` numerator)."""
    removals = 0
    for class_rows in context_partition:
        counts: Dict[int, int] = {}
        for row in class_rows:
            counts[value_ranks[row]] = counts.get(value_ranks[row], 0) + 1
        removals += len(class_rows) - max(counts.values())
    return removals


def discover_fds_tane(
    relation: Relation,
    threshold: float = 0.0,
    attributes: Optional[Sequence[str]] = None,
    max_level: Optional[int] = None,
) -> TaneResult:
    """Discover all minimal (approximate) FDs ``X -> A`` with ``g3 <= threshold``.

    Parameters mirror :func:`repro.discovery.discover_aods`; ``threshold=0``
    yields exact FDs only.
    """
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold must be in [0, 1], got {threshold}")
    names = list(attributes if attributes is not None else relation.attribute_names)
    encoded = relation.encoded()
    cache = PartitionCache(encoded)
    num_rows = relation.num_rows
    limit = removal_limit(num_rows, threshold)
    result = TaneResult(threshold=threshold)
    start = time.perf_counter()

    # C+ candidate sets, keyed by attribute set.
    cplus: Dict[AttributeSet, Set[str]] = {frozenset(): set(names)}
    current: List[AttributeSet] = [frozenset({name}) for name in names]
    level = 1

    while current:
        if max_level is not None and level > max_level:
            break
        next_cplus: Dict[AttributeSet, Set[str]] = {}
        survivors: List[AttributeSet] = []
        for node in sorted(current, key=lambda s: tuple(sorted(s))):
            candidates: Optional[Set[str]] = None
            for attribute in node:
                parent = cplus.get(node - {attribute}, set())
                candidates = set(parent) if candidates is None else candidates & parent
            candidates = candidates if candidates is not None else set(names)

            for attribute in sorted(node & candidates):
                lhs = node - {attribute}
                partition = cache.get_by_names(sorted(lhs))
                value_ranks = encoded.ranks(attribute)
                removal = _g3_removal_count(partition, value_ranks)
                result.candidates_validated += 1
                if removal <= limit:
                    if lhs:
                        fd = FD(lhs, attribute)
                    else:
                        fd = FD.__new__(FD)
                        fd.lhs = frozenset()
                        fd.rhs = attribute
                    result.fds.append(
                        DiscoveredFD(
                            fd=fd,
                            approximation_factor=(
                                removal / num_rows if num_rows else 0.0
                            ),
                            level=level,
                        )
                    )
                    candidates.discard(attribute)
                    if removal == 0:
                        candidates -= set(names) - node

            # Key pruning (TANE): if the node is an exact (super)key, every
            # remaining candidate A outside the node yields the minimal FD
            # X -> A right here; afterwards the node cannot produce anything
            # new and is emptied so no superset is generated through it.
            # The rule is only sound for exact discovery (Huhtala et al. §4.3):
            # with a non-zero threshold a pruned superset could still carry a
            # minimal *approximate* FD, so it is skipped in that case.
            node_partition = cache.get_by_names(sorted(node))
            if threshold == 0.0 and node_partition.error_rows() == 0:
                for attribute in sorted(candidates - node):
                    result.fds.append(
                        DiscoveredFD(
                            fd=FD(node, attribute),
                            approximation_factor=0.0,
                            level=level,
                        )
                    )
                candidates = set()

            next_cplus[node] = candidates
            if candidates:
                survivors.append(node)

        # Prefix-join level generation over surviving nodes.
        survivor_set = set(survivors)
        by_prefix: Dict[Tuple[str, ...], List[Tuple[str, ...]]] = {}
        for node in survivors:
            ordered = tuple(sorted(node))
            by_prefix.setdefault(ordered[:-1], []).append(ordered)
        next_level: Set[AttributeSet] = set()
        for group in by_prefix.values():
            for first, second in combinations(group, 2):
                joined = frozenset(first) | frozenset(second)
                if all(joined - {a} in survivor_set for a in joined):
                    next_level.add(joined)

        cplus = next_cplus
        current = sorted(next_level, key=lambda s: tuple(sorted(s)))
        level += 1

    result.total_seconds = time.perf_counter() - start
    return result


# -- list-based OD discovery (ORDER) -----------------------------------------

@dataclass(frozen=True)
class ValidatedListOD:
    """A list-based OD found valid, with the violation-free witness order."""

    od: ListOD
    level: int


@dataclass
class ListODResult:
    """Outcome of a bounded list-based OD discovery run."""

    ods: List[ValidatedListOD] = field(default_factory=list)
    candidates_checked: int = 0
    total_seconds: float = 0.0
    truncated: bool = False

    @property
    def num_ods(self) -> int:
        return len(self.ods)

    def statements(self) -> Set[Tuple[Tuple[str, ...], Tuple[str, ...]]]:
        return {(found.od.lhs, found.od.rhs) for found in self.ods}


def _check_list_od(relation: Relation, od: ListOD) -> Tuple[bool, bool]:
    """Validate a list OD with one sort + linear scan.

    Returns ``(holds, has_swap)``: ``has_swap`` distinguishes order-
    compatibility violations from pure split violations, which drives the
    pruning decision (a swap can never be repaired by appending attributes
    to the right-hand side, a split can).
    """
    encoded = relation.encoded()
    lhs_columns = [encoded.ranks(a) for a in od.lhs]
    rhs_columns = [encoded.ranks(a) for a in od.rhs]

    def lhs_key(row: int) -> Tuple[int, ...]:
        return tuple(column[row] for column in lhs_columns)

    def rhs_key(row: int) -> Tuple[int, ...]:
        return tuple(column[row] for column in rhs_columns)

    order = sorted(range(relation.num_rows), key=lambda row: (lhs_key(row), rhs_key(row)))
    holds = True
    has_swap = False
    for previous, current in zip(order, order[1:]):
        same_lhs = lhs_key(current) == lhs_key(previous)
        if same_lhs and rhs_key(current) != rhs_key(previous):
            # Split: equal LHS projections must imply equal RHS projections.
            holds = False
        elif not same_lhs and rhs_key(current) < rhs_key(previous):
            # Swap: the RHS order decreases although the LHS order increases.
            holds = False
            has_swap = True
    return holds, has_swap


def discover_list_ods(
    relation: Relation,
    attributes: Optional[Sequence[str]] = None,
    max_list_length: int = 2,
    max_candidates: int = 100_000,
) -> ListODResult:
    """Discover list-based ODs ``X ↦→ Y`` with both sides up to a length cap.

    The candidate space is all pairs of disjoint-or-overlapping attribute
    lists up to ``max_list_length`` per side, generated level-wise with
    swap-based pruning.  ``max_candidates`` bounds the run on wide schemas
    (the factorial blow-up the set-based framework avoids); when hit, the
    result is marked ``truncated``.
    """
    names = list(attributes if attributes is not None else relation.attribute_names)
    result = ListODResult()
    start = time.perf_counter()

    # Level 1: single-attribute sides.
    current: List[ListOD] = []
    for lhs in names:
        for rhs in names:
            if lhs == rhs:
                continue
            current.append(ListOD([lhs], [rhs]))

    level = 1
    swap_failed: Set[Tuple[Tuple[str, ...], Tuple[str, ...]]] = set()
    while current and level <= max_list_length:
        next_candidates: List[ListOD] = []
        for od in current:
            if result.candidates_checked >= max_candidates:
                result.truncated = True
                break
            result.candidates_checked += 1
            holds, has_swap = _check_list_od(relation, od)
            if holds:
                result.ods.append(ValidatedListOD(od=od, level=level))
                continue  # minimal: do not extend a valid OD
            if has_swap:
                swap_failed.add((od.lhs, od.rhs))
                continue  # a swap can never be repaired by extending the RHS
            # Split-only failure: extending the RHS may make the OD hold.
            for extension in names:
                if extension in od.rhs:
                    continue
                if len(od.rhs) + 1 > max_list_length:
                    continue
                next_candidates.append(ListOD(od.lhs, list(od.rhs) + [extension]))
        if result.truncated:
            break
        # Also extend the LHS of swap-failed candidates: a longer LHS refines
        # the order and can remove swaps.
        if level < max_list_length:
            for lhs, rhs in sorted(swap_failed):
                if len(lhs) + 1 > max_list_length:
                    continue
                for extension in names:
                    if extension in lhs:
                        continue
                    next_candidates.append(ListOD(list(lhs) + [extension], rhs))
            swap_failed.clear()
        current = next_candidates
        level += 1

    result.total_seconds = time.perf_counter() - start
    return result
