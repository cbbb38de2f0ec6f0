"""The set-based attribute lattice traversed by the discovery framework.

Attribute sets are ``int`` bitmasks.  Bit ``i`` stands for the ``i``-th
attribute of the relation's schema in name order (see
:class:`AttributeBits`), so a mask means the same set for every request
over one schema, and ascending bits are name order.  Nodes are attribute
sets; level ``l`` holds the sets of size ``l``.  Each node carries two
candidate sets in the spirit of TANE / FASTOD:

* ``ofd_candidates`` — a mask of the attributes ``A`` for which
  ``X \\ {A}: [] ↦→ A`` may still be a *minimal* valid OFD (TANE's ``C+``
  set), and
* ``oc_candidates`` — a mask over *pair ids*: the unordered pair of bits
  ``i < j`` is bit ``i·n + j`` (``n`` attributes), set while
  ``X \\ {A, B}: A ~ B`` may still be a minimal valid OC.

The candidate rules are mask arithmetic: a node's OFD candidates are the
AND of its predecessors' masks, and its OC candidates are the AND over
``C ∈ X`` of ``cand(X \\ {C}) | pairs_containing(C)`` — a pair survives iff
every predecessor that still contains it keeps it as a candidate.  The
next level is a prefix join over masks grouped by "mask minus its highest
bit".  A level's nodes are kept in lexicographic order of their ascending
bits (the order of their sorted name tuples), which the prefix join
preserves, so no level is ever sorted.

Candidate sets shrink as dependencies are found (minimality pruning) and as
axioms fire; a node whose candidate sets are both empty is removed, which
prevents any of its supersets from ever being generated — this is the
pruning that lets AOD discovery outrun exact OD discovery in Exp-5.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, FrozenSet, Iterable, List

#: A level: node mask -> node, in lexicographic order of the masks' bits.
Level = Dict[int, "LatticeNode"]


class AttributeBits:
    """The bit numbering of one schema's attributes.

    Bit ``i`` is the ``i``-th name of ``sorted(schema.names)``: the whole
    schema, not a request's attribute subset, so a memo key built from
    masks means the same thing for every request over the schema.  Names
    and partition-cache keys (schema column indices) are derived from a
    mask through caches, at the result and cache boundaries only.
    """

    __slots__ = ("names", "columns", "_position", "_named", "_keys")

    def __init__(self, schema) -> None:
        #: Attribute name of each bit.
        self.names: List[str] = sorted(schema.names)
        #: Schema column index of each bit.
        self.columns: List[int] = [schema.index_of(name) for name in self.names]
        self._position = {name: i for i, name in enumerate(self.names)}
        self._named: Dict[int, FrozenSet[str]] = {}
        self._keys: Dict[int, FrozenSet[int]] = {}

    def mask(self, names: Iterable[str]) -> int:
        """The mask of a set of attribute names."""
        mask = 0
        for name in names:
            mask |= 1 << self._position[name]
        return mask

    def names_of(self, mask: int) -> FrozenSet[str]:
        """The attribute names of ``mask`` (cached)."""
        named = self._named.get(mask)
        if named is None:
            named = frozenset(self.names[i] for i in positions(mask))
            self._named[mask] = named
        return named

    def key_of(self, mask: int) -> FrozenSet[int]:
        """The partition-cache key of ``mask``: its schema column indices
        (cached)."""
        key = self._keys.get(mask)
        if key is None:
            key = frozenset(self.columns[i] for i in positions(mask))
            self._keys[mask] = key
        return key

    def pairs_containing(self) -> List[int]:
        """Per bit ``c``, the mask of the pair ids that contain ``c``."""
        n = len(self.names)
        return [
            sum(1 << (i * n + c) for i in range(c))
            | sum(1 << (c * n + j) for j in range(c + 1, n))
            for c in range(n)
        ]


def positions(mask: int) -> List[int]:
    """The set bits of ``mask``, ascending."""
    found = []
    while mask:
        low = mask & -mask
        found.append(low.bit_length() - 1)
        mask ^= low
    return found


def lex_sorted(masks: Iterable[int]) -> List[int]:
    """Masks of one size in lexicographic order of their ascending bits.

    Of two such sets the first is the one holding the lowest bit of their
    difference, so the bit strings read from bit 0 upwards (``bin`` reversed,
    high zeros dropped) sort in descending order.
    """
    return sorted(masks, key=lambda mask: bin(mask)[:1:-1], reverse=True)


class LatticeNode:
    """State attached to one attribute set during the level-wise search."""

    __slots__ = ("attributes", "ofd_candidates", "oc_candidates")

    def __init__(
        self, attributes: int, ofd_candidates: int = 0, oc_candidates: int = 0,
    ) -> None:
        self.attributes = attributes
        self.ofd_candidates = ofd_candidates
        self.oc_candidates = oc_candidates

    @property
    def level(self) -> int:
        """Lattice level — the size of the attribute set."""
        return bin(self.attributes).count("1")

    @property
    def is_exhausted(self) -> bool:
        """``True`` when no candidate can ever be produced through this node."""
        return not self.ofd_candidates and not self.oc_candidates

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LatticeNode({self.attributes:#b}, "
            f"ofd_cands={self.ofd_candidates:#b}, "
            f"oc_cands={self.oc_candidates:#b})"
        )


def initial_level(attributes: int) -> Level:
    """Level-1 nodes: one singleton set per bit of ``attributes``.

    Every attribute starts as an OFD candidate of every node (TANE's
    ``C+(∅) = R`` convention, intersected down as levels grow); singleton
    nodes have no OC candidates because an OC needs two attributes.
    """
    return {
        1 << i: LatticeNode(1 << i, ofd_candidates=attributes)
        for i in positions(attributes)
    }


def candidate_ofd_rhs(
    node_attributes: int, previous_level: Level, all_attributes: int,
) -> int:
    """Compute ``C_s(X) = ∩_{B ∈ X} C_s(X \\ {B})`` (TANE candidate rule).

    A missing predecessor (pruned at the previous level) contributes the
    empty set, i.e. kills all candidates — consistent with node deletion
    semantics.  The empty set's candidates are ``all_attributes``.
    """
    if not node_attributes:
        return all_attributes
    result = -1
    rest = node_attributes
    while rest:
        low = rest & -rest
        rest ^= low
        predecessor = previous_level.get(node_attributes ^ low)
        if predecessor is None:
            return 0
        result &= predecessor.ofd_candidates
        if not result:
            return 0
    return result


def candidate_oc_pairs(
    node_attributes: int, previous_level: Level, pairs_containing: List[int],
) -> int:
    """Compute the OC pair candidates of a node.

    A pair ``{A, B} ⊆ X`` is a candidate at ``X`` iff it is a candidate at
    every predecessor ``X \\ {C}`` with ``C ∉ {A, B}``: the AND over
    ``C ∈ X`` of ``cand(X \\ {C}) | pairs_containing[C]`` (a missing
    predecessor contributes no candidates).  At level 2 the condition is
    vacuous, so the node's one pair is a candidate; at higher levels a pair
    survives only if no smaller context already validated it (minimality)
    or pruned it (axioms).  Pairs with a bit outside ``X`` fail the term of
    some other bit, so the result holds pairs of ``X`` only.
    """
    if not node_attributes & (node_attributes - 1):
        return 0  # fewer than two attributes: no pair
    result = -1
    rest = node_attributes
    while rest:
        low = rest & -rest
        rest ^= low
        term = pairs_containing[low.bit_length() - 1]
        predecessor = previous_level.get(node_attributes ^ low)
        if predecessor is not None:
            term |= predecessor.oc_candidates
        result &= term
        if not result:
            return 0
    return result


def generate_next_level_sets(current_level: Level) -> List[int]:
    """Generate the attribute sets of the next level (TANE prefix join).

    Two sets of size ``l`` that differ only in their highest bit join into
    a set of size ``l + 1``; the join is kept only if *all* of its
    ``l``-subsets are present (i.e. were not pruned) in the current level.
    With ``current_level`` in lexicographic order, as :func:`initial_level`
    and this function produce, sets sharing a prefix are adjacent and
    ordered by their highest bit, so the joins come out in lexicographic
    order too.
    """
    by_prefix: Dict[int, List[int]] = {}
    for mask in current_level:
        prefix = mask ^ (1 << (mask.bit_length() - 1))
        by_prefix.setdefault(prefix, []).append(mask)

    next_sets: List[int] = []
    for prefix, group in by_prefix.items():
        if len(group) < 2:
            continue
        # The two joined sets are present; check the subsets that drop a
        # bit of the shared prefix.
        prefix_bits = [1 << i for i in positions(prefix)]
        for first, second in combinations(group, 2):
            joined = first | second
            for bit in prefix_bits:
                if joined ^ bit not in current_level:
                    break
            else:
                next_sets.append(joined)
    return next_sets
