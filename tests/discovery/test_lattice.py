"""Tests for the lattice node / candidate-set machinery.

Attribute sets are bitmasks over the schema ``a, b, c`` in name order:
``a`` is bit 0, ``b`` bit 1, ``c`` bit 2, and the pair of bits ``i < j``
is pair id ``i·3 + j``.
"""

from repro.dataset.schema import Schema
from repro.discovery.lattice import (
    AttributeBits,
    LatticeNode,
    candidate_oc_pairs,
    candidate_ofd_rhs,
    generate_next_level_sets,
    initial_level,
    lex_sorted,
)

BITS = AttributeBits(Schema.from_names(["c", "a", "b"]))
PAIRS_CONTAINING = BITS.pairs_containing()


def _mask(attrs):
    return BITS.mask(attrs)


def _pair(a, b):
    i, j = sorted((BITS.names.index(a), BITS.names.index(b)))
    return 1 << (i * len(BITS.names) + j)


def _pairs(pairs):
    mask = 0
    for a, b in pairs:
        mask |= _pair(a, b)
    return mask


def _nodes(*specs):
    """Build a level dict from (attrs, ofd_candidates, oc_pairs) specs."""
    level = {}
    for attrs, ofd_candidates, oc_pairs in specs:
        key = _mask(attrs)
        level[key] = LatticeNode(key, _mask(ofd_candidates), _pairs(oc_pairs))
    return level


class TestInitialLevel:
    def test_one_node_per_attribute(self):
        level = initial_level(_mask("abc"))
        assert list(level) == [_mask(x) for x in "abc"]

    def test_every_attribute_is_an_ofd_candidate(self):
        level = initial_level(_mask("ab"))
        assert level[_mask("a")].ofd_candidates == _mask("ab")

    def test_no_oc_candidates_at_level_one(self):
        level = initial_level(_mask("ab"))
        assert level[_mask("a")].oc_candidates == 0


class TestLatticeNode:
    def test_level_is_set_size(self):
        assert LatticeNode(_mask("abc")).level == 3
        assert BITS.names == ["a", "b", "c"]
        assert BITS.names_of(_mask("ac")) == frozenset("ac")
        assert BITS.key_of(_mask("ac")) == frozenset({0, 1})  # columns c, a

    def test_is_exhausted(self):
        assert LatticeNode(_mask("a")).is_exhausted
        assert not LatticeNode(_mask("a"), ofd_candidates=_mask("b")).is_exhausted
        assert not LatticeNode(
            _mask("ab"), oc_candidates=_pair("a", "b")
        ).is_exhausted


class TestCandidateOfdRhs:
    def test_intersection_of_predecessors(self):
        previous = _nodes(
            (["a"], ["a", "b", "c"], []),
            (["b"], ["a", "b"], []),
        )
        assert candidate_ofd_rhs(_mask("ab"), previous, _mask("abc")) == _mask(
            "ab"
        )

    def test_missing_predecessor_kills_candidates(self):
        previous = _nodes((["a"], ["a", "b"], []))
        assert candidate_ofd_rhs(_mask("ab"), previous, _mask("ab")) == 0

    def test_level_one_node_gets_all_attributes(self):
        assert candidate_ofd_rhs(0, {}, _mask("ab")) == _mask("ab")


class TestCandidateOcPairs:
    def test_level_two_pairs_are_unconditional(self):
        pairs = candidate_oc_pairs(_mask("ab"), {}, PAIRS_CONTAINING)
        assert pairs == _pair("a", "b")

    def test_level_three_requires_all_predecessors(self):
        # Pair {a, b} must be a candidate at {a, b, c} \ {c} = {a, b}.
        previous = _nodes(
            (["a", "b"], [], [("a", "b")]),
            (["a", "c"], [], [("a", "c")]),
            (["b", "c"], [], []),          # {b, c} already validated / pruned
        )
        pairs = candidate_oc_pairs(_mask("abc"), previous, PAIRS_CONTAINING)
        assert pairs & _pair("a", "b")
        assert pairs & _pair("a", "c")
        assert not pairs & _pair("b", "c")
        assert pairs == _pairs([("a", "b"), ("a", "c")])

    def test_missing_predecessor_prunes_pair(self):
        previous = _nodes(
            (["a", "b"], [], [("a", "b")]),
            (["a", "c"], [], [("a", "c")]),
            # {b, c} node deleted entirely
        )
        pairs = candidate_oc_pairs(_mask("abc"), previous, PAIRS_CONTAINING)
        # Pair {a, b}'s only relevant predecessor is X \ {c} = {a, b}, which
        # exists, so the pair survives; pair {b, c} needs X \ {a} = {b, c},
        # which is missing, so it is pruned.
        assert pairs & _pair("a", "b")
        assert not pairs & _pair("b", "c")


class TestNextLevelGeneration:
    def test_prefix_join(self):
        current = _nodes(
            (["a"], ["a"], []),
            (["b"], ["a"], []),
            (["c"], ["a"], []),
        )
        next_sets = generate_next_level_sets(current)
        assert next_sets == [_mask("ab"), _mask("ac"), _mask("bc")]

    def test_missing_subset_blocks_generation(self):
        current = _nodes(
            (["a", "b"], ["a"], []),
            (["a", "c"], ["a"], []),
            # {b, c} missing -> {a, b, c} must not be generated
        )
        assert generate_next_level_sets(current) == []

    def test_all_subsets_present_generates_superset(self):
        current = _nodes(
            (["a", "b"], ["a"], []),
            (["a", "c"], ["a"], []),
            (["b", "c"], ["a"], []),
        )
        assert generate_next_level_sets(current) == [_mask("abc")]

    def test_deterministic_order(self):
        # A lexicographic level joins into a lexicographic level: sorted
        # name tuples, the order results are reported in.
        bits = AttributeBits(Schema.from_names(list("edcba")))
        level = initial_level(bits.mask("abcde"))
        for _ in range(3):
            masks = generate_next_level_sets(level)
            named = [tuple(sorted(bits.names_of(mask))) for mask in masks]
            assert named == sorted(named)
            assert masks == lex_sorted(masks)
            assert lex_sorted(masks[::-1]) == masks
            level = {mask: LatticeNode(mask) for mask in masks}
        assert [tuple(sorted(bits.names_of(m))) for m in level] == [
            tuple(t) for t in ("abcd", "abce", "abde", "acde", "bcde")
        ]
