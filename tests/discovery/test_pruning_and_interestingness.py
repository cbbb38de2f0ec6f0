"""Tests for the pruning knowledge base and the interestingness score."""

import pytest

from repro.dataset.schema import Schema
from repro.discovery.interestingness import context_coverage, interestingness_score
from repro.discovery.lattice import AttributeBits
from repro.discovery.pruning import (
    KnowledgeBase,
    oc_pruned_by_constancy,
    ofd_pruned_by_subcontext,
)

#: Contexts are masks and attributes bit positions, over ``a, b, c, x, y``.
BITS = AttributeBits(Schema.from_names(["y", "x", "c", "b", "a"]))
A, B, C = (BITS.names.index(name) for name in "abc")


def _ctx(*names):
    return BITS.mask(names)


class TestKnowledgeBase:
    def test_record_and_lookup(self):
        kb = KnowledgeBase()
        kb.record_ofd(_ctx("x"), A)
        kb.record_ofd(_ctx("x"), A)
        assert kb.ofd_known_valid(_ctx("x"), A)
        assert not kb.ofd_known_valid(_ctx(), A)
        assert not kb.ofd_known_valid(_ctx("x"), B)
        assert kb.num_valid_ofds == 1

    def test_valid_contexts_per_rhs(self):
        """Approximate and exact OFDs are recorded alike: per right-hand
        side, the set of contexts that determine it."""
        kb = KnowledgeBase()
        kb.record_ofd(_ctx("x"), A)
        kb.record_ofd(_ctx("x", "y"), A)
        kb.record_ofd(_ctx("y"), B)
        assert set(kb.valid_contexts(A)) == {_ctx("x"), _ctx("x", "y")}
        assert set(kb.valid_contexts(B)) == {_ctx("y")}
        assert not kb.valid_contexts(C)
        assert kb.num_valid_ofds == 3

    def test_constant_attribute(self):
        """A level-1 OFD (empty context) marks a constant attribute: it
        prunes the attribute's OFDs one level up and its OCs in the empty
        context."""
        kb = KnowledgeBase()
        kb.record_ofd(_ctx(), A)
        assert kb.ofd_known_valid(_ctx(), A)
        assert ofd_pruned_by_subcontext(_ctx("x"), A, kb)
        assert oc_pruned_by_constancy(_ctx(), A, B, kb)
        assert not ofd_pruned_by_subcontext(_ctx("x"), B, kb)


class TestPruningRules:
    def test_oc_pruned_when_either_side_constant_in_context(self):
        kb = KnowledgeBase()
        kb.record_ofd(_ctx("x"), A)
        assert oc_pruned_by_constancy(_ctx("x"), A, B, kb)
        assert oc_pruned_by_constancy(_ctx("x"), B, A, kb)
        assert not oc_pruned_by_constancy(_ctx(), A, B, kb)
        assert not oc_pruned_by_constancy(_ctx("x"), C, B, kb)

    def test_ofd_pruned_by_same_context(self):
        kb = KnowledgeBase()
        kb.record_ofd(_ctx("x"), A)
        assert ofd_pruned_by_subcontext(_ctx("x"), A, kb)

    def test_ofd_pruned_by_smaller_context(self):
        kb = KnowledgeBase()
        kb.record_ofd(_ctx("x"), A)
        assert ofd_pruned_by_subcontext(_ctx("x", "y"), A, kb)

    def test_ofd_not_pruned_without_evidence(self):
        kb = KnowledgeBase()
        assert not ofd_pruned_by_subcontext(_ctx("x"), A, kb)


class TestInterestingness:
    def test_smaller_context_scores_higher(self):
        assert interestingness_score(0, 1.0) > interestingness_score(1, 1.0)
        assert interestingness_score(1, 1.0) > interestingness_score(3, 1.0)

    def test_higher_coverage_scores_higher(self):
        assert interestingness_score(1, 0.9) > interestingness_score(1, 0.3)

    def test_lower_approximation_scores_higher(self):
        assert interestingness_score(0, 1.0, 0.0) > interestingness_score(0, 1.0, 0.3)

    def test_score_in_unit_interval(self):
        assert 0 < interestingness_score(0, 1.0, 0.0) <= 1.0
        assert 0 <= interestingness_score(5, 0.1, 0.9) < 1.0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            interestingness_score(0, 1.5)
        with pytest.raises(ValueError):
            interestingness_score(0, 1.0, 2.0)

    def test_context_coverage(self):
        assert context_coverage(3, 3) == 1.0
        assert context_coverage(2, 4) == 0.5
        assert context_coverage(0, 4) == 0.0
        assert context_coverage(0, 0) == 0.0
