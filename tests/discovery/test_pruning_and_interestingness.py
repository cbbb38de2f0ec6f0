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
        kb.record_ofd(_ctx("x"), A, holds_exactly=True)
        assert kb.ofd_known_valid(_ctx("x"), A)
        assert kb.ofd_known_exact(_ctx("x"), A)
        assert not kb.ofd_known_valid(_ctx(), A)
        assert kb.num_valid_ofds == 1

    def test_approximate_ofd_not_marked_exact(self):
        kb = KnowledgeBase()
        kb.record_ofd(_ctx("x"), A, holds_exactly=False)
        assert kb.ofd_known_valid(_ctx("x"), A)
        assert not kb.ofd_known_exact(_ctx("x"), A)

    def test_constant_attribute(self):
        kb = KnowledgeBase()
        kb.record_ofd(_ctx(), A, holds_exactly=True)
        assert kb.is_constant(A)
        assert not kb.is_constant(B)


class TestPruningRules:
    def test_oc_pruned_when_either_side_constant_in_context(self):
        kb = KnowledgeBase()
        kb.record_ofd(_ctx("x"), A, holds_exactly=True)
        assert oc_pruned_by_constancy(_ctx("x"), A, B, kb)
        assert oc_pruned_by_constancy(_ctx("x"), B, A, kb)
        assert not oc_pruned_by_constancy(_ctx(), A, B, kb)
        assert not oc_pruned_by_constancy(_ctx("x"), C, B, kb)

    def test_ofd_pruned_by_same_context(self):
        kb = KnowledgeBase()
        kb.record_ofd(_ctx("x"), A, holds_exactly=True)
        assert ofd_pruned_by_subcontext(_ctx("x"), A, kb)

    def test_ofd_pruned_by_smaller_context(self):
        kb = KnowledgeBase()
        kb.record_ofd(_ctx("x"), A, holds_exactly=True)
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
        assert context_coverage([[0, 1, 2]], 3) == 1.0
        assert context_coverage([[0, 1]], 4) == 0.5
        assert context_coverage([], 4) == 0.0
        assert context_coverage([], 0) == 0.0
