"""Tests for the bounded list-based OD discovery baseline."""

import pytest

from _baselines import discover_list_ods
from repro.dataset.examples import employee_salary_table
from repro.dataset.generators import generate_monotone_table
from repro.dependencies.od import ListOD
from repro.dependencies.violations import od_holds


class TestSingleAttributeLevel:
    def test_finds_sal_orders_taxgrp(self):
        result = discover_list_ods(employee_salary_table(), max_list_length=1)
        assert (("sal",), ("taxGrp",)) in result.statements()

    def test_does_not_report_invalid_od(self):
        result = discover_list_ods(employee_salary_table(), max_list_length=1)
        assert (("taxGrp",), ("sal",)) not in result.statements()

    def test_every_reported_od_actually_holds(self):
        relation = employee_salary_table()
        result = discover_list_ods(relation, max_list_length=2)
        for found in result.ods:
            assert od_holds(relation, found.od)

    def test_attribute_subset(self):
        result = discover_list_ods(
            employee_salary_table(), attributes=["sal", "taxGrp"], max_list_length=1
        )
        for found in result.ods:
            assert set(found.od.attributes()) <= {"sal", "taxGrp"}


class TestLevelTwoExtensions:
    def test_monotone_table_yields_level_one_ods(self):
        relation = generate_monotone_table(40, 3, noise=0.0, seed=2)
        result = discover_list_ods(relation, max_list_length=1)
        # Every ordered pair of monotone columns is a valid OD.
        assert result.num_ods == 6

    def test_split_only_failures_are_extended(self):
        # pos |-> taxGrp fails only with splits (pos does not determine
        # taxGrp) — but pos |-> taxGrp has swaps? Use the employee table and
        # just check that level-2 candidates were generated and checked.
        result = discover_list_ods(employee_salary_table(), max_list_length=2)
        assert result.candidates_checked > 42  # more than the 7*6 level-1 pairs

    def test_candidate_budget_truncates(self):
        result = discover_list_ods(
            employee_salary_table(), max_list_length=2, max_candidates=10
        )
        assert result.truncated
        assert result.candidates_checked <= 10


class TestConsistencyWithCanonicalFramework:
    def test_level_one_ods_imply_canonical_ocs(self):
        """[A] |-> [B] implies the canonical OC {}: A ~ B, so every level-1
        OD found here must have its OC counterpart valid."""
        from repro.dependencies.oc import CanonicalOC
        from repro.validation.exact_oc import validate_exact_oc

        relation = employee_salary_table()
        result = discover_list_ods(relation, max_list_length=1)
        for found in result.ods:
            (a,), (b,) = found.od.lhs, found.od.rhs
            if a == b:
                continue
            assert validate_exact_oc(relation, CanonicalOC([], a, b)).is_valid
