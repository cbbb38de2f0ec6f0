"""Tests for the public discovery entry points."""

import pytest

from repro.dataset.examples import employee_salary_table
from repro.discovery.api import discover, discover_aods, discover_ods
from repro.discovery.config import DiscoveryRequest


class TestDiscoverOds:
    def test_finds_paper_od_sal_taxgrp(self, employee_table):
        result = discover_ods(employee_table)
        assert result.find_oc("sal", "taxGrp") is not None
        assert result.request.is_exact

    def test_all_results_are_exact(self, employee_table):
        result = discover_ods(employee_table)
        assert all(found.is_exact for found in result.ocs)
        assert all(found.is_exact for found in result.ofds)

    def test_respects_attribute_subset(self, employee_table):
        result = discover_ods(employee_table, attributes=["sal", "tax", "taxGrp"])
        assert set(result.attributes) == {"sal", "tax", "taxGrp"}

    def test_max_level(self, employee_table):
        result = discover_ods(employee_table, max_level=2)
        assert all(found.level <= 2 for found in result.ocs)


class TestDiscoverAods:
    def test_default_threshold_is_ten_percent(self, employee_table):
        result = discover_aods(employee_table)
        assert result.request.threshold == 0.1

    def test_finds_approximate_oc_with_context(self, employee_table):
        # {pos}: exp ~ sal holds with factor 1/9 ≈ 0.11 <= 0.15.
        result = discover_aods(employee_table, threshold=0.15)
        found = result.find_oc("exp", "sal", context=("pos",))
        assert found is not None
        assert found.removal_size == 1

    def test_aod_results_superset_of_exact_on_employee_table(self, employee_table):
        exact = discover_ods(employee_table)
        approximate = discover_aods(employee_table, threshold=0.12)
        exact_levels = {
            (found.oc.context, frozenset((found.oc.a, found.oc.b)))
            for found in exact.ocs
        }
        approx_keys = {
            (found.oc.context, frozenset((found.oc.a, found.oc.b)))
            for found in approximate.ocs
        }
        # Every exact OC either stays or is replaced by a more general AOC at
        # a lower level; on Table 1 the average level must not increase.
        assert approximate.average_oc_level() <= exact.average_oc_level()
        assert len(approx_keys) >= 1
        assert exact.num_ocs > 0 and approximate.num_ocs > 0

    def test_iterative_validator_selectable(self, employee_table):
        result = discover_aods(employee_table, threshold=0.1, validator="iterative")
        assert result.request.validator == "iterative"

    def test_invalid_validator_rejected(self, employee_table):
        with pytest.raises(ValueError):
            discover_aods(employee_table, validator="bogus")

    def test_invalid_threshold_rejected(self, employee_table):
        with pytest.raises(ValueError):
            discover_aods(employee_table, threshold=2.0)


class TestDiscoverWithExplicitConfig:
    def test_discover_passthrough(self, employee_table):
        request = DiscoveryRequest.approximate(0.1, attributes=["sal", "tax"])
        result = discover(employee_table, request)
        assert result.request is request

    def test_threshold_zero_equals_exact(self, employee_table):
        exact = discover_ods(employee_table)
        via_optimal = discover(
            employee_table, DiscoveryRequest(threshold=0.0, validator="optimal")
        )
        assert {repr(f.oc) for f in exact.ocs} == {repr(f.oc) for f in via_optimal.ocs}
        assert {repr(f.ofd) for f in exact.ofds} == {
            repr(f.ofd) for f in via_optimal.ofds
        }
