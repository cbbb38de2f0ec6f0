"""Boundary-value tests for the shared removal-limit computation.

``⌊ε·|r|⌋`` is deceptively fragile at thresholds that land exactly on a row
multiple: in binary floating point ``0.3 * 10`` is ``2.999…96``, so a naive
``int()`` truncation would under-count the budget by one whole tuple.  The
engine and the TANE baseline used to carry private copies of the epsilon
guard; both now route through :func:`repro.validation.common.removal_limit`.
"""

import pytest

from _baselines import discover_fds_tane
from repro.dataset.examples import employee_salary_table
from repro.discovery.config import DiscoveryConfig
from repro.discovery.engine import DiscoveryEngine
from repro.validation.common import removal_limit


class TestBoundaryValues:
    def test_threshold_exactly_at_row_multiple(self):
        # 0.3 * 10 == 2.9999999999999996 in float arithmetic: the epsilon
        # guard must still yield the full 3-tuple budget.
        assert removal_limit(10, 0.3) == 3
        assert removal_limit(1000, 0.1) == 100
        assert removal_limit(16000, 0.1) == 1600
        assert removal_limit(7, 3 / 7) == 3

    def test_fractional_thresholds_floor(self):
        assert removal_limit(10, 0.25) == 2
        assert removal_limit(10, 0.99) == 9
        assert removal_limit(3, 0.5) == 1

    def test_degenerate_values(self):
        assert removal_limit(10, 0.0) == 0
        assert removal_limit(10, 1.0) == 10
        assert removal_limit(0, 0.5) == 0
        assert removal_limit(10, None) is None

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            removal_limit(10, -0.1)
        with pytest.raises(ValueError):
            removal_limit(10, 1.5)


class TestSharedRouting:
    def test_engine_budget_comes_from_removal_limit(self):
        relation = employee_salary_table()  # 9 rows
        engine = DiscoveryEngine(
            relation, DiscoveryConfig(threshold=3 / relation.num_rows)
        )
        assert engine._removal_limit == removal_limit(relation.num_rows, 3 / 9)
        assert engine._removal_limit == 3

    def test_tane_uses_same_budget(self):
        # threshold 2/9 admits FDs with at most two removals on Table 1;
        # a truncated budget of 1 would reject some of them.
        relation = employee_salary_table()
        result = discover_fds_tane(relation, threshold=2 / 9)
        assert result.threshold == 2 / 9
        limit = removal_limit(relation.num_rows, 2 / 9)
        assert limit == 2
        assert all(
            round(found.approximation_factor * relation.num_rows) <= limit
            for found in result.fds
        )
