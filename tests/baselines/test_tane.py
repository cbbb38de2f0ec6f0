"""Tests for the TANE baseline and its cross-check against the OD framework."""

from itertools import combinations

import pytest

from _baselines import discover_fds_tane
from repro.dataset.examples import employee_salary_table
from repro.dataset.generators import generate_random_table
from repro.dataset.relation import Relation
from repro.dependencies.fd import FD
from repro.dependencies.ofd import OFD
from repro.dependencies.violations import ofd_holds
from repro.discovery.api import discover_ods


def _oracle_minimal_fds(relation, attributes):
    """Brute-force minimal exact FDs (including empty LHS for constants)."""
    holds = {}
    for rhs in attributes:
        others = [a for a in attributes if a != rhs]
        for size in range(len(others) + 1):
            for lhs in combinations(others, size):
                holds[(frozenset(lhs), rhs)] = ofd_holds(relation, OFD(lhs, rhs))
    minimal = set()
    for (lhs, rhs), valid in holds.items():
        if not valid:
            continue
        if any(
            holds.get((frozenset(sub), rhs), False)
            for size in range(len(lhs))
            for sub in combinations(sorted(lhs), size)
        ):
            continue
        minimal.add((lhs, rhs))
    return minimal


class TestExactTane:
    def test_employee_table_against_oracle(self):
        relation = employee_salary_table()
        attributes = ["pos", "exp", "sal", "taxGrp", "bonus"]
        result = discover_fds_tane(relation, attributes=attributes)
        assert result.fd_statements() == _oracle_minimal_fds(relation, attributes)

    @pytest.mark.parametrize("seed", [0, 3])
    def test_random_table_against_oracle(self, seed):
        relation = generate_random_table(30, 4, cardinality=3, seed=seed)
        result = discover_fds_tane(relation)
        assert result.fd_statements() == _oracle_minimal_fds(
            relation, relation.attribute_names
        )

    def test_key_pruning_finds_key_fds(self):
        # "sal" is a key of Table 1, so sal -> X holds for every X.
        relation = employee_salary_table()
        result = discover_fds_tane(relation, attributes=["sal", "pos", "taxGrp"])
        assert (frozenset({"sal"}), "pos") in result.fd_statements()
        assert (frozenset({"sal"}), "taxGrp") in result.fd_statements()

    def test_constant_column_reported_with_empty_lhs(self):
        relation = Relation.from_columns({"a": [1, 1, 1], "b": [1, 2, 3]})
        result = discover_fds_tane(relation)
        assert (frozenset(), "a") in result.fd_statements()

    def test_max_level(self):
        relation = employee_salary_table()
        result = discover_fds_tane(relation, max_level=1)
        assert all(found.level <= 1 for found in result.fds)


class TestApproximateTane:
    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            discover_fds_tane(employee_salary_table(), threshold=1.2)

    def test_approximate_fd_pos_exp_sal(self):
        # pos, exp -> sal has g3 = 1/9; it appears at threshold 0.15 but not
        # at threshold 0 (unless a subset already determines sal).
        relation = employee_salary_table()
        approx = discover_fds_tane(
            relation, threshold=0.15, attributes=["pos", "exp", "sal"]
        )
        assert any(
            found.fd == FD({"pos", "exp"}, "sal") or found.fd.lhs < {"pos", "exp"}
            for found in approx.fds
            if found.fd.rhs == "sal"
        )

    def test_more_fds_with_higher_threshold(self):
        relation = generate_random_table(60, 4, cardinality=3, seed=5)
        exact = discover_fds_tane(relation, threshold=0.0)
        approx = discover_fds_tane(relation, threshold=0.3)
        assert approx.num_fds >= exact.num_fds


class TestCrossCheckAgainstOdFramework:
    def test_exact_ofds_match_tane_fds(self):
        """Every exact OFD found by the OD framework corresponds to a minimal
        FD found by TANE (restricted to non-empty LHS) and vice versa."""
        relation = employee_salary_table()
        attributes = ["pos", "exp", "sal", "taxGrp", "bonus"]
        od_result = discover_ods(relation, attributes=attributes)
        tane_result = discover_fds_tane(relation, attributes=attributes)
        ofd_statements = {
            (found.ofd.context, found.ofd.attribute) for found in od_result.ofds
        }
        fd_statements = tane_result.fd_statements()
        assert ofd_statements == fd_statements
