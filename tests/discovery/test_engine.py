"""Integration tests of the discovery engine against brute-force oracles.

The oracle enumerates, for every attribute pair and every context, whether
the canonical OC / OFD holds (approximately), and derives the set of
*minimal, non-redundant* dependencies the framework is expected to report:

* valid w.r.t. the threshold,
* no strictly smaller context of the same statement is valid, and
* (for OCs) neither side is constant within the context, because such OCs
  are implied and the framework prunes them by axiom.
"""

from itertools import combinations

import pytest

from repro.dataset.examples import employee_salary_table
from repro.dataset.generators import generate_random_table
from repro.dataset.relation import Relation
from repro.dependencies.oc import CanonicalOC
from repro.dependencies.ofd import OFD
from repro.discovery.config import DiscoveryRequest
from repro.discovery.engine import DiscoveryEngine
from repro.discovery.events import LevelStarted
from repro.validation.approx_oc_optimal import validate_aoc_optimal
from repro.validation.approx_ofd import validate_aofd


def _oracle_ocs(relation, attributes, threshold):
    """All minimal, non-redundant OCs with factor <= threshold."""
    valid = {}
    for a, b in combinations(attributes, 2):
        others = [x for x in attributes if x not in (a, b)]
        for size in range(len(others) + 1):
            for context in combinations(others, size):
                oc = CanonicalOC(context, a, b)
                result = validate_aoc_optimal(relation, oc)
                valid[(frozenset(context), frozenset((a, b)))] = (
                    result.approximation_factor <= threshold + 1e-12
                )
    expected = set()
    for (context, pair), is_valid in valid.items():
        if not is_valid:
            continue
        # minimality: no strictly smaller context works
        smaller_works = any(
            valid.get((frozenset(sub), pair), False)
            for size in range(len(context))
            for sub in combinations(sorted(context), size)
        )
        if smaller_works:
            continue
        # redundancy: a constant side implies the OC
        a, b = sorted(pair)
        constant_side = any(
            validate_aofd(relation, OFD(context, side)).approximation_factor
            <= threshold + 1e-12
            for side in (a, b)
        )
        if constant_side:
            continue
        expected.add((context, pair))
    return expected


def _oracle_ofds(relation, attributes, threshold):
    """All minimal OFDs with factor <= threshold."""
    valid = {}
    for attribute in attributes:
        others = [x for x in attributes if x != attribute]
        for size in range(len(others) + 1):
            for context in combinations(others, size):
                result = validate_aofd(relation, OFD(context, attribute))
                valid[(frozenset(context), attribute)] = (
                    result.approximation_factor <= threshold + 1e-12
                )
    expected = set()
    for (context, attribute), is_valid in valid.items():
        if not is_valid:
            continue
        smaller_works = any(
            valid.get((frozenset(sub), attribute), False)
            for size in range(len(context))
            for sub in combinations(sorted(context), size)
        )
        if not smaller_works:
            expected.add((context, attribute))
    return expected


def _reported_ocs(result):
    return {(found.oc.context, frozenset((found.oc.a, found.oc.b))) for found in result.ocs}


def _reported_ofds(result):
    return {(found.ofd.context, found.ofd.attribute) for found in result.ofds}


class TestAgainstOracleExhaustive:
    """Full-lattice (no node deletion) discovery must match the oracle exactly."""

    @pytest.mark.parametrize("threshold", [0.0, 0.1, 0.3])
    def test_employee_table_subset(self, threshold):
        relation = employee_salary_table()
        attributes = ["pos", "exp", "sal", "taxGrp"]
        request = DiscoveryRequest(
            threshold=threshold,
            validator="optimal" if threshold else "exact",
            attributes=attributes,
            prune_exhausted_nodes=False,
        )
        result = DiscoveryEngine(relation, request).run()
        assert _reported_ocs(result) == _oracle_ocs(relation, attributes, threshold)
        assert _reported_ofds(result) == _oracle_ofds(relation, attributes, threshold)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_tables(self, seed):
        relation = generate_random_table(40, 4, cardinality=3, seed=seed)
        attributes = relation.attribute_names
        threshold = 0.1
        request = DiscoveryRequest(
            threshold=threshold,
            validator="optimal",
            prune_exhausted_nodes=False,
        )
        result = DiscoveryEngine(relation, request).run()
        assert _reported_ocs(result) == _oracle_ocs(relation, attributes, threshold)
        assert _reported_ofds(result) == _oracle_ofds(relation, attributes, threshold)

    def test_exact_discovery_on_random_table(self):
        relation = generate_random_table(30, 4, cardinality=2, seed=9)
        request = DiscoveryRequest.exact(prune_exhausted_nodes=False)
        result = DiscoveryEngine(relation, request).run()
        assert _reported_ocs(result) == _oracle_ocs(
            relation, relation.attribute_names, 0.0
        )


class TestSoundnessWithPruning:
    """With default (FASTOD-style) pruning every reported dependency must
    still be valid and minimal; pruning may only remove redundancy."""

    def test_reported_dependencies_are_valid_and_minimal(self):
        relation = employee_salary_table()
        threshold = 0.15
        request = DiscoveryRequest.approximate(threshold=threshold)
        result = DiscoveryEngine(relation, request).run()
        assert result.num_ocs > 0
        for found in result.ocs:
            check = validate_aoc_optimal(relation, found.oc)
            assert check.approximation_factor <= threshold + 1e-12
            assert abs(check.approximation_factor - found.approximation_factor) < 1e-12
            # minimality: no strictly smaller context is valid
            for size in range(len(found.oc.context)):
                for sub in combinations(sorted(found.oc.context), size):
                    smaller = CanonicalOC(sub, found.oc.a, found.oc.b)
                    assert (
                        validate_aoc_optimal(relation, smaller).approximation_factor
                        > threshold
                    )
        for found in result.ofds:
            check = validate_aofd(relation, found.ofd)
            assert check.approximation_factor <= threshold + 1e-12

    def test_pruned_and_exhaustive_agree_on_employee_table(self):
        relation = employee_salary_table()
        attributes = ["pos", "exp", "sal", "taxGrp", "bonus"]
        for threshold in (0.0, 0.1):
            kwargs = dict(
                threshold=threshold,
                validator="optimal" if threshold else "exact",
                attributes=attributes,
            )
            pruned = DiscoveryEngine(
                relation, DiscoveryRequest(prune_exhausted_nodes=True, **kwargs)
            ).run()
            full = DiscoveryEngine(
                relation, DiscoveryRequest(prune_exhausted_nodes=False, **kwargs)
            ).run()
            assert _reported_ocs(pruned) <= _reported_ocs(full)
            assert _reported_ofds(pruned) == _reported_ofds(full)


class TestEngineBehaviour:
    def test_attribute_subset_restricts_search(self):
        relation = employee_salary_table()
        request = DiscoveryRequest.exact(attributes=["sal", "taxGrp"])
        result = DiscoveryEngine(relation, request).run()
        mentioned = set()
        for found in result.ocs:
            mentioned |= found.oc.attributes()
        for found in result.ofds:
            mentioned |= found.ofd.attributes()
        assert mentioned <= {"sal", "taxGrp"}

    def test_unknown_attribute_rejected(self):
        with pytest.raises(KeyError):
            DiscoveryEngine(
                employee_salary_table(), DiscoveryRequest(attributes=["nope"])
            )

    def test_max_level_caps_search(self):
        relation = employee_salary_table()
        request = DiscoveryRequest.exact(max_level=2)
        result = DiscoveryEngine(relation, request).run()
        assert result.stats.levels_processed <= 2
        assert all(found.level <= 2 for found in result.ocs)

    def test_time_limit_marks_timed_out(self):
        relation = generate_random_table(400, 8, cardinality=6, seed=1)
        request = DiscoveryRequest.approximate(
            threshold=0.1, time_limit_seconds=0.001
        )
        result = DiscoveryEngine(relation, request).run()
        assert result.timed_out

    def test_find_ofds_disabled(self):
        relation = employee_salary_table()
        request = DiscoveryRequest.exact(find_ofds=False)
        result = DiscoveryEngine(relation, request).run()
        assert result.num_ofds == 0
        assert result.num_ocs > 0

    def test_progress_callback_invoked(self):
        """Level progress is the ``LevelStarted`` events of the stream: one
        per level, in order, carrying the level's node count."""
        request = DiscoveryRequest.exact(attributes=["pos", "sal", "taxGrp"])
        events = list(DiscoveryEngine(employee_salary_table(), request).iter_events())
        started = [
            (event.level, event.num_nodes)
            for event in events if isinstance(event, LevelStarted)
        ]
        assert started and started[0] == (1, 3)
        assert [level for level, _ in started] == list(range(1, len(started) + 1))
        result = events[-1].result
        assert dict(started) == result.stats.nodes_per_level

    def test_stats_are_populated(self):
        relation = employee_salary_table()
        result = DiscoveryEngine(relation, DiscoveryRequest.approximate(0.1)).run()
        stats = result.stats
        assert stats.total_seconds > 0
        assert stats.oc_candidates_validated > 0
        assert stats.ofd_candidates_validated > 0
        assert stats.nodes_processed > 0
        assert stats.nodes_per_level[1] == 7

    def test_iterative_validator_subset_of_optimal(self):
        """The greedy validator can only reject more candidates, never
        accept more (its factor estimates are upper bounds)."""
        relation = employee_salary_table()
        threshold = 0.2
        optimal = DiscoveryEngine(
            relation, DiscoveryRequest.approximate(threshold, "optimal")
        ).run()
        iterative = DiscoveryEngine(
            relation, DiscoveryRequest.approximate(threshold, "iterative")
        ).run()
        # Pruning differences can change which candidates are *generated*
        # downstream, but on this small table the direct containment holds
        # at the level of validated statements.
        assert iterative.num_ocs <= optimal.num_ocs
