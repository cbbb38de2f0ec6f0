"""Tests for the extension modules: bidirectional OCs, distributed
validation through the worker pool and hybrid sampling (the paper's §5
future-work directions)."""

from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from repro.dataset.examples import employee_salary_table
from repro.dataset.generators import generate_ncvoter_like, generate_planted_oc_table
from repro.dataset.partition import PartitionCache
from repro.dataset.relation import Relation
from repro.dependencies.bidirectional import BidirectionalOC
from repro.dependencies.oc import CanonicalOC
from repro.discovery.sampling import (
    prefilter_candidates,
    sample_rows,
    validate_aoc_hybrid,
)
from repro.validation.approx_oc_optimal import validate_aoc_optimal
from repro.validation.bidirectional import best_polarity, validate_aboc_optimal
from repro.validation.common import removal_limit
from repro.validation.distributed import ShardedValidationPool


class TestBidirectionalOCObject:
    def test_symmetry_of_sides(self):
        assert BidirectionalOC([], "a", "b", True, False) == BidirectionalOC(
            [], "b", "a", False, True
        )

    def test_polarity_flip_is_same_statement(self):
        boc = BidirectionalOC([], "a", "b", True, False)
        assert boc == boc.flipped_polarity()
        assert hash(boc) == hash(boc.flipped_polarity())

    def test_mixed_and_same_polarity_differ(self):
        assert BidirectionalOC([], "a", "b", True, True) != BidirectionalOC(
            [], "a", "b", True, False
        )

    def test_trivial_rejected(self):
        with pytest.raises(ValueError):
            BidirectionalOC([], "a", "a")
        with pytest.raises(ValueError):
            BidirectionalOC(["a"], "a", "b")

    def test_to_canonical(self):
        assert BidirectionalOC(["x"], "a", "b").to_canonical() == CanonicalOC(
            ["x"], "a", "b"
        )
        with pytest.raises(ValueError):
            BidirectionalOC([], "a", "b", True, False).to_canonical()


class TestBidirectionalValidation:
    def test_inverse_columns_are_bidirectionally_compatible(self):
        # ncvoter's birthYear / age pair: exactly inverse, so the mixed
        # polarity holds exactly while the same polarity does not.
        relation = Relation.from_columns(
            {"birthYear": [1950, 1960, 1980, 1990], "age": [70, 60, 40, 30]}
        )
        mixed = BidirectionalOC([], "birthYear", "age", True, False)
        same = BidirectionalOC([], "birthYear", "age", True, True)
        assert validate_aboc_optimal(relation, mixed).holds_exactly
        assert not validate_aboc_optimal(relation, same).holds_exactly

    def test_same_polarity_matches_plain_oc(self):
        table = employee_salary_table()
        for a, b in combinations(["sal", "tax", "taxGrp", "bonus"], 2):
            boc = BidirectionalOC([], a, b, True, True)
            plain = CanonicalOC([], a, b)
            assert (
                validate_aboc_optimal(table, boc).removal_size
                == validate_aoc_optimal(table, plain).removal_size
            )

    def test_best_polarity_picks_the_smaller_removal(self):
        relation = Relation.from_columns(
            {"up": [1, 2, 3, 4, 5], "down": [9, 8, 7, 1, 0]}
        )
        best = best_polarity(relation, (), "up", "down")
        assert best.holds_exactly
        assert not best.dependency.is_unidirectional

    def test_descending_both_sides_equals_ascending_both_sides(self):
        table = employee_salary_table()
        asc = BidirectionalOC([], "sal", "tax", True, True)
        desc = BidirectionalOC([], "sal", "tax", False, False)
        assert (
            validate_aboc_optimal(table, asc).removal_size
            == validate_aboc_optimal(table, desc).removal_size
        )

    def test_threshold_semantics(self):
        table = employee_salary_table()
        boc = BidirectionalOC([], "sal", "tax", True, True)  # factor 4/9
        assert validate_aboc_optimal(table, boc, threshold=0.5).is_valid
        assert not validate_aboc_optimal(table, boc, threshold=0.3).is_valid


def _pooled_count(relation, oc, pool, limit=None):
    """Validate ``oc`` through a column plane on ``pool``."""
    encoded = relation.encoded(pool.backend)
    classes = PartitionCache(encoded, backend=pool.backend).get_by_names(
        sorted(oc.context)
    )
    plane = pool.new_plane(encoded)
    try:
        return plane.harvest(plane.submit(classes, [(oc.a, oc.b)], limit))[0]
    finally:
        plane.release()


def _dispatching_pool(num_workers):
    """A pool that sends every group to its workers (tiny test tables)."""
    return ShardedValidationPool(
        num_workers, backend="python", inline_group_cost=0, min_shard_cost=1
    )


class TestDistributedValidation:
    def test_matches_centralised_validator(self):
        workload = generate_ncvoter_like(400, num_attributes=8, seed=5)
        relation = workload.relation
        ocs = [CanonicalOC(p.context, p.a, p.b) for p in workload.planted_ocs]
        for num_workers in (1, 3):
            with _dispatching_pool(num_workers) as pool:
                for oc in ocs:
                    central = validate_aoc_optimal(relation, oc)
                    count, exceeded = _pooled_count(relation, oc, pool)
                    assert (count, exceeded) == (central.removal_size, False)
                assert pool.stats["jobs"] > 0

    def test_with_context_and_threshold(self):
        workload = generate_planted_oc_table(
            300, approximation_factor=0.1, num_context_groups=6, seed=2
        )
        (planted,) = workload.planted_ocs
        oc = CanonicalOC(planted.context, planted.a, planted.b)
        limit = removal_limit(workload.relation.num_rows, 0.15)
        with _dispatching_pool(4) as pool:
            count, exceeded = _pooled_count(workload.relation, oc, pool, limit)
            assert 1 <= pool.stats["jobs"] <= 4
        assert not exceeded
        assert count == 30

    def test_threshold_rejection(self):
        table = employee_salary_table()
        limit = removal_limit(table.num_rows, 0.1)
        with _dispatching_pool(2) as pool:
            count, exceeded = _pooled_count(
                table, CanonicalOC([], "sal", "tax"), pool, limit
            )
        assert exceeded and count > limit

    def test_assignment_balances_load(self):
        classes = [list(range(i)) for i in (50, 40, 30, 5, 5, 5, 5)]
        with _dispatching_pool(3) as pool:
            shards, _, _ = pool._plan_shards(classes)
        assert sum(len(shard) for shard, _ in shards) == len(classes)
        sizes = [sum(len(rows) for rows in shard) for shard, _ in shards]
        assert len(sizes) == 3
        assert max(sizes) <= 70  # the two largest classes are not co-located

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            ShardedValidationPool(0)

    def test_max_worker_share(self):
        table = employee_salary_table()
        with _dispatching_pool(2) as pool:
            encoded = table.encoded(pool.backend)
            classes = PartitionCache(encoded, backend=pool.backend) \
                .get_by_names(["pos"])
            shards, _, _ = pool._plan_shards(classes)
        sizes = [sum(len(rows) for rows in shard) for shard, _ in shards]
        assert 0.0 < max(sizes) / sum(sizes) <= 1.0


class TestHybridSampling:
    def test_sample_rows_deterministic_and_bounded(self):
        assert sample_rows(100, 10, seed=1) == sample_rows(100, 10, seed=1)
        assert sample_rows(5, 10) == [0, 1, 2, 3, 4]
        assert len(sample_rows(1000, 50)) == 50

    def test_rejection_is_sound(self):
        """A candidate rejected by the sample must be invalid on the full
        relation (the defining property of the hybrid)."""
        workload = generate_planted_oc_table(500, approximation_factor=0.4, seed=3)
        (planted,) = workload.planted_ocs
        oc = CanonicalOC((), planted.a, planted.b)
        outcome = validate_aoc_hybrid(
            workload.relation, oc, threshold=0.05, sample_size=200, seed=1
        )
        if outcome.rejected_by_sample:
            full = validate_aoc_optimal(workload.relation, oc, threshold=0.05)
            assert not full.is_valid
        assert not outcome.is_valid

    def test_valid_candidate_survives_and_gets_full_result(self):
        workload = generate_planted_oc_table(500, approximation_factor=0.05, seed=4)
        (planted,) = workload.planted_ocs
        oc = CanonicalOC((), planted.a, planted.b)
        outcome = validate_aoc_hybrid(
            workload.relation, oc, threshold=0.1, sample_size=100, seed=2
        )
        assert not outcome.rejected_by_sample
        assert outcome.is_valid
        assert outcome.result.removal_size == 25

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_hybrid_never_disagrees_on_validity_with_full_validation(self, seed):
        workload = generate_planted_oc_table(
            200, approximation_factor=0.2, seed=seed % 17
        )
        (planted,) = workload.planted_ocs
        oc = CanonicalOC((), planted.a, planted.b)
        threshold = 0.1
        hybrid = validate_aoc_hybrid(
            workload.relation, oc, threshold, sample_size=80, seed=seed
        )
        full = validate_aoc_optimal(workload.relation, oc, threshold=threshold)
        assert hybrid.is_valid == full.is_valid

    def test_prefilter_splits_candidates_correctly(self):
        relation = employee_salary_table()
        candidates = [
            CanonicalOC([], "sal", "taxGrp"),  # exact
            CanonicalOC([], "sal", "tax"),     # factor 0.44
        ]
        survivors, rejected = prefilter_candidates(
            relation, candidates, threshold=0.1, sample_size=9
        )
        assert CanonicalOC([], "sal", "taxGrp") in survivors
        assert CanonicalOC([], "sal", "tax") in rejected
        # Rejection is sound: the rejected candidate truly is invalid.
        assert not validate_aoc_optimal(
            relation, CanonicalOC([], "sal", "tax"), threshold=0.1
        ).is_valid
