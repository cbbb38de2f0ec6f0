"""Tests for the extension modules: bidirectional OCs and class-parallel
validation on the OC plane's threads (the paper's §5 future-work
directions)."""

from itertools import combinations

import pytest

from repro.backend import get_backend
from repro.dataset.examples import employee_salary_table
from repro.dataset.generators import generate_ncvoter_like, generate_planted_oc_table
from repro.dataset.partition import PartitionCache
from repro.dataset.relation import Relation
from repro.dependencies.bidirectional import BidirectionalOC
from repro.dependencies.oc import CanonicalOC
from repro.validation.approx_oc_optimal import validate_aoc_optimal
from repro.validation.bidirectional import best_polarity, validate_aboc_optimal
from repro.validation.common import removal_limit
from repro.validation.distributed import ColumnPlane, ShardedValidationPool


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
    """Validate ``oc`` through a plane on ``pool``'s threads."""
    backend = get_backend("python")
    encoded = relation.encoded(backend)
    classes = PartitionCache(encoded, backend=backend).get_by_names(
        sorted(oc.context)
    )

    def prepare(classes, pair_names, limit):
        rank_pairs = [(encoded.ranks(a), encoded.ranks(b))
                      for a, b in pair_names]
        return lambda: backend.oc_optimal_removal_count_batch(
            classes, rank_pairs, limit
        )

    plane = ColumnPlane(prepare, pool)
    return plane.harvest(plane.submit(classes, [(oc.a, oc.b)], limit))[0]


class TestDistributedValidation:
    def test_matches_centralised_validator(self):
        workload = generate_ncvoter_like(400, num_attributes=8, seed=5)
        relation = workload.relation
        ocs = [CanonicalOC(p.context, p.a, p.b) for p in workload.planted_ocs]
        for num_threads in (1, 3):
            with ShardedValidationPool(num_threads) as pool:
                for oc in ocs:
                    central = validate_aoc_optimal(relation, oc)
                    count, exceeded = _pooled_count(relation, oc, pool)
                    assert (count, exceeded) == (central.removal_size, False)
                assert pool.stats["jobs"] == len(ocs)

    def test_with_context_and_threshold(self):
        workload = generate_planted_oc_table(
            300, approximation_factor=0.1, num_context_groups=6, seed=2
        )
        (planted,) = workload.planted_ocs
        oc = CanonicalOC(planted.context, planted.a, planted.b)
        limit = removal_limit(workload.relation.num_rows, 0.15)
        with ShardedValidationPool(4) as pool:
            count, exceeded = _pooled_count(workload.relation, oc, pool, limit)
            assert pool.stats == {"groups": 1, "jobs": 1}
        assert not exceeded
        assert count == 30

    def test_threshold_rejection(self):
        table = employee_salary_table()
        limit = removal_limit(table.num_rows, 0.1)
        with ShardedValidationPool(2) as pool:
            count, exceeded = _pooled_count(
                table, CanonicalOC([], "sal", "tax"), pool, limit
            )
        assert exceeded and count > limit

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            ShardedValidationPool(0)
