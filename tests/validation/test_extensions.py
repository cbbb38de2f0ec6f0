"""Tests for class-parallel validation on the OC plane's threads (one of
the paper's §5 future-work directions)."""

import pytest

from repro.backend import get_backend
from repro.dataset.examples import employee_salary_table
from repro.dataset.generators import generate_ncvoter_like, generate_planted_oc_table
from repro.dataset.partition import PartitionCache
from repro.dependencies.oc import CanonicalOC
from repro.validation.approx_oc_optimal import validate_aoc_optimal
from repro.validation.common import removal_limit
from repro.validation.distributed import ColumnPlane, ShardedValidationPool


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
