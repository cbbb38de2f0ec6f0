"""Distributed validation: backend plumbing and the multiprocess path.

The worker pool honours its ``backend`` argument, and its worker processes
must return the in-process kernel's counts for every worker count.
"""

import pytest

from repro.backend import available_backends, get_backend
from repro.dataset.generators import generate_planted_oc_table
from repro.dataset.partition import PartitionCache
from repro.dependencies.oc import CanonicalOC
from repro.discovery.config import DiscoveryRequest
from repro.discovery.session import Profiler
from repro.validation.approx_oc_optimal import validate_aoc_optimal
from repro.validation.distributed import ShardedValidationPool

from _plane_stub import stub_plane_counts

BACKENDS = available_backends()


def _planted():
    workload = generate_planted_oc_table(400, approximation_factor=0.1, seed=3)
    (planted,) = workload.planted_ocs
    return workload.relation, CanonicalOC(planted.context, planted.a, planted.b)


def _plane_counts(pool, relation, context, pairs, limit=None):
    """Counts of ``pairs`` in ``context`` through a column plane on ``pool``."""
    encoded = relation.encoded(pool.backend)
    classes = PartitionCache(encoded, backend=pool.backend).get_by_names(
        sorted(context)
    )
    plane = pool.new_plane(encoded)
    try:
        return plane.harvest(plane.submit(classes, pairs, limit))
    finally:
        plane.release()


@pytest.mark.parametrize("backend", BACKENDS)
def test_backend_argument_honoured(backend):
    relation, oc = _planted()
    central = validate_aoc_optimal(relation, oc, backend=backend)
    with ShardedValidationPool(3, backend=backend, inline_group_cost=0,
                               min_shard_cost=1) as pool:
        assert pool.backend.name == backend
        counts = _plane_counts(pool, relation, oc.context, [(oc.a, oc.b)])
        assert pool.stats["jobs"] > 0
    assert counts == [(central.removal_size, False)]


def test_backend_defaults_to_partition_cache_backend():
    """A session's worker pool runs the backend its partition cache was
    built with, and its plane reproduces the validator's removal size."""
    relation, oc = _planted()
    with Profiler(relation, backend="python", num_workers=2) as session:
        session.discover(DiscoveryRequest(threshold=0.1))
        cache = session.partitions
        pool = session._pool
        assert pool.backend.name == cache.backend.name == "python"
        central = validate_aoc_optimal(relation, oc, partition_cache=cache)
        counts = _plane_counts(pool, relation, oc.context, [(oc.a, oc.b)])
    assert counts == [(central.removal_size, False)]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("num_workers", [1, 2, 4])
def test_process_execution_matches_simulated(backend, num_workers):
    """Worker processes return exactly the in-process kernel's counts, for
    every worker count and removal budget."""
    relation, oc = _planted()
    resolved = get_backend(backend)
    encoded = relation.encoded(resolved)
    classes = PartitionCache(encoded, backend=resolved).get_by_names(
        sorted(oc.context)
    )
    names = [(oc.a, oc.b), (oc.b, oc.a)]
    pairs = [(encoded.native_ranks(a), encoded.native_ranks(b))
             for a, b in names]
    with ShardedValidationPool(num_workers, backend=resolved,
                               inline_group_cost=0, min_shard_cost=1) as pool:
        for limit in (None, 0, 40):
            simulated = resolved.oc_optimal_removal_count_batch(
                classes, pairs, limit
            )
            process = _plane_counts(pool, relation, oc.context, names, limit)
            assert [over for _, over in process] == \
                [over for _, over in simulated]
            for (s_count, over), (p_count, _) in zip(simulated, process):
                if not over:
                    assert p_count == s_count
        assert pool.stats["jobs"] > 0


@pytest.mark.parametrize("backend", BACKENDS)
def test_sharded_pool_counts_match_batch_kernel(backend):
    relation, _ = _planted()
    resolved = get_backend(backend)
    encoded = relation.encoded(resolved)
    names = relation.attribute_names
    cache = PartitionCache(encoded, backend=resolved)
    classes = cache.get_by_names([names[0]])
    pair_names = [(names[1], names[2]), (names[2], names[1])]
    pairs = [
        (encoded.native_ranks(a), encoded.native_ranks(b))
        for a, b in pair_names
    ]
    for limit in (None, 5, 10_000):
        local = resolved.oc_optimal_removal_count_batch(classes, pairs, limit)
        with ShardedValidationPool(2, backend=resolved,
                                   inline_group_cost=0) as pool:
            sharded = _plane_counts(
                pool, relation, [names[0]], pair_names, limit
            )
            assert pool.stats["jobs"] > 0
        assert len(sharded) == len(local)
        for (l_count, l_over), (s_count, s_over) in zip(local, sharded):
            assert l_over == s_over
            if not l_over:
                assert l_count == s_count
            elif limit is not None:
                assert s_count > limit


def test_sharded_pool_empty_group():
    with ShardedValidationPool(2, backend="python",
                               inline_group_cost=0) as pool:
        columns = {"a": [0, 1, 2, 3]}
        assert stub_plane_counts(pool, columns, [], [], 3) == []
        assert stub_plane_counts(pool, columns, [], [("a", "a")], 3) \
            == [(0, False)]


def test_sharded_pool_rejects_stale_columns():
    """Incremental regression: after ``Profiler.extend`` grows the encoded
    relation, a column captured before the append no longer covers the new
    row ids — the pool must refuse to ship it to the workers instead of
    silently mis-indexing."""
    with ShardedValidationPool(2, backend="python",
                               inline_group_cost=0) as pool:
        columns = {
            "a": list(range(6)),
            "b": list(range(6)),
            "stale": list(range(4)),  # captured before two rows were appended
        }
        classes = [[0, 1], [4, 5]]
        assert stub_plane_counts(pool, columns, classes, [("a", "b")]) \
            == [(0, False)]
        with pytest.raises(RuntimeError, match="stale rank column 'stale'"):
            stub_plane_counts(pool, columns, classes, [("stale", "b")])
        with pytest.raises(RuntimeError, match="stale rank column 'stale'"):
            stub_plane_counts(pool, columns, classes, [("a", "stale")])
        # Classes that never reach the appended rows still accept the
        # shorter column: it covers everything they index.
        assert stub_plane_counts(pool, columns, [[0, 1]], [("stale", "stale")]) \
            == [(0, False)]
