"""Warm-session memory bounds: ``max_memo_entries`` / ``max_cached_partitions``.

The LRU knobs exist so a long-lived ``repro serve`` session cannot grow
without limit; they must bound state without ever changing results (evicted
entries are recomputed), and the incremental path must stay correct and
keep its memo however little the bound lets the cache hold: an append
patches the memo's contexts from the appended rows, not from cached
partitions.
"""

import pytest

from repro.caching import BoundedLRU
from repro.dataset.generators import generate_flight_like
from repro.dataset.relation import Relation
from repro.discovery.api import discover
from repro.discovery.config import DiscoveryRequest
from repro.discovery.session import Profiler

BACKENDS = ["python", "numpy"]


class TestBoundedLRU:
    def test_unbounded_behaves_like_dict(self):
        cache = BoundedLRU()
        for i in range(100):
            cache[i] = i * i
        assert len(cache) == 100 and cache.evictions == 0

    def test_bound_evicts_least_recently_used(self):
        cache = BoundedLRU(3)
        cache["a"], cache["b"], cache["c"] = 1, 2, 3
        assert cache.get("a") == 1  # refreshes "a"
        cache["d"] = 4  # evicts "b", the stalest
        assert set(cache) == {"a", "c", "d"}
        assert cache.evictions == 1
        assert cache.get("b") is None

    def test_rejects_nonpositive_bound(self):
        with pytest.raises(ValueError):
            BoundedLRU(0)

    def test_replace_keeps_recency(self):
        cache = BoundedLRU(3)
        cache["a"], cache["b"], cache["c"] = 1, 2, 3
        cache.replace("a", 10)  # a stays the stalest
        cache["d"] = 4
        assert list(cache.items()) == [("b", 2), ("c", 3), ("d", 4)]
        with pytest.raises(KeyError):
            cache.replace("a", 1)


@pytest.mark.parametrize("backend", BACKENDS)
def test_bounded_session_matches_unbounded(backend):
    relation = generate_flight_like(180, num_attributes=6, error_rate=0.1,
                                    seed=7).relation
    request = DiscoveryRequest.approximate(0.1)
    with Profiler(relation, backend=backend) as unbounded:
        reference = unbounded.discover(request)
    with Profiler(
        relation, backend=backend, max_memo_entries=10,
        max_cached_partitions=4,
    ) as bounded:
        result = bounded.discover(request)
        info = bounded.cache_info()
    assert result.ocs == reference.ocs and result.ofds == reference.ofds
    assert info["entries"] <= 4
    assert info["validation_memo_entries"] <= 10
    assert info["evictions"] > 0 and info["validation_memo_evictions"] > 0


@pytest.mark.parametrize("backend", BACKENDS)
def test_bounded_session_incremental_still_byte_identical(backend):
    base = generate_flight_like(150, num_attributes=5, error_rate=0.1,
                                seed=12).relation
    donor = generate_flight_like(60, num_attributes=5, error_rate=0.2,
                                 seed=21).relation
    rows = [donor.row(i) for i in range(20)]
    request = DiscoveryRequest.approximate(0.1)
    with Profiler(
        base, backend=backend, max_memo_entries=8, max_cached_partitions=3,
    ) as session:
        session.discover(request)
        assert session.cache_info()["entries"] <= 3
        summary = session.extend(rows)
        # The append rebuilds nothing and drops what the cache held; it
        # patches every context the memo or the grouped-row counts name.
        assert session.cache_info()["entries"] == 0
        assert summary.patched_partitions >= len(summary.affected_contexts)
        outcome = session.discover_incremental(request)
        assert session.cache_info()["entries"] <= 3
    columns = {name: [] for name in base.attribute_names}
    for row in rows:
        for name, value in zip(base.attribute_names, row):
            columns[name].append(value)
    cold = discover(base.concat(Relation(base.schema, columns)), request,
                    backend=backend)
    assert outcome.result.ocs == cold.ocs
    assert outcome.result.ofds == cold.ofds


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("seed,bound", [(3, 2), (14, 3), (19, 2)])
def test_append_under_a_tight_bound_matches_cold(backend, seed, bound):
    """Under a tight bound the cache evicts and re-caches keys all through
    a discovery; the append's patches come from the appended rows for
    every context the memo holds entries of, whatever the cache held, so
    the incremental result equals a cold run's."""
    relation = generate_flight_like(70, num_attributes=4, error_rate=0.2,
                                    seed=seed).relation
    base = relation.take(range(50))
    rows = [relation.row(i) for i in range(50, 70)]
    request = DiscoveryRequest.approximate(0.1)
    with Profiler(base, backend=backend,
                  max_cached_partitions=bound) as session:
        session.discover(request)
        session.extend(rows)
        outcome = session.discover_incremental(request)
    cold = discover(relation, request, backend=backend)
    assert outcome.result.ocs == cold.ocs
    assert outcome.result.ofds == cold.ofds


@pytest.mark.parametrize("backend", BACKENDS)
def test_append_under_a_tight_bound_keeps_memo_entries(backend):
    """With two cached partitions at most, an append still adjusts and
    retains most memo entries instead of purging every context the cache
    no longer holds, and the results equal cold runs'."""
    relation = generate_flight_like(260, num_attributes=5, error_rate=0.1,
                                    seed=12).relation
    base = relation.take(range(200))
    request = DiscoveryRequest.approximate(0.1)
    with Profiler(base, backend=backend, max_cached_partitions=2) as session:
        session.discover(request)
        for start in (200, 230):
            summary = session.extend(
                [relation.row(i) for i in range(start, start + 30)]
            )
            kept = summary.adjusted_memo_entries \
                + summary.retained_memo_entries
            assert summary.adjusted_memo_entries > 0
            assert kept > summary.invalidated_memo_entries
            assert session.cache_info()["entries"] == 0
            outcome = session.discover_incremental(request)
            cold = discover(relation.take(range(start + 30)), request,
                            backend=backend)
            assert outcome.result.ocs == cold.ocs
            assert outcome.result.ofds == cold.ofds
