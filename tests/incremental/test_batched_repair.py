"""Memo repair makes one OC and one OFD count call per append.

``repair_memo`` concatenates every affected context's patch classes into
one CSR and recounts each entry over its context's class range, so the
number of count calls an append makes does not grow with the number of
contexts it touched.  The repaired entries must still equal a fresh count
over the rebuilt context (see ``test_memo_adjustment_matches_fresh_kernels``
in ``test_incremental_equivalence.py``); here the call count and the
concatenation itself are pinned down.
"""

import numpy
import pytest

from repro.backend import get_backend
from repro.dataset.generators import generate_flight_like
from repro.dataset.partition import Partition, PartitionCache
from repro.discovery.api import discover
from repro.discovery.config import DiscoveryRequest
from repro.discovery.lattice import AttributeBits
from repro.discovery.session import Profiler
from repro.incremental.repair import _concatenate

BACKENDS = ["python", "numpy"]


@pytest.mark.parametrize("backend", BACKENDS)
def test_extend_makes_one_call_per_count_kernel(backend, monkeypatch):
    """A warm flight 2000 x 8 session appends 40 rows: however many
    contexts the append affects, ``extend`` calls each count batch at most
    once, and the calls carry every recount."""
    relation = generate_flight_like(2040, num_attributes=8, seed=3).relation
    base_rows = [relation.row(i) for i in range(2000)]
    delta = [relation.row(i) for i in range(2000, 2040)]
    base = type(relation).from_rows(base_rows, relation.attribute_names)
    backend_class = type(get_backend(backend))
    calls = {"oc_optimal_removal_count_batch": [], "ofd_removal_batch": []}
    with Profiler(base, backend=backend) as session:
        for threshold in (0.05, 0.1, 0.15, 0.1):
            session.discover(DiscoveryRequest(threshold=threshold))
        for name, jobs in calls.items():
            real = getattr(backend_class, name)

            def counted(self, classes, columns, *args, _real=real,
                        _jobs=jobs, **kwargs):
                _jobs.append(len(columns))
                return _real(self, classes, columns, *args, **kwargs)

            monkeypatch.setattr(backend_class, name, counted)
        summary = session.extend(delta)
        monkeypatch.undo()
        assert len(summary.affected_contexts) > 10
        assert summary.adjusted_memo_entries > 0
        assert len(calls["oc_optimal_removal_count_batch"]) <= 1
        assert len(calls["ofd_removal_batch"]) <= 1
        # Each adjusted count is two jobs (removed and added classes).
        jobs = sum(sum(counts) for counts in calls.values())
        assert jobs == 2 * summary.adjusted_memo_entries
        outcome = session.discover_incremental(DiscoveryRequest(threshold=0.1))
    cold = Profiler(relation, backend=backend)
    with cold:
        expected = cold.discover(DiscoveryRequest(threshold=0.1))
    assert outcome.result.ocs == expected.ocs
    assert outcome.result.ofds == expected.ofds


@pytest.mark.parametrize("backend", BACKENDS)
def test_iterative_counts_are_purged_and_recounted(backend):
    """Algorithm 1 has no count kernel: an append purges the iterative
    counts of every affected context, ``DeltaSummary`` counts them as
    invalidated, and the engine recounts them, so the incremental result
    equals a cold run's."""
    relation = generate_flight_like(330, num_attributes=6, error_rate=0.1,
                                    seed=5).relation
    base = relation.take(range(300))
    delta = [relation.row(i) for i in range(300, 330)]
    request = DiscoveryRequest(threshold=0.1, validator="iterative")
    with Profiler(base, backend=backend) as session:
        session.discover(request)
        before = dict(session.validation_memo)
        summary = session.extend(delta)
        after = set(session.validation_memo)
        bits = AttributeBits(base.schema)
        affected = {bits.mask(names) for names in summary.affected_contexts}
        counts = [key for key, (_, exceeded, _) in before.items()
                  if key[1] == "iterative" and key[2] in affected
                  and not exceeded]
        assert counts
        # Every memo context is patched, so whatever left the memo was
        # invalidated, and every affected iterative count left it.
        removed = set(before) - after
        assert summary.invalidated_memo_entries == len(removed)
        assert set(counts) <= removed
        outcome = session.discover_incremental(request)
    assert outcome.result.stats.validation_memo_hits > 0
    cold = discover(relation, request, backend=backend)
    assert outcome.result.ocs == cold.ocs
    assert outcome.result.ofds == cold.ofds


def _warm_flight_session(backend):
    relation = generate_flight_like(1040, num_attributes=6, seed=11).relation
    session = Profiler(relation.take(range(1000)), backend=backend)
    for threshold in (0.15, 0.1, 0.05):
        session.discover(DiscoveryRequest(threshold=threshold))
    return session, [relation.row(i) for i in range(1000, 1040)]


@pytest.mark.parametrize("backend", BACKENDS)
def test_extend_builds_no_partition(backend, monkeypatch):
    """An append refines nothing: its patches come from the appended
    rows, and the cached partitions are dropped, not rebuilt."""
    session, delta = _warm_flight_session(backend)
    backend_class = type(get_backend(backend))
    calls = []
    for name in ("partition_refine", "partition_single"):
        monkeypatch.setattr(backend_class, name,
                            lambda *args, _name=name: calls.append(_name))
    summary = session.extend(delta)
    monkeypatch.undo()
    assert calls == []
    assert summary.adjusted_memo_entries > 0
    assert session.cache_info()["entries"] == 0


@pytest.mark.parametrize("backend", BACKENDS)
def test_memo_answered_discover_reads_no_partition(backend, monkeypatch):
    """A warm discover that the memo answers completely reads no
    partition, before or after an append: coverage scores come from the
    cache's grouped-row counts."""
    session, delta = _warm_flight_session(backend)
    request = DiscoveryRequest(threshold=0.1)
    session.extend(delta)
    session.discover(request)
    expected = discover(session.relation, request, backend=backend)
    calls = []
    real = PartitionCache.get

    def counted(self, *args, **kwargs):
        calls.append(args)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(PartitionCache, "get", counted)
    result = session.discover(request)
    monkeypatch.undo()
    assert calls == []
    assert result.stats.oc_batches == result.stats.ofd_batches == 0
    assert result.ocs and result.ocs == expected.ocs
    assert result.ofds == expected.ofds


def test_concatenation_keeps_every_part_in_order():
    """The concatenated CSR holds every part's classes, in order, empty
    parts included."""
    parts = [
        Partition([[0, 3], [1, 2, 5]], 8),
        Partition([], 8),
        Partition([[4, 6, 7]], 8),
        Partition([[0, 1], [2, 3], [4, 5]], 8),
    ]
    combined = _concatenate(parts)
    assert list(combined) == [
        rows for part in parts for rows in part.classes
    ]
    assert len(combined) == 6
    assert combined.class_offsets.tolist() == [0, 2, 5, 8, 10, 12, 14]
    assert combined.class_offsets.dtype == numpy.int64
    assert combined.row_indices.dtype == numpy.int64
