"""The OC plane's threads: backend plumbing and counts.

A run's :class:`~repro.validation.distributed.ColumnPlane` counts its OC
context groups with the backend the run was given, on the threads of a
:class:`~repro.validation.distributed.ShardedValidationPool`; for every
thread count the counts must be the in-process kernel's.
"""

import pytest

from repro.backend import available_backends, get_backend
from repro.dataset.generators import generate_flight_like, generate_planted_oc_table
from repro.dependencies.oc import CanonicalOC
from repro.discovery.config import DiscoveryConfig, DiscoveryRequest
from repro.discovery.engine import DiscoveryEngine
from repro.discovery.session import Profiler
from repro.validation.approx_oc_optimal import validate_aoc_optimal
from repro.validation.distributed import ColumnPlane, ShardedValidationPool

BACKENDS = available_backends()


def _planted():
    workload = generate_planted_oc_table(400, approximation_factor=0.1, seed=3)
    (planted,) = workload.planted_ocs
    return workload.relation, CanonicalOC(planted.context, planted.a, planted.b)


def _engine(relation, backend):
    return DiscoveryEngine(
        relation, DiscoveryConfig(threshold=0.1, backend=backend)
    )


def _plane_counts(pool, engine, context, pairs, limit=None):
    """Counts of ``pairs`` in ``context`` through a plane on ``pool``,
    prepared the way ``engine`` prepares its groups."""
    classes = engine.partitions.get_by_names(sorted(context))
    plane = ColumnPlane(engine._oc_group_count, pool)
    return plane.harvest(plane.submit(classes, pairs, limit))


def _column_prepare(backend, columns):
    """A plane ``prepare`` over hand-written rank columns."""
    def prepare(classes, pair_names, limit):
        pairs = [(columns[a], columns[b]) for a, b in pair_names]
        return lambda: backend.oc_optimal_removal_count_batch(
            classes, pairs, limit
        )
    return prepare


@pytest.mark.parametrize("backend", BACKENDS)
def test_backend_argument_honoured(backend):
    relation, oc = _planted()
    central = validate_aoc_optimal(relation, oc, backend=backend)
    engine = _engine(relation, backend)
    assert engine.backend.name == backend
    with ShardedValidationPool(3) as pool:
        counts = _plane_counts(pool, engine, oc.context, [(oc.a, oc.b)])
        assert pool.stats == {"groups": 1, "jobs": 1}
    assert counts == [(central.removal_size, False)]


def test_backend_defaults_to_partition_cache_backend(monkeypatch):
    """A session's runs count on the backend its partition cache was built
    with, and their plane reproduces the validator's removal size."""
    relation, oc = _planted()
    prepares = []
    real_init = ColumnPlane.__init__

    def spy(self, prepare, pool=None):
        prepares.append(prepare)
        real_init(self, prepare, pool)

    monkeypatch.setattr(ColumnPlane, "__init__", spy)
    with Profiler(relation, backend="python", num_workers=2) as session:
        session.discover(DiscoveryRequest(threshold=0.1))
        cache = session.partitions
        (prepare,) = prepares
        engine = prepare.__self__
        assert engine.backend is cache.backend
        assert engine.backend.name == "python"
        central = validate_aoc_optimal(relation, oc, partition_cache=cache)
        with ShardedValidationPool(2) as pool:
            plane = ColumnPlane(prepare, pool)
            counts = plane.harvest(plane.submit(
                cache.get_by_names(sorted(oc.context)), [(oc.a, oc.b)]
            ))
    assert counts == [(central.removal_size, False)]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("num_workers", [1, 2, 4])
def test_process_execution_matches_simulated(backend, num_workers):
    """Plane threads return exactly the in-process kernel's counts, for
    every thread count and removal budget."""
    relation, oc = _planted()
    resolved = get_backend(backend)
    engine = _engine(relation, backend)
    encoded = engine.encoded
    classes = engine.partitions.get_by_names(sorted(oc.context))
    names = [(oc.a, oc.b), (oc.b, oc.a)]
    pairs = [(encoded.native_ranks(a), encoded.native_ranks(b))
             for a, b in names]
    with ShardedValidationPool(num_workers) as pool:
        for limit in (None, 0, 40):
            simulated = resolved.oc_optimal_removal_count_batch(
                classes, pairs, limit
            )
            threaded = _plane_counts(pool, engine, oc.context, names, limit)
            inline = _plane_counts(None, engine, oc.context, names, limit)
            assert threaded == inline == simulated
        assert pool.stats == {"groups": 3, "jobs": 6}


@pytest.mark.parametrize("backend", BACKENDS)
def test_sharded_pool_counts_match_batch_kernel(backend):
    relation, _ = _planted()
    resolved = get_backend(backend)
    engine = _engine(relation, backend)
    encoded = engine.encoded
    names = relation.attribute_names
    classes = engine.partitions.get_by_names([names[0]])
    pair_names = [(names[1], names[2]), (names[2], names[1])]
    pairs = [
        (encoded.native_ranks(a), encoded.native_ranks(b))
        for a, b in pair_names
    ]
    for limit in (None, 5, 10_000):
        local = resolved.oc_optimal_removal_count_batch(classes, pairs, limit)
        with ShardedValidationPool(2) as pool:
            threaded = _plane_counts(
                pool, engine, [names[0]], pair_names, limit
            )
            assert pool.stats["jobs"] == len(pair_names)
        assert len(threaded) == len(local)
        for (l_count, l_over), (t_count, t_over) in zip(local, threaded):
            assert l_over == t_over
            if not l_over:
                assert l_count == t_count
            elif limit is not None:
                assert t_count > limit


def test_sharded_pool_empty_group():
    backend = get_backend("python")
    plane_columns = {"a": [0, 1, 2, 3]}
    with ShardedValidationPool(2) as pool:
        plane = ColumnPlane(_column_prepare(backend, plane_columns), pool)
        assert plane.harvest(plane.submit([], [], 3)) == []
        assert plane.harvest(plane.submit([], [("a", "a")], 3)) \
            == [(0, False)]
        assert pool.stats == {"groups": 2, "jobs": 1}


def test_sharded_pool_rejects_stale_columns(monkeypatch):
    """Incremental regression: after ``Profiler.extend`` grows the encoded
    relation, a column captured before the append no longer covers the new
    row ids.  Every group the next run hands its plane threads must read
    columns of the grown encoding, and its results must equal a cold run's
    over the grown table."""
    monkeypatch.setattr(DiscoveryEngine, "_oc_threads", lambda self: 2)
    backend = BACKENDS[-1]
    base = generate_flight_like(
        260, num_attributes=5, error_rate=0.1, seed=7
    ).relation
    donor = generate_flight_like(
        300, num_attributes=5, error_rate=0.1, seed=13
    ).relation
    delta_rows = [donor.row(i) for i in range(260, 300)]
    request = DiscoveryRequest(threshold=0.1)
    backend_cls = type(get_backend(backend))
    real_count = backend_cls.oc_optimal_removal_count_batch
    column_lengths = set()

    def recording_count(self, classes, pairs, limit):
        column_lengths.update(len(column) for pair in pairs for column in pair)
        return real_count(self, classes, pairs, limit)

    with Profiler(base, backend=backend, cache_validations=False) as session:
        session.discover(request)
        session.extend(delta_rows)
        monkeypatch.setattr(backend_cls, "oc_optimal_removal_count_batch",
                            recording_count)
        grown = session.discover(request)
        num_rows = session.relation.num_rows
    monkeypatch.setattr(backend_cls, "oc_optimal_removal_count_batch",
                        real_count)
    assert num_rows == 300
    assert column_lengths == {num_rows}
    with Profiler(session.relation, backend=backend) as cold:
        reference = cold.discover(request)
    assert grown.ocs == reference.ocs
    assert grown.ofds == reference.ofds
