"""The OC plane's threads read the coordinator's columns in place.

:class:`repro.validation.distributed.ColumnPlane` counts each OC context
group on a thread of a
:class:`~repro.validation.distributed.ShardedValidationPool`, which runs
inside the coordinator's process: every thread reads the rank columns the
encoding already holds, so nothing is copied per thread, per group or per
delta.  These tests drive the plane directly against real encodings and
check the counts, the pool's counters and the ``submit`` / ``harvest`` /
``abandon`` contract.
"""

import threading
import traceback

import pytest

from repro.backend import get_backend
from repro.dataset.generators import generate_planted_oc_table
from repro.discovery.config import DiscoveryConfig
from repro.discovery.engine import DiscoveryEngine
from repro.validation.distributed import ColumnPlane, ShardedValidationPool

BACKENDS = ["python", "numpy"]


def _relation():
    return generate_planted_oc_table(
        300, approximation_factor=0.1, seed=11
    ).relation


def _workload(backend):
    relation = _relation()
    resolved = get_backend(backend)
    encoded = relation.encoded(resolved)
    names = relation.attribute_names
    classes = [
        [i, i + 1, i + 2] for i in range(0, relation.num_rows - 3, 3)
    ]
    return resolved, encoded, names, classes


def _prepare(resolved, encoded):
    """A plane ``prepare`` reading ``encoded``'s rank columns, as a run's
    engine does."""
    def prepare(classes, pair_names, limit):
        pairs = [(encoded.native_ranks(a), encoded.native_ranks(b))
                 for a, b in pair_names]
        return lambda: resolved.oc_optimal_removal_count_batch(
            classes, pairs, limit
        )
    return prepare


def _expected(resolved, encoded, classes, pairs, limit=None):
    return resolved.oc_optimal_removal_count_batch(
        classes,
        [
            (encoded.native_ranks(a), encoded.native_ranks(b))
            for a, b in pairs
        ],
        limit,
    )


@pytest.mark.parametrize("backend", BACKENDS)
def test_columns_ship_once_per_worker_per_version(backend, monkeypatch):
    """Nothing ships: every group a run's engine submits hands the kernel
    the encoding's own column objects, however often it is dispatched."""
    resolved, _, names, classes = _workload(backend)
    engine = DiscoveryEngine(
        _relation(), DiscoveryConfig(threshold=0.1, backend=backend)
    )
    encoded = engine.encoded
    pairs = [(names[1], names[2]), (names[2], names[1])]
    expected = _expected(resolved, encoded, classes, pairs)
    backend_cls = type(resolved)
    real_count = backend_cls.oc_optimal_removal_count_batch
    seen = []

    def recording_count(self, classes, rank_pairs, limit):
        seen.extend(column for pair in rank_pairs for column in pair)
        return real_count(self, classes, rank_pairs, limit)

    monkeypatch.setattr(backend_cls, "oc_optimal_removal_count_batch",
                        recording_count)
    with ShardedValidationPool(2) as pool:
        plane = ColumnPlane(engine._oc_group_count, pool)
        for _ in range(4):
            assert plane.harvest(plane.submit(classes, pairs, None)) == expected
        assert pool.stats == {"groups": 4, "jobs": 8}
    # The reference loops read the lists the encoding caches, the native
    # kernels its arrays.
    column = (encoded.native_ranks if resolved.oc_kernel_name == "native"
              else encoded.ranks)
    resident = {id(column(name)) for name in names[1:3]}
    assert len(seen) == 16
    assert {id(column) for column in seen} == resident


@pytest.mark.parametrize("backend", BACKENDS)
def test_apply_delta_ships_only_appended_rows(backend):
    """A delta-extended encoding keeps the base rows of an appended column
    and adds only the new ones; planes over the base and the grown
    encoding share one pool and each count their own version."""
    resolved, encoded, names, classes = _workload(backend)
    pairs = [(names[1], names[2])]
    relation_rows = encoded.num_rows
    delta_columns = {
        name: [encoded.decode(name, 0)] * 4 for name in names
    }
    extended, modes = encoded.extend(delta_columns)
    assert extended.num_rows == relation_rows + 4
    extended_classes = classes + [[relation_rows, relation_rows + 2]]
    expected = _expected(resolved, extended, extended_classes, pairs)
    base_expected = _expected(resolved, encoded, classes, pairs)
    for name in names:
        if modes[name] == "appended":
            assert list(extended.ranks(name)[:relation_rows]) \
                == list(encoded.ranks(name))
    with ShardedValidationPool(2) as pool:
        base = ColumnPlane(_prepare(resolved, encoded), pool)
        grown = ColumnPlane(_prepare(resolved, extended), pool)
        assert base.harvest(base.submit(classes, pairs, None)) == base_expected
        assert grown.harvest(grown.submit(extended_classes, pairs, None)) \
            == expected
        # The base encoding is untouched by the delta.
        assert base.harvest(base.submit(classes, pairs, None)) == base_expected
        assert len(encoded.native_ranks(names[1])) == relation_rows


@pytest.mark.parametrize("backend", BACKENDS)
def test_bind_to_different_encoding_invalidates(backend):
    """Planes over different encodings on one pool, their groups
    interleaved, never read each other's columns."""
    resolved, encoded, names, classes = _workload(backend)
    other_relation = generate_planted_oc_table(
        120, approximation_factor=0.2, seed=23
    ).relation
    other = other_relation.encoded(resolved)
    other_classes = [[i, i + 1] for i in range(0, other.num_rows - 2, 2)]
    pairs = [(names[1], names[2])]
    expected = _expected(resolved, encoded, classes, pairs)
    other_expected = _expected(resolved, other, other_classes, pairs)
    with ShardedValidationPool(2) as pool:
        plane = ColumnPlane(_prepare(resolved, encoded), pool)
        other_plane = ColumnPlane(_prepare(resolved, other), pool)
        pending = [
            (plane.submit(classes, pairs, None), expected),
            (other_plane.submit(other_classes, pairs, None), other_expected),
            (plane.submit(classes, pairs, None), expected),
        ]
        for group, want in pending:
            assert plane.harvest(group) == want


@pytest.mark.parametrize("backend", BACKENDS)
def test_release_frees_bookkeeping_and_pool_survives(backend):
    """A dropped plane leaves the pool usable for a fresh one; ``close``
    is idempotent and a closed pool refuses new groups."""
    resolved, encoded, names, classes = _workload(backend)
    pairs = [(names[1], names[2])]
    expected = _expected(resolved, encoded, classes, pairs)
    pool = ShardedValidationPool(2)
    plane = ColumnPlane(_prepare(resolved, encoded), pool)
    plane.harvest(plane.submit(classes, pairs, None))
    del plane
    fresh = ColumnPlane(_prepare(resolved, encoded), pool)
    assert fresh.harvest(fresh.submit(classes, pairs, None)) == expected
    assert pool.stats == {"groups": 2, "jobs": 2}
    assert not pool.closed
    pool.close()
    pool.close()  # idempotent
    assert pool.closed
    with pytest.raises(RuntimeError, match="closed"):
        fresh.submit(classes, pairs, None)


@pytest.mark.parametrize("backend", BACKENDS)
def test_abandoned_groups_never_poison_later_harvests(backend):
    resolved, encoded, names, classes = _workload(backend)
    pairs = [(names[1], names[2]), (names[0], names[1])]
    expected = _expected(resolved, encoded, classes, pairs)
    with ShardedValidationPool(2) as pool:
        plane = ColumnPlane(_prepare(resolved, encoded), pool)
        pending = plane.submit(classes, pairs, None)
        plane.abandon(pending)
        plane.abandon(pending)  # idempotent
        assert plane.harvest(plane.submit(classes, pairs, None)) == expected


@pytest.mark.parametrize("backend", BACKENDS)
def test_abandon_races_dying_worker(backend):
    """``abandon`` against a group still counting on its thread: the
    group finishes and is discarded, later groups give byte-identical
    counts, and ``close`` waits for the abandoned group to end."""
    resolved, encoded, names, classes = _workload(backend)
    pairs = [(names[1], names[2]), (names[0], names[1])]
    expected = _expected(resolved, encoded, classes, pairs)
    started, gate = threading.Event(), threading.Event()
    finished = []
    count_prepare = _prepare(resolved, encoded)

    def gated_prepare(classes, pair_names, limit):
        count = count_prepare(classes, pair_names, limit)

        def gated():
            started.set()
            assert gate.wait(timeout=60)
            finished.append(count())
            return finished[-1]
        return gated

    pool = ShardedValidationPool(2)
    try:
        plane = ColumnPlane(gated_prepare, pool)
        pending = plane.submit(classes, pairs, None)
        assert started.wait(timeout=60)
        plane.abandon(pending)
        assert not pending.cancelled()  # already running: it finishes
        quick = ColumnPlane(count_prepare, pool)
        assert quick.harvest(quick.submit(classes, pairs, None)) == expected
    finally:
        gate.set()
        pool.close()
    assert finished == [expected]
    assert pending.done()


def test_concurrent_threads_share_one_pool():
    """`repro serve` runs requests on per-dataset handler threads:
    concurrent submits/harvests from distinct planes on one pool must never
    cross results."""
    resolved, encoded, names, classes = _workload("python")
    pairs = [(names[1], names[2]), (names[2], names[1])]
    expected = _expected(resolved, encoded, classes, pairs)
    failures = []
    with ShardedValidationPool(2) as pool:

        def hammer():
            plane = ColumnPlane(_prepare(resolved, encoded), pool)
            try:
                for _ in range(10):
                    if plane.harvest(plane.submit(classes, pairs, None)) != expected:
                        failures.append("result mismatch")
            except BaseException as error:  # noqa: BLE001 - recorded for assert
                failures.append(repr(error))

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert pool.stats == {"groups": 40, "jobs": 80}
    assert not failures


def test_harvest_error_settles_worker_load():
    """A failing group must not cost the pool a thread: after it raises at
    harvest, more groups than there are threads still count."""
    resolved, encoded, names, classes = _workload("python")
    pairs = [(names[1], names[2])]
    expected = _expected(resolved, encoded, classes, pairs)
    columns = {"bad": [0, "bad"], "b": [0, 1]}

    def bad_prepare(classes, pair_names, limit):
        rank_pairs = [(columns[a], columns[b]) for a, b in pair_names]
        return lambda: resolved.oc_optimal_removal_count_batch(
            classes, rank_pairs, limit
        )

    with ShardedValidationPool(2) as pool:
        bad = ColumnPlane(bad_prepare, pool)
        with pytest.raises(TypeError):
            bad.harvest(bad.submit([[0, 1]], [("bad", "b")], None))
        plane = ColumnPlane(_prepare(resolved, encoded), pool)
        pending = [plane.submit(classes, pairs, None) for _ in range(4)]
        assert [plane.harvest(group) for group in pending] == [expected] * 4


def test_worker_error_surfaces_as_runtime_error():
    """A kernel crash on a plane thread reaches the coordinator at harvest
    as the kernel's RuntimeError, carrying the thread's traceback, and the
    pool remains usable."""
    resolved, encoded, names, classes = _workload("python")
    pairs = [(names[1], names[2])]

    def crashing_kernel():
        raise RuntimeError("kernel crashed")

    def prepare(classes, pair_names, limit):
        if pair_names == [("bad", "b")]:
            return crashing_kernel
        return _prepare(resolved, encoded)(classes, pair_names, limit)

    with ShardedValidationPool(1) as pool:
        plane = ColumnPlane(prepare, pool)
        with pytest.raises(RuntimeError, match="kernel crashed") as info:
            plane.harvest(plane.submit([[0, 1]], [("bad", "b")], None))
        frames = traceback.extract_tb(info.value.__traceback__)
        assert frames[-1].name == "crashing_kernel"
        assert plane.harvest(plane.submit(classes, pairs, None)) \
            == _expected(resolved, encoded, classes, pairs)
