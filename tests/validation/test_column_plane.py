"""The worker-resident column plane: ship once, patch by delta.

The PR-5 transport contract: a rank column crosses the process boundary at
most once per worker per dataset version; later group dispatches send only
column references plus class offsets, and ``Profiler.extend``-style deltas
ship only the appended ranks.  These tests drive
:class:`repro.validation.distributed.ColumnPlane` directly against real
encodings and check both the results and the shipping counters.
"""

import pytest

from repro.backend import available_backends, get_backend
from repro.dataset.generators import generate_planted_oc_table
from repro.validation.distributed import ClassShard, ShardedValidationPool

from _plane_stub import stub_plane_counts

BACKENDS = available_backends()


def _force_dispatch(pool):
    """Disable the in-process small-group shortcut so every group reaches
    the workers (the tests' workloads are tiny by design)."""
    pool.INLINE_GROUP_COST = 0
    pool.MIN_SHARD_COST = 1
    return pool


def _workload(backend):
    relation = generate_planted_oc_table(
        300, approximation_factor=0.1, seed=11
    ).relation
    resolved = get_backend(backend)
    encoded = relation.encoded(resolved)
    names = relation.attribute_names
    classes = [
        [i, i + 1, i + 2] for i in range(0, relation.num_rows - 3, 3)
    ]
    return resolved, encoded, names, classes


@pytest.mark.parametrize("backend", BACKENDS)
def test_columns_ship_once_per_worker_per_version(backend):
    resolved, encoded, names, classes = _workload(backend)
    pairs = [(names[1], names[2]), (names[2], names[1])]
    expected = resolved.oc_optimal_removal_count_batch(
        classes,
        [
            (encoded.native_ranks(a), encoded.native_ranks(b))
            for a, b in pairs
        ],
        None,
    )
    with ShardedValidationPool(2, backend=resolved) as pool:
        _force_dispatch(pool)
        plane = pool.new_plane(encoded)
        first = plane.harvest(plane.submit(classes, pairs, None))
        shipped_after_first = pool.stats["columns_shipped"]
        assert first == expected
        # Every later dispatch of the same columns is reference-only.
        for _ in range(3):
            assert plane.harvest(plane.submit(classes, pairs, None)) == expected
        assert pool.stats["columns_shipped"] == shipped_after_first
        assert pool.stats["column_refs"] > 0


@pytest.mark.parametrize("backend", BACKENDS)
def test_apply_delta_ships_only_appended_rows(backend):
    resolved, encoded, names, classes = _workload(backend)
    pairs = [(names[1], names[2])]
    relation_rows = encoded.num_rows
    delta_columns = {
        name: [encoded.decode(name, 0)] * 4 for name in names
    }
    extended, modes = encoded.extend(delta_columns)
    extended_classes = classes + [[relation_rows, relation_rows + 2]]
    expected = resolved.oc_optimal_removal_count_batch(
        extended_classes,
        [(extended.native_ranks(names[1]), extended.native_ranks(names[2]))],
        None,
    )
    with ShardedValidationPool(2, backend=resolved) as pool:
        _force_dispatch(pool)
        plane = pool.new_plane(encoded)
        plane.harvest(plane.submit(classes, pairs, None))  # make columns resident
        shipped_before = pool.stats["columns_shipped"]
        plane.apply_delta(extended, modes, relation_rows)
        assert pool.stats["deltas"] == 1
        got = plane.harvest(plane.submit(extended_classes, pairs, None))
        assert got == expected
        if all(modes[name] == "appended" for name in pairs[0]):
            # The appended fast path never re-ships the base column.
            assert pool.stats["columns_shipped"] == shipped_before


@pytest.mark.parametrize("backend", BACKENDS)
def test_stale_classes_rejected_after_delta(backend):
    """Classes indexing past the plane's current row count must be refused
    (the worker would silently mis-index otherwise)."""
    resolved, encoded, names, classes = _workload(backend)
    with ShardedValidationPool(2, backend=resolved) as pool:
        _force_dispatch(pool)
        plane = pool.new_plane(encoded)
        beyond = [[0, encoded.num_rows + 5]]
        with pytest.raises(RuntimeError, match="stale rank column"):
            plane.harvest(plane.submit(beyond, [(names[1], names[2])], None))


@pytest.mark.parametrize("backend", BACKENDS)
def test_bind_to_different_encoding_invalidates(backend):
    resolved, encoded, names, classes = _workload(backend)
    other_relation = generate_planted_oc_table(
        120, approximation_factor=0.2, seed=23
    ).relation
    other = other_relation.encoded(resolved)
    other_classes = [[i, i + 1] for i in range(0, other.num_rows - 2, 2)]
    expected = resolved.oc_optimal_removal_count_batch(
        other_classes,
        [(other.native_ranks(names[1]), other.native_ranks(names[2]))],
        None,
    )
    with ShardedValidationPool(2, backend=resolved) as pool:
        _force_dispatch(pool)
        plane = pool.new_plane(encoded)
        plane.harvest(plane.submit(classes, [(names[1], names[2])], None))
        plane.bind(other)
        assert plane.harvest(plane.submit(
            other_classes, [(names[1], names[2])], None
        )) == expected


@pytest.mark.parametrize("backend", BACKENDS)
def test_release_frees_bookkeeping_and_pool_survives(backend):
    resolved, encoded, names, classes = _workload(backend)
    with ShardedValidationPool(2, backend=resolved) as pool:
        _force_dispatch(pool)
        plane = pool.new_plane(encoded)
        plane.harvest(plane.submit(classes, [(names[1], names[2])], None))
        plane.release()
        plane.release()  # idempotent
        # A fresh plane over the same pool works from scratch.
        fresh = pool.new_plane(encoded)
        assert fresh.plane_id != plane.plane_id
        assert fresh.harvest(fresh.submit(classes, [(names[1], names[2])], None)) \
            == resolved.oc_optimal_removal_count_batch(
                classes,
                [
                    (encoded.native_ranks(names[1]),
                     encoded.native_ranks(names[2]))
                ],
                None,
            )


@pytest.mark.parametrize("backend", BACKENDS)
def test_abandoned_groups_never_poison_later_harvests(backend):
    resolved, encoded, names, classes = _workload(backend)
    pairs = [(names[1], names[2]), (names[0], names[1])]
    expected = resolved.oc_optimal_removal_count_batch(
        classes,
        [
            (encoded.native_ranks(a), encoded.native_ranks(b))
            for a, b in pairs
        ],
        None,
    )
    with ShardedValidationPool(2, backend=resolved) as pool:
        _force_dispatch(pool)
        plane = pool.new_plane(encoded)
        pending = plane.submit(classes, pairs, None)
        plane.abandon(pending)
        plane.abandon(pending)  # idempotent
        assert plane.harvest(plane.submit(classes, pairs, None)) == expected


@pytest.mark.parametrize("backend", BACKENDS)
def test_abandon_races_dying_worker(backend):
    """``abandon`` against a worker that just died: the settled jobs must
    stay settled when supervision discovers the corpse (no requeue of
    abandoned work), and the respawned pool must still produce
    byte-identical counts."""
    resolved, encoded, names, classes = _workload(backend)
    pairs = [(names[1], names[2]), (names[0], names[1])]
    expected = resolved.oc_optimal_removal_count_batch(
        classes,
        [
            (encoded.native_ranks(a), encoded.native_ranks(b))
            for a, b in pairs
        ],
        None,
    )
    with ShardedValidationPool(2, backend=resolved) as pool:
        _force_dispatch(pool)
        plane = pool.new_plane(encoded)
        pending = plane.submit(classes, pairs, None)
        victim = pool._workers[0]
        victim.process.terminate()
        victim.process.join(5.0)
        # Settle in-flight bookkeeping against the corpse before the
        # supervisor has noticed the death.
        plane.abandon(pending)
        # The next dispatch sweeps the death and respawns; the abandoned
        # shards must not be resurrected.
        assert plane.harvest(plane.submit(classes, pairs, None)) == expected
        assert pool.stats["worker_deaths"] == 1
        assert pool.stats["respawns"] == 1
        assert pool.stats["requeued_shards"] == 0


@pytest.mark.parametrize("as_arrays", [False, True])
def test_class_shard_round_trip(as_arrays):
    if as_arrays:
        pytest.importorskip("numpy")
    import pickle

    classes = [[0, 3, 5], [1, 2], [7, 8, 9, 11]]
    shard = pickle.loads(pickle.dumps(ClassShard.pack(classes, as_arrays)))
    assert len(shard) == 3
    assert [list(rows) for rows in shard] == classes
    if as_arrays:
        rows, class_ids, lengths = shard.columnar_view()
        assert rows.tolist() == [0, 3, 5, 1, 2, 7, 8, 9, 11]
        assert class_ids.tolist() == [0, 0, 0, 1, 1, 2, 2, 2, 2]
        assert lengths.tolist() == [3, 2, 4]


def test_concurrent_threads_share_one_pool():
    """`repro serve` drives one pool from per-dataset handler threads:
    concurrent submits/harvests on distinct planes must never cross
    results or corrupt the per-worker column bookkeeping."""
    import threading

    resolved, encoded, names, classes = _workload("python")
    pairs = [(names[1], names[2]), (names[2], names[1])]
    expected = resolved.oc_optimal_removal_count_batch(
        classes,
        [
            (encoded.native_ranks(a), encoded.native_ranks(b))
            for a, b in pairs
        ],
        None,
    )
    failures = []
    with ShardedValidationPool(2, backend=resolved) as pool:
        _force_dispatch(pool)

        def hammer():
            plane = pool.new_plane(encoded)
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
    assert not failures


def test_harvest_error_settles_worker_load():
    """A failing shard must not leave load accounting inflated: later
    dispatch decisions (and abandons) depend on it returning to zero."""
    resolved, encoded, names, classes = _workload("python")
    with ShardedValidationPool(2, backend=resolved) as pool:
        _force_dispatch(pool)
        with pytest.raises(RuntimeError, match="validation worker failed"):
            stub_plane_counts(
                pool, {"bad": [0, "bad"], "b": [0, 1]}, [[0, 1]],
                [("bad", "b")],
            )
        assert all(worker.load == 0 for worker in pool._workers)
        plane = pool.new_plane(encoded)
        plane.harvest(plane.submit(classes, [(names[1], names[2])], None))
        assert all(worker.load == 0 for worker in pool._workers)


def test_worker_error_surfaces_as_runtime_error():
    """A kernel crash in a worker reaches the coordinator as a RuntimeError
    carrying the worker traceback, and the pool remains usable."""
    columns = {"bad": [0, "bad"], "a": [0, 1], "b": [1, 0]}
    with ShardedValidationPool(1, backend="python",
                               inline_group_cost=0) as pool:
        with pytest.raises(RuntimeError, match="validation worker failed"):
            # The column covers the class rows, so the stale-column guard
            # passes it; the worker's kernel then fails comparing a rank
            # with a string.
            stub_plane_counts(pool, columns, [[0, 1]], [("bad", "b")])
        assert stub_plane_counts(pool, columns, [[0, 1]], [("a", "b")]) \
            == [(1, False)]
