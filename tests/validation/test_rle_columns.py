"""Run-length column transport: encoding, shipping and the stale guard.

Low-cardinality clustered rank columns ship to workers run-encoded
(:class:`repro.dataset.encoding.RunLengthColumn`) and are materialised
dense on receipt, so results are byte-identical to dense shipping; the
pool's stale-column guard must treat a run-encoded column exactly like a
dense one (its length is the decoded row count).
"""

import pytest

from repro.backend import available_backends, get_backend
from repro.dataset.encoding import (
    RLE_MIN_ROWS,
    RunLengthColumn,
    run_length_encode,
)
from repro.dataset.relation import Relation
from repro.validation.distributed import (
    ShardedValidationPool,
    _materialize_column,
)

BACKENDS = available_backends()


def _force_dispatch(pool):
    pool.INLINE_GROUP_COST = 0
    pool.MIN_SHARD_COST = 1
    return pool


def _clustered_relation(num_rows=400):
    """Three columns: `g` clustered low-cardinality (RLE-eligible), `a`
    mildly dirty, `b` high-cardinality (ships dense)."""
    return Relation.from_columns({
        "g": [row // 80 for row in range(num_rows)],
        "a": [(row * 7) % 5 for row in range(num_rows)],
        "b": [(row * 131) % num_rows for row in range(num_rows)],
    })


# -- RunLengthColumn / run_length_encode ---------------------------------------


def test_round_trip_list():
    column = [0] * 100 + [1] * 200 + [0] * 100
    encoded = run_length_encode(column)
    assert isinstance(encoded, RunLengthColumn)
    assert encoded.num_runs == 3
    assert len(encoded) == 400
    assert encoded.decode() == column


def test_round_trip_ndarray():
    np = pytest.importorskip("numpy")
    column = np.repeat(np.arange(5, dtype=np.int32), 80)
    encoded = run_length_encode(column)
    assert isinstance(encoded, RunLengthColumn)
    assert encoded.num_runs == 5
    assert len(encoded) == 400
    assert encoded.decode().tolist() == column.tolist()


def test_value_at_binary_search():
    column = [3] * 300 + [7] * 100
    encoded = run_length_encode(column)
    for row in (0, 299, 300, 399):
        assert encoded.value_at(row) == column[row]
    with pytest.raises(IndexError):
        encoded.value_at(400)
    with pytest.raises(IndexError):
        encoded.value_at(-1)


def test_short_or_fragmented_columns_stay_dense():
    assert run_length_encode([0, 0, 1, 1]) is None  # below RLE_MIN_ROWS
    fragmented = [row % 2 for row in range(RLE_MIN_ROWS)]
    assert run_length_encode(fragmented) is None  # one run per 1-2 rows


def test_materialize_is_identity_for_dense_columns():
    dense = [1, 2, 3]
    assert _materialize_column(dense) is dense
    encoded = run_length_encode([4] * 300)
    assert _materialize_column(encoded) == [4] * 300


def test_run_length_column_pickles():
    import pickle

    encoded = run_length_encode([2] * 200 + [9] * 200)
    clone = pickle.loads(pickle.dumps(encoded))
    assert clone.decode() == encoded.decode()
    assert len(clone) == len(encoded)


# -- EncodedRelation transport cache -------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
def test_transport_ranks_cached_and_rle_for_clustered(backend):
    relation = _clustered_relation()
    encoded = relation.encoded(get_backend(backend))
    transported = encoded.transport_ranks("g")
    assert isinstance(transported, RunLengthColumn)
    assert len(transported) == relation.num_rows
    assert encoded.transport_ranks("g") is transported  # cached per relation
    dense = encoded.transport_ranks("b")
    assert not isinstance(dense, RunLengthColumn)


# -- pool shipping --------------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
def test_pool_results_identical_with_rle_transport(backend):
    relation = _clustered_relation()
    resolved = get_backend(backend)
    encoded = relation.encoded(resolved)
    classes = [[i, i + 1] for i in range(0, relation.num_rows - 2, 2)]
    pairs = [("g", "a"), ("a", "g"), ("b", "a")]
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
        assert plane.harvest(plane.submit(classes, pairs, None)) == expected
        assert pool.stats["columns_rle"] > 0  # `g` shipped run-encoded
        # Resident reuse: identical results, nothing re-shipped.
        shipped = pool.stats["columns_shipped"]
        assert plane.harvest(plane.submit(classes, pairs, None)) == expected
        assert pool.stats["columns_shipped"] == shipped


def test_stale_rle_column_is_refused():
    """Satellite bugfix: a run-encoded column whose *decoded* length is
    shorter than the rows a shard indexes must be refused like a short
    dense column."""
    stale = run_length_encode([1] * 300)  # covers rows 0..299 only
    with pytest.raises(RuntimeError, match="stale rank column"):
        ShardedValidationPool._assert_column_covers(stale, 350, "g")
    # Covering rows pass.
    ShardedValidationPool._assert_column_covers(stale, 299, "g")


@pytest.mark.parametrize("backend", BACKENDS)
def test_pool_reuse_after_extend_reships_fresh_columns(backend):
    """Regression: after ``extend`` the plane must refuse classes indexing
    appended rows until rebound, then re-ship from the fresh encoding and
    stay byte-identical to a cold validation."""
    relation = _clustered_relation()
    resolved = get_backend(backend)
    encoded = relation.encoded(resolved)
    num_rows = relation.num_rows
    classes = [[i, i + 1] for i in range(0, num_rows - 2, 2)]
    pairs = [("g", "a")]
    with ShardedValidationPool(2, backend=resolved) as pool:
        _force_dispatch(pool)
        plane = pool.new_plane(encoded)
        plane.harvest(plane.submit(classes, pairs, None))
        delta = {"g": [4] * 8, "a": [2] * 8, "b": [0] * 8}
        extended, modes = encoded.extend(delta)
        grown = classes + [[num_rows, num_rows + 1]]
        # Still bound to the old encoding: its columns (run-encoded `g`
        # included) cannot cover the appended rows.
        with pytest.raises(RuntimeError, match="stale rank column"):
            plane.harvest(plane.submit(grown, pairs, None))
        plane.apply_delta(extended, modes, num_rows)
        expected = resolved.oc_optimal_removal_count_batch(
            grown,
            [(extended.native_ranks("g"), extended.native_ranks("a"))],
            None,
        )
        assert plane.harvest(plane.submit(grown, pairs, None)) == expected
