"""Run-length rank columns: encoding, decoding and random access.

A low-cardinality clustered rank column can be stored as value runs
(:class:`repro.dataset.encoding.RunLengthColumn`); decoding must give the
dense column back exactly, and ``len`` is the decoded row count.  The OC
plane's threads count such clustered columns like any other.
"""

import pytest

from repro.backend import available_backends, get_backend
from repro.dataset.encoding import (
    RLE_MIN_ROWS,
    RunLengthColumn,
    run_length_encode,
)
from repro.dataset.relation import Relation
from repro.validation.distributed import ColumnPlane, ShardedValidationPool

BACKENDS = available_backends()


def _clustered_relation(num_rows=400):
    """Three columns: `g` clustered low-cardinality (run-length eligible),
    `a` mildly dirty, `b` high-cardinality (stays dense)."""
    return Relation.from_columns({
        "g": [row // 80 for row in range(num_rows)],
        "a": [(row * 7) % 5 for row in range(num_rows)],
        "b": [(row * 131) % num_rows for row in range(num_rows)],
    })


def _prepare(resolved, columns):
    """A plane ``prepare`` over ``columns(name)``'s rank columns."""
    def prepare(classes, pair_names, limit):
        pairs = [(columns(a), columns(b)) for a, b in pair_names]
        return lambda: resolved.oc_optimal_removal_count_batch(
            classes, pairs, limit
        )
    return prepare


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


def test_run_length_column_pickles():
    import pickle

    encoded = run_length_encode([2] * 200 + [9] * 200)
    clone = pickle.loads(pickle.dumps(encoded))
    assert clone.decode() == encoded.decode()
    assert len(clone) == len(encoded)


# -- clustered columns on the OC plane's threads -------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
def test_pool_results_identical_with_rle_transport(backend):
    """Plane threads count a clustered column's run-length round trip
    exactly like the dense column, group after group."""
    relation = _clustered_relation()
    resolved = get_backend(backend)
    encoded = relation.encoded(resolved)
    assert run_length_encode(encoded.ranks("g")) is not None
    assert run_length_encode(encoded.ranks("b")) is None

    def round_tripped(name):
        runs = run_length_encode(encoded.ranks(name))
        dense = encoded.ranks(name) if runs is None else runs.decode()
        return resolved.to_native(dense)

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
    with ShardedValidationPool(2) as pool:
        dense = ColumnPlane(_prepare(resolved, encoded.native_ranks), pool)
        runs = ColumnPlane(_prepare(resolved, round_tripped), pool)
        for _ in range(2):
            assert dense.harvest(dense.submit(classes, pairs, None)) == expected
            assert runs.harvest(runs.submit(classes, pairs, None)) == expected
        assert pool.stats == {"groups": 4, "jobs": 12}


@pytest.mark.parametrize("backend", BACKENDS)
def test_pool_reuse_after_extend_reships_fresh_columns(backend):
    """Regression: one pool serves a plane over the base encoding and then
    one over its ``extend``-ed successor; the latter reads the fresh
    columns and is byte-identical to a cold count, the former stays on the
    base rows."""
    relation = _clustered_relation()
    resolved = get_backend(backend)
    encoded = relation.encoded(resolved)
    num_rows = relation.num_rows
    classes = [[i, i + 1] for i in range(0, num_rows - 2, 2)]
    pairs = [("g", "a")]

    def cold(encoding, classes):
        return resolved.oc_optimal_removal_count_batch(
            classes,
            [(encoding.native_ranks("g"), encoding.native_ranks("a"))],
            None,
        )

    with ShardedValidationPool(2) as pool:
        plane = ColumnPlane(_prepare(resolved, encoded.native_ranks), pool)
        base_counts = plane.harvest(plane.submit(classes, pairs, None))
        assert base_counts == cold(encoded, classes)
        delta = {"g": [4] * 8, "a": [2] * 8, "b": [0] * 8}
        extended, _ = encoded.extend(delta)
        grown = classes + [[num_rows, num_rows + 1]]
        fresh = ColumnPlane(_prepare(resolved, extended.native_ranks), pool)
        assert fresh.harvest(fresh.submit(grown, pairs, None)) \
            == cold(extended, grown)
        assert plane.harvest(plane.submit(classes, pairs, None)) == base_counts
        assert len(encoded.native_ranks("g")) == num_rows
        assert len(extended.native_ranks("g")) == num_rows + 8
