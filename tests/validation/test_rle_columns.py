"""Clustered rank columns on the OC plane's threads.

A low-cardinality clustered rank column is a handful of value runs; the
plane's threads count such columns like any other, and a plane over an
``extend``-ed encoding reads the grown columns.
"""

import pytest

from repro.backend import get_backend
from repro.dataset.relation import Relation
from repro.validation.distributed import ColumnPlane, ShardedValidationPool

BACKENDS = ["python", "numpy"]


def _clustered_relation(num_rows=400):
    """Three columns: `g` clustered low-cardinality (five runs), `a`
    mildly dirty, `b` high-cardinality (one run per row)."""
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


def _runs(column):
    """``[(value, length), ...]``: the column's maximal value runs."""
    runs = []
    for value in column:
        if runs and runs[-1][0] == value:
            runs[-1][1] += 1
        else:
            runs.append([value, 1])
    return [tuple(run) for run in runs]


# -- clustered columns on the OC plane's threads -------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
def test_pool_results_identical_with_rle_transport(backend):
    """Plane threads count a column rebuilt from its value runs exactly
    like the encoded column, group after group."""
    relation = _clustered_relation()
    resolved = get_backend(backend)
    encoded = relation.encoded(resolved)
    assert len(_runs(encoded.ranks("g"))) == 5
    assert len(_runs(encoded.ranks("b"))) == relation.num_rows

    def round_tripped(name):
        dense = []
        for value, length in _runs(encoded.ranks(name)):
            dense.extend([value] * length)
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
