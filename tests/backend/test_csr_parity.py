"""CSR partition layout: invariants and parity with the hand-grouping oracle.

The flat ``(row_indices, class_offsets)`` layout must hold the classes the
oracle groups by hand on every construction path — single columns,
multi-attribute keys, ``unit``, refinement and products — in both backend
configurations, and plane threads must count straight off it.
"""

import numpy
import pytest
from _partition_oracle import classes_of, group, product

from repro.backend import get_backend
from repro.dataset.generators import generate_flight_like
from repro.dataset.partition import Partition, PartitionCache
from repro.dataset.relation import Relation

BACKENDS = ["python", "numpy"]


def _check_invariants(partition):
    """The layout contract every constructor must uphold."""
    assert partition.row_indices.dtype == numpy.int64
    assert partition.class_offsets.dtype == numpy.int64
    rows = partition.row_indices.tolist()
    offsets = partition.class_offsets.tolist()
    assert offsets[0] == 0
    assert offsets[-1] == len(rows)
    assert offsets == sorted(offsets)
    firsts = []
    for i in range(len(offsets) - 1):
        segment = rows[offsets[i]:offsets[i + 1]]
        assert len(segment) >= 2  # stripped: no singletons
        assert segment == sorted(segment)  # ascending within a class
        firsts.append(segment[0])
    assert firsts == sorted(firsts)  # classes ordered by first row
    assert len(set(firsts)) == len(firsts)  # disjoint classes → unique firsts
    assert partition.num_classes == len(offsets) - 1
    assert partition.num_grouped_rows == len(rows)  # O(1) satellite contract


def _workload():
    relation = generate_flight_like(
        240, num_attributes=5, error_rate=0.15, seed=17
    ).relation
    return relation


def _rows(relation):
    """The relation's raw cell values as row tuples."""
    return list(zip(*(relation.column(name) for name in relation.attribute_names)))


@pytest.mark.parametrize("backend", BACKENDS)
def test_single_column_construction_matches_reference(backend):
    relation = _workload()
    resolved = get_backend(backend)
    encoded = relation.encoded(resolved)
    for index, name in enumerate(relation.attribute_names):
        built = resolved.partition_single(
            encoded.native_ranks_by_index(index), relation.num_rows
        )
        _check_invariants(built)
        assert classes_of(built) == group(relation.column(name))
        assert built.classes == classes_of(built)


@pytest.mark.parametrize("backend", BACKENDS)
def test_from_row_keys_matches_reference(backend):
    """A multi-attribute context holds the rows grouped by their key
    tuples."""
    relation = _workload()
    resolved = get_backend(backend)
    built = PartitionCache(relation.encoded(resolved), backend=resolved).get(
        frozenset(range(3))
    )
    _check_invariants(built)
    assert classes_of(built) == group(row[:3] for row in _rows(relation))


@pytest.mark.parametrize("backend", BACKENDS)
def test_unit_partition_layout(backend):
    """The empty context is the unit partition: one class of every row,
    none over fewer than two rows."""
    resolved = get_backend(backend)
    for num_rows, classes in ((7, [list(range(7))]), (1, []), (0, [])):
        relation = Relation.from_columns({"a": list(range(num_rows))})
        unit = PartitionCache(relation.encoded(resolved), backend=resolved).get(
            frozenset()
        )
        _check_invariants(unit)
        assert unit.classes == classes
        assert unit == Partition.unit(num_rows)


@pytest.mark.parametrize("backend", BACKENDS)
def test_cache_products_match_across_backends(backend):
    """Every cached context over the lattice's first levels holds the
    oracle's classes, and is array for array the other configuration's."""
    relation = _workload()
    resolved = get_backend(backend)
    other = get_backend("numpy" if backend == "python" else "python")
    cache = PartitionCache(relation.encoded(resolved), backend=resolved)
    other_cache = PartitionCache(relation.encoded(other), backend=other)
    from itertools import combinations

    rows = _rows(relation)
    keys = [frozenset()]
    for size in (1, 2, 3):
        keys.extend(
            frozenset(c)
            for c in combinations(range(relation.num_attributes), size)
        )
    for key in keys:
        built = cache.get(key)
        _check_invariants(built)
        assert classes_of(built) == group(
            tuple(row[i] for i in sorted(key)) for row in rows
        ), sorted(key)
        assert built == other_cache.get(key), sorted(key)


@pytest.mark.parametrize("backend", BACKENDS)
def test_product_partition_matches_product(backend):
    relation = _workload()
    resolved = get_backend(backend)
    encoded = relation.encoded(resolved)
    left = resolved.partition_single(
        encoded.native_ranks_by_index(0), relation.num_rows
    )
    right = resolved.partition_single(
        encoded.native_ranks_by_index(1), relation.num_rows
    )
    result = resolved.partition_product(left, right)
    _check_invariants(result)
    assert result == resolved.partition_refine(
        left, encoded.native_ranks_by_index(1)
    )
    # The oracle's probe-table product on the same inputs.
    assert classes_of(result) == product(classes_of(left), classes_of(right))


def test_legacy_list_constructor_normalises():
    partition = Partition([[5, 3], [9], [1, 0, 2]], 10)
    _check_invariants(partition)
    assert partition.classes == [[0, 1, 2], [3, 5]]
    assert partition.num_grouped_rows == 5
    assert partition.num_singleton_rows == 5


def test_from_csr_is_adopted_verbatim():
    rows = numpy.array([0, 1, 4, 6], dtype=numpy.int64)
    offsets = numpy.array([0, 2, 4], dtype=numpy.int64)
    adopted = Partition.from_csr(rows, offsets, 8)
    assert adopted.row_indices is rows and adopted.class_offsets is offsets
    partition = Partition.from_csr([0, 1, 4, 6], [0, 2, 4], 8)
    _check_invariants(partition)
    assert partition == adopted
    assert partition.num_classes == 2
    assert partition.classes == [[0, 1], [4, 6]]
    assert partition == Partition([[0, 1], [4, 6]], 8)


def test_plane_threads_count_csr_partitions_like_the_reference():
    """Plane threads count OC pairs straight off a context partition's CSR
    arrays; 1, 2 and 4 threads must give the python reference's counts on
    every backend."""
    for backend in BACKENDS:
        _check_plane_counts(get_backend(backend))


def _check_plane_counts(resolved):
    from repro.validation.distributed import ColumnPlane, ShardedValidationPool

    relation = _workload()
    encoded = relation.encoded(resolved)
    cache = PartitionCache(encoded, backend=resolved)
    partition = cache.get(frozenset([0]))
    names = relation.attribute_names[1:]
    pairs = [(a, b) for a in names for b in names if a < b]

    def prepare(classes, pair_names, limit):
        rank_pairs = [(encoded.native_ranks(a), encoded.native_ranks(b))
                      for a, b in pair_names]
        return lambda: resolved.oc_optimal_removal_count_batch(
            classes, rank_pairs, limit
        )

    python = get_backend("python")
    python_encoded = relation.encoded(python)
    reference = python.oc_optimal_removal_count_batch(
        partition.classes,
        [(python_encoded.ranks(a), python_encoded.ranks(b)) for a, b in pairs],
        None,
    )
    for threads in (1, 2, 4):
        pool = ShardedValidationPool(threads)
        try:
            plane = ColumnPlane(prepare, pool)
            pending = [plane.submit(partition, [pair]) for pair in pairs]
            counts = [plane.harvest(p)[0] for p in pending]
        finally:
            pool.close()
        assert counts == reference, threads
        assert pool.stats == {"groups": len(pairs), "jobs": len(pairs)}


@pytest.mark.parametrize("backend", BACKENDS)
def test_empty_and_degenerate_partitions(backend):
    resolved = get_backend(backend)
    empty = resolved.partition_single(resolved.to_native([]), 0)
    assert empty.num_classes == 0 and empty.num_grouped_rows == 0
    all_distinct = resolved.partition_single(
        resolved.to_native([3, 1, 2, 0]), 4
    )
    assert all_distinct.num_classes == 0
    refined = resolved.partition_refine(
        all_distinct, resolved.to_native([0, 0, 0, 0])
    )
    assert refined.num_classes == 0
