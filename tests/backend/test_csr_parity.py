"""CSR partition layout: invariants and cross-backend parity.

The flat ``(row_indices, class_offsets)`` layout must be observationally
identical to the legacy list-of-lists on every construction path —
``single``, ``from_row_keys``, ``unit``, refinement and products — on both
backends, and plane threads must count straight off it.
"""

import pytest

from repro.backend import available_backends, get_backend
from repro.dataset.generators import generate_flight_like
from repro.dataset.partition import (
    Partition,
    PartitionCache,
    build_partition_from_row_keys,
    build_partition_single,
)

BACKENDS = available_backends()


def _plain(sequence):
    return sequence.tolist() if hasattr(sequence, "tolist") else list(sequence)


def _check_invariants(partition):
    """The layout contract every constructor must uphold."""
    rows = _plain(partition.row_indices)
    offsets = _plain(partition.class_offsets)
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


@pytest.mark.parametrize("backend", BACKENDS)
def test_single_column_construction_matches_reference(backend):
    relation = _workload()
    resolved = get_backend(backend)
    encoded = relation.encoded(resolved)
    for index in range(relation.num_attributes):
        built = resolved.partition_single(
            encoded.native_ranks_by_index(index), relation.num_rows
        )
        reference = build_partition_single(
            encoded.ranks_by_index(index), relation.num_rows
        )
        _check_invariants(built)
        assert built == reference
        assert built.classes == reference.classes


@pytest.mark.parametrize("backend", BACKENDS)
def test_from_row_keys_matches_reference(backend):
    relation = _workload()
    resolved = get_backend(backend)
    encoded = relation.encoded(resolved)
    names = relation.attribute_names
    keys = [
        tuple(encoded.ranks(name)[row] for name in names[:3])
        for row in range(relation.num_rows)
    ]
    built = resolved.partition_from_row_keys(keys, relation.num_rows)
    reference = build_partition_from_row_keys(keys, relation.num_rows)
    _check_invariants(built)
    assert built == reference


@pytest.mark.parametrize("backend", BACKENDS)
def test_unit_partition_layout(backend):
    resolved = get_backend(backend)
    unit = resolved.partition_unit(7)
    _check_invariants(unit)
    assert unit.classes == [list(range(7))]
    assert resolved.partition_unit(1).num_classes == 0
    assert resolved.partition_unit(0).num_classes == 0


@pytest.mark.parametrize("backend", BACKENDS)
def test_cache_products_match_across_backends(backend):
    """Every cached context over the lattice's first levels is identical —
    offsets, rows and legacy class lists — to the reference backend's."""
    relation = _workload()
    resolved = get_backend(backend)
    reference = get_backend("python")
    cache = PartitionCache(relation.encoded(resolved), backend=resolved)
    ref_cache = PartitionCache(relation.encoded(reference), backend=reference)
    from itertools import combinations

    keys = [frozenset()]
    for size in (1, 2, 3):
        keys.extend(
            frozenset(c)
            for c in combinations(range(relation.num_attributes), size)
        )
    for key in keys:
        built = cache.get(key)
        expected = ref_cache.get(key)
        _check_invariants(built)
        assert built == expected, sorted(key)
        assert _plain(built.class_offsets) == _plain(expected.class_offsets)
        assert _plain(built.row_indices) == _plain(expected.row_indices)
        assert built.classes == expected.classes


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
    product = resolved.partition_product(left, right)
    _check_invariants(product)
    assert product == resolved.partition_refine(
        left, encoded.native_ranks_by_index(1)
    )
    # Reference probe-table algorithm on the same inputs.
    assert product == left.product_partition(right)


def test_legacy_list_constructor_normalises():
    partition = Partition([[5, 3], [9], [1, 0, 2]], 10)
    _check_invariants(partition)
    assert partition.classes == [[0, 1, 2], [3, 5]]
    assert partition.num_grouped_rows == 5
    assert partition.num_singleton_rows == 5


def test_from_csr_is_adopted_verbatim():
    partition = Partition.from_csr([0, 1, 4, 6], [0, 2, 4], 8)
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
