"""Append repair on the CSR layout: multi-append sequences stay exact.

``test_partition_patch`` pins single-append parity; these tests drive
``apply_delta`` through *sequences* of appends — mixed class shapes, both
backends — asserting after every step that each cached partition is
byte-identical (offsets and rows, not just class lists) to a cold build
over the concatenated relation.
"""

from itertools import combinations

import pytest
from _partition_oracle import assert_patch

from repro.backend import get_backend
from repro.dataset.encoding import EncodedRelation
from repro.dataset.generators import generate_flight_like
from repro.dataset.partition import PartitionCache
from repro.dataset.relation import Relation

BACKENDS = ["python", "numpy"]


def _plain(sequence):
    return sequence.tolist() if hasattr(sequence, "tolist") else list(sequence)


def _context_keys(num_attributes, max_size=3):
    keys = [frozenset()]
    for size in range(1, max_size + 1):
        keys.extend(
            frozenset(c) for c in combinations(range(num_attributes), size)
        )
    return keys


@pytest.mark.parametrize("backend", BACKENDS)
def test_multi_append_sequence_matches_cold_build(backend):
    resolved = get_backend(backend)
    workload = generate_flight_like(
        120, num_attributes=5, error_rate=0.12, seed=29
    )
    donor = generate_flight_like(
        260, num_attributes=5, error_rate=0.12, seed=31
    )
    relation = workload.relation
    names = relation.attribute_names
    encoded = relation.encoded(resolved)
    cache = PartitionCache(encoded, backend=resolved)
    keys = _context_keys(relation.num_attributes)
    for key in keys:
        cache.get(key)
    cursor = 120
    for step, chunk in enumerate((7, 1, 40, 13)):
        delta_rel = donor.relation.take(range(cursor, cursor + chunk))
        delta = {name: delta_rel.column(name) for name in names}
        old_num_rows = relation.num_rows
        relation = relation.concat(Relation(relation.schema, delta))
        extended, _ = encoded.extend(delta)
        cache.apply_delta(extended, old_num_rows)
        encoded = extended
        cursor += chunk
        fresh = PartitionCache(relation.encoded(resolved), backend=resolved)
        for key in keys:
            patched = cache.get(key)
            expected = fresh.get(key)
            assert patched == expected, (step, sorted(key))
            assert _plain(patched.class_offsets) == \
                _plain(expected.class_offsets), (step, sorted(key))
            assert _plain(patched.row_indices) == \
                _plain(expected.row_indices), (step, sorted(key))


@pytest.mark.parametrize("backend", BACKENDS)
def test_patch_after_partial_eviction_stays_exact(backend):
    """Eviction leaves a mixed cache (unit + the surviving big contexts),
    and the append drops it; every key read afterwards, deepest first so
    that no read finds a cached subset, is rebuilt exactly."""
    resolved = get_backend(backend)
    workload = generate_flight_like(
        100, num_attributes=4, error_rate=0.15, seed=41
    )
    donor = generate_flight_like(
        140, num_attributes=4, error_rate=0.15, seed=43
    )
    relation = workload.relation
    names = relation.attribute_names
    encoded = relation.encoded(resolved)
    cache = PartitionCache(encoded, backend=resolved)
    keys = _context_keys(relation.num_attributes, max_size=3)
    for key in keys:
        cache.get(key)
    cache.evict_level(2)  # drop the singletons; unit survives by design
    delta_rel = donor.relation.take(range(100, 140))
    delta = {name: delta_rel.column(name) for name in names}
    extended, _ = encoded.extend(delta)
    cache.apply_delta(extended, relation.num_rows)
    assert set(cache.cached_keys()) == set()
    concatenated = relation.concat(Relation(relation.schema, delta))
    fresh = PartitionCache(concatenated.encoded(resolved), backend=resolved)
    for key in sorted(keys, key=len, reverse=True):
        assert cache.get(key) == fresh.get(key), sorted(key)


@pytest.mark.parametrize("backend", BACKENDS)
def test_class_patches_reproduce_symmetric_difference(backend):
    resolved = get_backend(backend)
    base = Relation.from_columns({
        "a": [1, 1, 2, 2, 3, 3, 4],
        "b": [0, 0, 1, 2, 1, 1, 5],
    })
    encoded = base.encoded(resolved)
    cache = PartitionCache(encoded, backend=resolved)
    keys = _context_keys(2, max_size=2)
    before = {key: cache.get(key) for key in keys}
    delta = {"a": [1, 4, 9], "b": [0, 5, 9]}
    extended, _ = encoded.extend(delta)
    patches = cache.apply_delta(extended, base.num_rows)
    concatenated = base.concat(Relation(base.schema, delta))
    fresh = PartitionCache(concatenated.encoded(resolved), backend=resolved)
    for key in keys:
        old_set = {tuple(c) for c in before[key].classes}
        new_set = {tuple(c) for c in fresh.get(key).classes}
        if key in patches:
            assert_patch(patches[key], old_set, new_set,
                         concatenated.num_rows)
        else:
            assert old_set == new_set
