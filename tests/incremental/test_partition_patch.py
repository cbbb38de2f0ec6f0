"""Appends: ``PartitionCache.apply_delta`` vs fresh builds.

After a delta, every partition the cache rebuilds on read must equal the
partition a brand-new cache would build over the concatenated relation —
and the returned mapping must hold exactly the contexts whose stripped
classes changed, each with the classes the delta removed and added (that
is the memo-repair contract: an unaffected context's memoised removal
counts stay exact).
"""

from itertools import combinations

import pytest
from _partition_oracle import (
    assert_patch,
    classes_of,
    classes_over,
    group,
    refine,
)
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.backend import get_backend
from repro.dataset.encoding import EncodedRelation
from repro.dataset.partition import PartitionCache
from repro.dataset.relation import Relation
from repro.dataset.generators import generate_flight_like

BACKENDS = ["python", "numpy"]


def _all_context_keys(relation, max_size=3):
    indices = range(relation.num_attributes)
    keys = [frozenset()]
    for size in range(1, max_size + 1):
        keys.extend(frozenset(c) for c in combinations(indices, size))
    return keys


def _patched_vs_fresh(base, delta_columns, backend, max_size=3):
    encoded = base.encoded(backend)
    cache = PartitionCache(encoded, backend=backend)
    keys = _all_context_keys(base, max_size)
    before = {key: cache.get(key) for key in keys}
    extended, _ = encoded.extend(delta_columns)
    patches = cache.apply_delta(extended, base.num_rows)

    concatenated = base.concat(Relation(base.schema, delta_columns))
    fresh = PartitionCache(concatenated.encoded(backend), backend=backend)
    for key in keys:
        assert cache.get(key) == fresh.get(key), sorted(key)
        classes_changed = before[key].classes != fresh.get(key).classes
        assert (key in patches) == classes_changed, sorted(key)
        if key in patches:
            # The class patch reproduces exactly the symmetric difference.
            assert_patch(patches[key], before[key].classes,
                         fresh.get(key).classes, concatenated.num_rows)
    return set(patches)


@pytest.mark.parametrize("backend", BACKENDS)
def test_patch_matches_fresh_build_small(backend):
    base = Relation.from_columns({
        "a": [1, 1, 2, 2, 3],
        "b": ["x", "y", "x", "x", "z"],
        "c": [10, 10, 20, 30, 30],
    })
    # Row joining an existing class, row pairing with an old singleton, and
    # two rows forming a brand-new class among themselves.
    delta = {
        "a": [1, 3, 9, 9],
        "b": ["x", "z", "q", "q"],
        "c": [10, 30, 77, 77],
    }
    affected = _patched_vs_fresh(base, delta, backend)
    assert frozenset() in affected  # the unit context always gains rows


@pytest.mark.parametrize("backend", BACKENDS)
def test_unaffected_contexts_are_not_flagged(backend):
    base = Relation.from_columns({
        "a": [1, 1, 2, 2],
        "b": [5, 6, 5, 6],
    })
    # Delta rows unique on `a` (and on {a, b}): Pi_a's and Pi_ab's stripped
    # classes are untouched, Pi_b's gain rows.
    delta = {"a": [7, 8], "b": [5, 6]}
    affected = _patched_vs_fresh(base, delta, backend, max_size=2)
    names = base.schema.names
    assert frozenset([names.index("a")]) not in affected
    assert frozenset([names.index("a"), names.index("b")]) not in affected
    assert frozenset([names.index("b")]) in affected


@pytest.mark.parametrize("backend", BACKENDS)
def test_patch_matches_fresh_build_generated(backend):
    workload = generate_flight_like(160, num_attributes=6, error_rate=0.1, seed=5)
    donor = generate_flight_like(200, num_attributes=6, error_rate=0.1, seed=8)
    delta_rel = donor.relation.take(range(160, 200))
    delta = {n: delta_rel.column(n) for n in workload.relation.attribute_names}
    _patched_vs_fresh(workload.relation, delta, backend, max_size=3)


@pytest.mark.parametrize("backend", BACKENDS)
def test_missing_subset_is_rebuilt(backend):
    """An append drops every cached partition, so the first read of a deep
    key after it finds no cached subset and refines from one attribute;
    the key's patch came from the delta, not from its old partition."""
    base = Relation.from_columns({
        "a": [1, 1, 2], "b": [5, 5, 6], "c": [7, 8, 7],
    })
    encoded = base.encoded(backend)
    cache = PartitionCache(encoded, backend=backend)
    abc = frozenset([0, 1, 2])
    before = cache.get(abc)
    cache.evict_level(3)  # drop every smaller context: no subset is cached
    delta = {"a": [1], "b": [5], "c": [7]}
    extended, _ = encoded.extend(delta)
    patches = cache.apply_delta(extended, base.num_rows)
    assert set(cache.cached_keys()) == set()
    concatenated = base.concat(Relation(base.schema, delta))
    fresh = PartitionCache(concatenated.encoded(backend), backend=backend)
    assert cache.get(abc) == fresh.get(abc)
    assert cache.grouped_rows(abc) == fresh.get(abc).num_grouped_rows
    # Row 3 pairs with the old singleton row 0: one class appears.
    assert (before.classes, fresh.get(abc).classes) == ([], [[0, 3]])
    assert_patch(patches[abc], before.classes, fresh.get(abc).classes, 4)


@pytest.mark.parametrize("backend", BACKENDS)
def test_empty_delta_is_a_no_op(backend):
    base = Relation.from_columns({"a": [1, 1, 2]})
    encoded = base.encoded(backend)
    cache = PartitionCache(encoded, backend=backend)
    before = cache.get(frozenset([0]))
    extended, _ = encoded.extend({"a": []})
    assert cache.apply_delta(extended, base.num_rows) == {}
    assert cache.get(frozenset([0])) is before


def test_apply_delta_rejects_shrinking():
    base = Relation.from_columns({"a": [1, 2, 3]})
    encoded = base.encoded()
    cache = PartitionCache(encoded)
    with pytest.raises(ValueError, match="appends"):
        cache.apply_delta(encoded, 5)


def _class_sets(rows, key):
    """The stripped classes of ``key`` over ``rows``, grouped by hand."""
    return set(map(tuple, classes_over(rows, key)))


@st.composite
def _append_scenarios(draw):
    """A tiny low-cardinality table, a sequence of appends, the keys to
    cache and an optional LRU bound."""
    num_attributes = draw(st.integers(1, 3))
    row = st.tuples(*[st.integers(0, 2)] * num_attributes)
    base = draw(st.lists(row, min_size=1, max_size=8))
    deltas = []
    for _ in range(draw(st.integers(1, 3))):
        # Empty deltas, copies of base rows and rows repeated within the
        # delta all occur.
        chunk = draw(st.lists(
            st.one_of(st.sampled_from(base), row), max_size=4
        ))
        deltas.append(chunk * draw(st.integers(1, 2)))
    subsets = [
        frozenset(c)
        for size in range(num_attributes + 1)
        for c in combinations(range(num_attributes), size)
    ]
    keys = draw(st.lists(st.sampled_from(subsets), max_size=len(subsets)))
    max_entries = draw(st.one_of(st.none(), st.integers(1, 4)))
    return num_attributes, base, deltas, keys, max_entries


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(scenario=_append_scenarios())
def test_append_sequences_match_fresh_builds(backend, scenario):
    """After every append, the mapping holds exactly the counted keys
    whose classes changed, each with the exact symmetric difference of its
    classes; each key's grouped-row count and its partition, rebuilt on
    read, equal a fresh build's."""
    num_attributes, rows, deltas, keys, max_entries = scenario
    names = [f"a{i}" for i in range(num_attributes)]

    def relation_of(table):
        return Relation.from_columns({
            name: [row[i] for row in table] for i, name in enumerate(names)
        })

    encoded = relation_of(rows).encoded(backend)
    cache = PartitionCache(encoded, backend=backend, max_entries=max_entries)
    for key in keys:
        cache.get(key)
    for delta in deltas:
        counted = set(cache.counted_keys())
        assert set(cache.cached_keys()) <= counted
        extended, _ = encoded.extend({
            name: [row[i] for row in delta] for i, name in enumerate(names)
        })
        patches = cache.apply_delta(extended, len(rows))
        old_rows, rows, encoded = rows, rows + list(delta), extended
        if delta:
            # Dropped, not rebuilt: each read below rebuilds its key.
            assert not set(cache.cached_keys())
        fresh = PartitionCache(relation_of(rows).encoded(backend),
                               backend=backend)
        assert set(patches) <= counted
        for key in counted:
            old_set = _class_sets(old_rows, key)
            new_set = _class_sets(rows, key)
            assert (key in patches) == (old_set != new_set), sorted(key)
            if key in patches:
                assert_patch(patches[key], old_set, new_set, len(rows))
            assert cache.grouped_rows(key) == sum(map(len, new_set))
            assert cache.get(key) == fresh.get(key), sorted(key)


#: The grouped-row share m / n below which a level-1 partition is sparse.
SPARSE_SHARE = 0.075


@st.composite
def _scatter_scenarios(draw):
    """A table whose level-1 partitions group m of its n rows on both
    sides of ``SPARSE_SHARE`` — a sparse column, distinct but for one or
    two repeated values, below it and a dense low-cardinality column
    above it — plus a few appends of copied or fresh rows."""
    n = draw(st.integers(28, 60))
    # 2 * pairs rows grouped: below SPARSE_SHARE * n for every n >= 28.
    pairs = draw(st.integers(1, max(1, int((SPARSE_SHARE * n - 1e-9) // 2))))
    sparse = list(range(n))
    for i in range(pairs):
        sparse[2 * i + 1] = sparse[2 * i]
    columns = [draw(st.permutations(sparse))]
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            cell = st.one_of(st.none(), st.integers(0, 2))
            columns.append(draw(st.lists(cell, min_size=n, max_size=n)))
        else:
            columns.append(draw(st.permutations(sparse)))
    columns.append(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
    rows = list(zip(*columns))
    fresh = st.tuples(*(
        [st.integers(0, n + 5)] + [st.one_of(st.none(), st.integers(0, 2))]
        * (len(columns) - 1)
    ))
    deltas = draw(st.lists(
        st.lists(st.one_of(st.sampled_from(rows), fresh), max_size=6),
        min_size=1, max_size=3,
    ))
    return rows, deltas


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(scenario=_scatter_scenarios())
def test_cache_builds_refines_and_appends_match_the_oracle(backend, scenario):
    """Level-1 builds, refinements of sparse and dense parents (offered
    the row order, the native refine in the numpy configuration when the
    kernels loaded; offered none, the lexsort; the python configuration
    takes the lexsort either way) and every cached key after each append
    hold the classes the hand-grouping oracle finds."""
    rows, deltas = scenario
    resolved = get_backend(backend)
    names = [f"a{i}" for i in range(len(rows[0]))]

    def relation_of(table):
        return Relation.from_columns({
            name: [row[i] for row in table] for i, name in enumerate(names)
        })

    encoded = relation_of(rows).encoded(resolved)
    cache = PartitionCache(encoded, backend=resolved)
    columns = list(zip(*rows))
    sparse_parents = set()
    for i, column in enumerate(columns):
        parent = cache.get([i])
        assert classes_of(parent) == group(column)
        sparse_parents.add(parent.num_grouped_rows < SPARSE_SHARE * len(rows))
        for j, refiner in enumerate(columns):
            for row_order in (lambda j=j: encoded.row_order_by_index(j), None):
                refined = resolved.partition_refine(
                    parent, encoded.native_ranks_by_index(j), row_order
                )
                assert classes_of(refined) == refine(group(column), refiner)
    assert sparse_parents == {True, False}
    keys = [frozenset(c) for size in range(len(names) + 1)
            for c in combinations(range(len(names)), size)]
    for key in keys:
        assert classes_of(cache.get(key)) == classes_over(rows, key)
    for delta in deltas:
        extended, _ = encoded.extend({
            name: [row[i] for row in delta] for i, name in enumerate(names)
        })
        patches = cache.apply_delta(extended, len(rows))
        old_rows, rows, encoded = rows, rows + list(delta), extended
        for key in keys:
            assert classes_of(cache.get(key)) == classes_over(rows, key)
            old_set, new_set = _class_sets(old_rows, key), _class_sets(rows, key)
            assert (key in patches) == (old_set != new_set), sorted(key)
            if key in patches:
                assert_patch(patches[key], old_set, new_set, len(rows))
