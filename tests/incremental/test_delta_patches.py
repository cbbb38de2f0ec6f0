"""Class patches found from the appended rows, against the hand-grouping
oracle of ``tests/_partition_oracle.py`` (which shares no code with
``src/``).

``PartitionCache.apply_delta`` never compares partitions: it finds each
context's patch from the rows that share their values with an appended
row.  Every patch must hold exactly the symmetric difference of the
oracle's stripped classes before and after the append (only their sizes
for an oversized patch), every context whose classes did not change must
be absent, and every grouped-row count must follow.
"""

from itertools import combinations

import pytest
from _partition_oracle import assert_patch, classes_over
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.dataset.partition import PartitionCache
from repro.dataset.relation import Relation

BACKENDS = ["python", "numpy"]


def _relation(names, rows):
    return Relation.from_columns({
        name: [row[i] for row in rows] for i, name in enumerate(names)
    })


def _append_and_check(backend, names, rows, deltas, keys=None):
    """Append ``deltas`` one by one to a cache that counted ``keys`` (all
    attribute sets by default), checking every patch and count against
    the oracle; returns the patches of each append."""
    if keys is None:
        keys = [frozenset(c) for size in range(len(names) + 1)
                for c in combinations(range(len(names)), size)]
    encoded = _relation(names, rows).encoded(backend)
    cache = PartitionCache(encoded, backend=backend)
    for key in keys:
        cache.get(key)
    # Building a key counts the subsets it refines from too.
    keys = set(cache.counted_keys())
    every = []
    for delta in deltas:
        extended, modes = encoded.extend({
            name: [row[i] for row in delta] for i, name in enumerate(names)
        })
        patches = cache.apply_delta(extended, len(rows))
        old_rows, rows, encoded = rows, rows + list(delta), extended
        assert set(patches) <= keys
        for key in keys:
            old, new = classes_over(old_rows, key), classes_over(rows, key)
            changed = sorted(old) != sorted(new)
            assert (key in patches) == changed, sorted(key)
            if changed:
                assert_patch(patches[key], old, new, len(rows))
            assert cache.grouped_rows(key) == sum(map(len, new)), sorted(key)
        every.append((patches, modes))
    return every


@pytest.mark.parametrize("backend", BACKENDS)
def test_patch_cases(backend):
    """One append with an old singleton gaining a partner, a class gaining
    a row, a delta-only class of duplicate rows and a value that remaps
    its column; the unit context's patch is oversized."""
    rows = [(1, "x"), (2, "y"), (3, "z"), (3, "z"),
            (5, "w"), (5, "w"), (6, "v"), (6, "v"), (7, "u"), (8, "t")]
    delta = [(1, "x"), (3, "z"), (9, "q"), (9, "q"), (2.5, "y")]
    [(patches, modes)] = _append_and_check(backend, ["a", "b"], rows, [delta])
    assert modes["a"] == "remapped"
    a = frozenset([0])
    assert sorted(map(tuple, patches[a].removed)) == [(2, 3)]
    assert sorted(map(tuple, patches[a].added)) == [
        (0, 10), (2, 3, 11), (12, 13)
    ]
    unit = patches[frozenset()]
    assert unit.oversized and (unit.removed_rows, unit.added_rows) == (10, 15)


@pytest.mark.parametrize("backend", BACKENDS)
def test_empty_delta_patches_nothing(backend):
    rows = [(1, "x"), (1, "x"), (2, "y")]
    encoded = _relation(["a", "b"], rows).encoded(backend)
    cache = PartitionCache(encoded, backend=backend)
    partition = cache.get([0, 1])
    extended, _ = encoded.extend({"a": [], "b": []})
    assert cache.apply_delta(extended, 3, [frozenset([0])]) == {}
    assert cache.get([0, 1]) is partition
    assert cache.grouped_rows([0, 1]) == 2


@pytest.mark.parametrize("backend", BACKENDS)
def test_uncounted_keys_are_patched_without_a_count(backend):
    """Keys passed in are patched even when the cache never built them
    (a memo context); they gain no grouped-row count."""
    rows = [(1, 5), (1, 6), (2, 5)]
    encoded = _relation(["a", "b"], rows).encoded(backend)
    cache = PartitionCache(encoded, backend=backend)
    extended, _ = encoded.extend({"a": [1], "b": [5]})
    patches = cache.apply_delta(extended, 3, [frozenset([0]), frozenset([1])])
    assert set(patches) == {frozenset([0]), frozenset([1])}
    assert set(cache.counted_keys()) == set()
    assert_patch(patches[frozenset([1])], [[0, 2]], [[0, 2, 3]], 4)


@st.composite
def _appends(draw):
    """A small table over even values (and ``None``), a few appends whose
    rows repeat base rows, repeat each other or bring odd and new values
    (which remap a column), possibly empty; and the keys to count."""
    num_attributes = draw(st.integers(1, 3))
    base_value = st.one_of(st.none(), st.sampled_from([0, 2, 4]))
    delta_value = st.one_of(st.none(), st.integers(0, 6))
    base = draw(st.lists(st.tuples(*[base_value] * num_attributes),
                         min_size=1, max_size=10))
    deltas = []
    for _ in range(draw(st.integers(1, 3))):
        chunk = draw(st.lists(st.one_of(
            st.sampled_from(base),
            st.tuples(*[delta_value] * num_attributes),
        ), max_size=5))
        deltas.append(chunk * draw(st.integers(1, 2)))
    subsets = [frozenset(c) for size in range(num_attributes + 1)
               for c in combinations(range(num_attributes), size)]
    keys = draw(st.lists(st.sampled_from(subsets), min_size=1, unique=True))
    return num_attributes, base, deltas, keys


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(scenario=_appends())
def test_patches_match_the_oracle(backend, scenario):
    num_attributes, base, deltas, keys = scenario
    names = [f"a{i}" for i in range(num_attributes)]
    _append_and_check(backend, names, base, deltas, keys)
