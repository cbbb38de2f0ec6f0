"""A hand-grouping oracle for stripped partitions.

Pure Python that shares no code with ``repro``: rows are grouped by their
keys in a plain dict, so classes come out in first-row order with rows
ascending and singletons dropped, the canonical order of
:class:`repro.dataset.partition.Partition`.  Every function takes and
returns classes as lists of row lists; :func:`classes_of` reads them off a
partition's CSR arrays.
"""


def group(keys):
    """The stripped classes of the rows ``0..`` grouped by equal keys."""
    groups = {}
    for row, key in enumerate(keys):
        groups.setdefault(key, []).append(row)
    return [rows for rows in groups.values() if len(rows) >= 2]


def classes_over(rows, key):
    """The stripped classes of the attribute-index set ``key`` over a
    table given as row tuples."""
    return group(tuple(row[i] for i in sorted(key)) for row in rows)


def _split(classes, label):
    """Every class split by ``label(row)``, singletons dropped."""
    split = []
    for rows in classes:
        groups = {}
        for row in rows:
            groups.setdefault(label(row), []).append(row)
        split.extend(g for g in groups.values() if len(g) >= 2)
    return sorted(split)


def refine(classes, column):
    """``Pi_X`` refined by a column: ``Pi_{X ∪ {A}}``."""
    return _split(classes, column.__getitem__)


def _owner(classes):
    """Each row's class id in ``classes``; a row of no class (a stripped
    singleton) is labelled by itself."""
    owners = {row: i for i, rows in enumerate(classes) for row in rows}
    return lambda row: owners.get(row, ("singleton", row))


def product(left, right):
    """``Pi_{X ∪ Y}`` from ``Pi_X`` and ``Pi_Y``: a row that is a
    singleton in either is a singleton in the product."""
    return _split(left, _owner(right))


def refines(fine, coarse):
    """Whether every class of ``fine`` lies inside one class of
    ``coarse``."""
    owner = _owner(coarse)
    return all(len(set(map(owner, rows))) == 1 for rows in fine)


def classes_of(partition):
    """A partition's classes, cut from its CSR arrays by hand."""
    rows = partition.row_indices.tolist()
    offsets = partition.class_offsets.tolist()
    return [rows[offsets[i]:offsets[i + 1]] for i in range(len(offsets) - 1)]


def assert_patch(patch, old_classes, new_classes, num_rows):
    """Assert that an append's class patch for one context holds the
    symmetric difference of the context's stripped classes before
    (``old_classes``) and after (``new_classes``) the append, over
    ``num_rows`` rows in all: each side's classes, rows ascending, or, for
    a patch of at least ``num_rows`` rows, only their row counts."""
    old, new = set(map(tuple, old_classes)), set(map(tuple, new_classes))
    removed, added = sorted(old - new), sorted(new - old)
    sizes = (sum(map(len, removed)), sum(map(len, added)))
    assert (patch.removed_rows, patch.added_rows) == sizes
    oversized = sum(sizes) >= num_rows
    assert (patch.removed is None, patch.added is None) == (oversized,) * 2
    if not oversized:
        assert sorted(map(tuple, classes_of(patch.removed))) == removed
        assert sorted(map(tuple, classes_of(patch.added))) == added
