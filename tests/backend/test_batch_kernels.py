"""Differential tests for the batched removal kernels.

The batch kernels (``oc_optimal_removal_count_batch`` / ``ofd_removal_batch``)
must honour the contract documented in ``repro.backend.base``: entry ``i``
aligns with input ``i``, the ``exceeded`` flag is exact, and whenever a
candidate does not exceed the limit its count equals the single-candidate
kernel's — across both backends.  ``ofd_removal_batch`` counts also equal
``len`` of the rows kernel when a candidate does exceed it.  The segmented
multi-class LNDS kernel is additionally checked against the quadratic oracle
through the padded-DP code path (many short segments at once).
"""

import contextlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.backend import get_backend
from repro.dataset.partition import Partition, PartitionCache
from repro.dataset.relation import Relation
from repro.discovery.api import discover_aods
from repro.discovery.session import Profiler
from repro.validation.approx_oc_optimal import optimal_removal_count
from repro.validation.exact_oc import oc_holds_in_classes
from repro.validation.exact_ofd import ofd_holds_in_classes
from repro.validation.lnds import lnds_length_quadratic

numpy = pytest.importorskip("numpy")

from repro.backend import native  # noqa: E402 - imports numpy
from repro.backend.numpy_backend import (  # noqa: E402
    NumpyBackend,
    stable_rank_order,
)

BACKENDS = ("python", "numpy")


def _random_instance(rng, n):
    """Random stripped classes plus a few random rank-column pairs."""
    perm = list(range(n))
    rng.shuffle(perm)
    classes, i = [], 0
    while i < n - 1:
        size = rng.randrange(2, 10)
        cls = sorted(perm[i:i + size])
        if len(cls) >= 2:
            classes.append(cls)
        i += size + rng.randrange(0, 2)  # occasionally leave singleton gaps
    span = max(2, n // 3)
    pairs = [
        (
            [rng.randrange(0, span) for _ in range(n)],
            [rng.randrange(0, span) for _ in range(n)],
        )
        for _ in range(rng.randrange(1, 5))
    ]
    return classes, pairs


def _native_pairs(backend, pairs):
    return [(backend.to_native(a), backend.to_native(b)) for a, b in pairs]


class TestOcCountBatch:
    def test_backends_agree_on_random_instances(self):
        rng = random.Random(1234)
        py, nq = get_backend("python"), get_backend("numpy")
        for _ in range(60):
            n = rng.randrange(4, 120)
            classes, pairs = _random_instance(rng, n)
            for limit in (None, 0, 1, n // 4, n):
                ref = py.oc_optimal_removal_count_batch(classes, pairs, limit)
                got = nq.oc_optimal_removal_count_batch(
                    classes, _native_pairs(nq, pairs), limit
                )
                assert len(ref) == len(got) == len(pairs)
                for (ref_count, ref_over), (got_count, got_over) in zip(ref, got):
                    assert ref_over == got_over
                    if not ref_over:
                        assert ref_count == got_count
                    elif limit is not None:
                        # exceeded counts are backend-defined but must prove
                        # the violation
                        assert ref_count > limit and got_count > limit

    @pytest.mark.parametrize("backend_name", BACKENDS)
    def test_batch_matches_single_kernel(self, backend_name):
        rng = random.Random(99)
        backend = get_backend(backend_name)
        for _ in range(20):
            n = rng.randrange(10, 80)
            classes, pairs = _random_instance(rng, n)
            native = _native_pairs(backend, pairs)
            batch = backend.oc_optimal_removal_count_batch(classes, native, None)
            for (a, b), (count, over) in zip(native, batch):
                [single] = backend.oc_optimal_removal_count_batch(
                    classes, [(a, b)], None
                )
                assert (count, over) == single

    def test_empty_inputs(self):
        for backend_name in BACKENDS:
            backend = get_backend(backend_name)
            assert backend.oc_optimal_removal_count_batch([], [], 3) == []
            a = backend.to_native([0, 1, 2, 3])
            assert backend.oc_optimal_removal_count_batch(
                [], [(a, a), (a, a)], 3
            ) == [(0, False), (0, False)]

    def test_padded_dp_path_matches_oracle(self):
        """Many short disjoint segments force the padded multi-lane DP."""
        rng = random.Random(5)
        backend = get_backend("numpy")
        n, width = 3000, 8
        perm = list(range(n))
        rng.shuffle(perm)
        classes = [
            sorted(perm[i * width:(i + 1) * width]) for i in range(n // width)
        ]
        a = list(range(n))  # identity: class order == row order
        b = [rng.randrange(0, 40) for _ in range(n)]
        expected = 0
        for cls in classes:
            values = [b[row] for row in cls]
            expected += len(values) - lnds_length_quadratic(values)
        (count, over), = backend.oc_optimal_removal_count_batch(
            classes, [(backend.to_native(a), backend.to_native(b))], None
        )
        assert not over
        assert count == expected
        # and under a crossing budget the flag trips with a count above it
        (count, over), = backend.oc_optimal_removal_count_batch(
            classes,
            [(backend.to_native(a), backend.to_native(b))],
            expected - 1,
        )
        assert over and count > expected - 1

    def test_mixed_segment_sizes_route_both_paths(self):
        """One huge class (scalar fallback) plus many small ones (DP)."""
        rng = random.Random(21)
        backend = get_backend("numpy")
        big = list(range(4000))
        small_rows = list(range(4000, 7000))
        classes = [big] + [
            small_rows[i * 6:(i + 1) * 6] for i in range(len(small_rows) // 6)
        ]
        n = 7000
        a = list(range(n))
        b = [rng.randrange(0, 30) for _ in range(n)]
        py = get_backend("python")
        ref = py.oc_optimal_removal_count_batch(classes, [(a, b)], None)
        got = backend.oc_optimal_removal_count_batch(
            classes, [(backend.to_native(a), backend.to_native(b))], None
        )
        assert ref == got


def _exact_check_backends():
    """The python backend, then numpy on whichever kernels this host loaded,
    then numpy on the fallback kernels (native library forced to ``None``)."""
    yield get_backend("python")
    yield get_backend("numpy")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(native, "kernels", lambda: None)
        yield get_backend("numpy")


class TestExactHoldsBatch:
    """An exact check is a removal count at limit 0: ``not exceeded`` from
    either batch kernel, batched or as a batch of one, must equal the
    independent reference checks ``oc_holds_in_classes`` /
    ``ofd_holds_in_classes`` — on python, native numpy and the fallback."""

    def test_oc_holds_batch_matches_single_and_reference(self):
        rng = random.Random(777)
        for _ in range(40):
            n = rng.randrange(4, 120)
            classes, pairs = _random_instance(rng, n)
            ref = [oc_holds_in_classes(classes, a, b) for a, b in pairs]
            for backend in _exact_check_backends():
                native_pairs = _native_pairs(backend, pairs)
                batch = backend.oc_optimal_removal_count_batch(
                    classes, native_pairs, 0
                )
                assert [not over for _, over in batch] == ref
                assert all(count == 0 for count, over in batch if not over)
                for pair, (_, over) in zip(native_pairs, batch):
                    [(_, single)] = backend.oc_optimal_removal_count_batch(
                        classes, [pair], 0
                    )
                    assert single == over

    def test_ofd_holds_batch_matches_single_and_reference(self):
        rng = random.Random(778)
        for _ in range(40):
            n = rng.randrange(4, 120)
            classes, pairs = _random_instance(rng, n)
            rhs = [a for a, _ in pairs]
            ref = [ofd_holds_in_classes(classes, ranks) for ranks in rhs]
            for backend in _exact_check_backends():
                rhs_native = [backend.to_native(r) for r in rhs]
                batch = backend.ofd_removal_batch(classes, rhs_native, 0)
                assert [not over for _, over in batch] == ref
                assert all(count == 0 for count, over in batch if not over)
                for ranks, entry in zip(rhs_native, batch):
                    assert backend.ofd_removal_batch(
                        classes, [ranks], 0
                    ) == [entry]

    def test_constant_rhs_holds(self):
        classes = [[0, 1], [2, 3, 4]]
        for backend in _exact_check_backends():
            constant = backend.to_native([7] * 5)
            varying = backend.to_native([0, 1, 0, 0, 0])
            assert backend.ofd_removal_batch(
                classes, [constant, varying], 0
            ) == [(0, False), (1, True)]

    def test_empty_inputs(self):
        for backend in _exact_check_backends():
            assert backend.oc_optimal_removal_count_batch([], [], 0) == []
            assert backend.ofd_removal_batch([], [], 0) == []
            ranks = backend.to_native([0, 1, 2])
            assert backend.oc_optimal_removal_count_batch(
                [], [(ranks, ranks)], 0
            ) == [(0, False)]
            assert backend.ofd_removal_batch([], [ranks], 0) == [(0, False)]


class TestOfdRemovalBatch:
    def test_backends_agree_and_match_single(self):
        """Counts, partials included, equal ``len`` of the rows kernel on
        every backend and on whichever numpy ``g3`` path is active."""
        rng = random.Random(4321)
        py, nq = get_backend("python"), get_backend("numpy")
        for _ in range(40):
            n = rng.randrange(4, 120)
            classes, pairs = _random_instance(rng, n)
            rhs = [a for a, _ in pairs]
            rhs_native = [nq.to_native(r) for r in rhs]
            for limit in (None, 0, 2, n // 4):
                expected = []
                for ranks, single_ranks in zip(rhs, rhs_native):
                    rows, exceeded = py.ofd_removal_rows(classes, ranks, limit)
                    assert nq.ofd_removal_rows(
                        classes, single_ranks, limit
                    ) == (rows, exceeded)
                    expected.append((len(rows), exceeded))
                assert py.ofd_removal_batch(classes, rhs, limit) == expected
                assert nq.ofd_removal_batch(classes, rhs_native, limit) == expected

    def test_empty_inputs(self):
        for backend_name in BACKENDS:
            backend = get_backend(backend_name)
            assert backend.ofd_removal_batch([], [], None) == []
            ranks = backend.to_native([0, 0, 1])
            assert backend.ofd_removal_batch([], [ranks], 1) == [(0, False)]


# -- sorted partitions --------------------------------------------------------
#
# With the native kernels, refinement scatters the new attribute's cached
# row order instead of sorting once the grouped rows are a large enough
# share of all rows.  Both sides of that branch must equal the python
# backend.  OC counts take no row order: they sort each class on demand.

BRANCH_SIDES = ("scatter", "sort")


@contextlib.contextmanager
def _branch_side(side):
    """Force one side of the refinement's scatter-vs-sort branch for every
    m / n."""
    fraction = 0.0 if side == "scatter" else float("inf")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(NumpyBackend, "_REFINE_SCATTER_FRACTION", fraction)
        yield


@st.composite
def _sorted_partition_relations(draw):
    """Small relations whose columns have ties, nulls (rank 0), a constant
    value (one class spanning every row) or all-distinct values."""
    n = draw(st.integers(2, 40))
    columns = {}
    for i in range(draw(st.integers(2, 4))):
        kind = draw(st.sampled_from(["ties", "nulls", "constant", "distinct"]))
        if kind == "constant":
            column = [draw(st.integers(0, 3))] * n
        elif kind == "distinct":
            column = draw(st.permutations(range(n)))
        else:
            cell = st.integers(0, 3)
            if kind == "nulls":
                cell = st.one_of(st.none(), cell)
            column = draw(st.lists(cell, min_size=n, max_size=n))
        columns[f"c{i}"] = column
    return Relation.from_columns(columns)


def _contexts(relation):
    """The empty context, every single attribute, every pair of attributes
    and all of them: each refinement level the cache builds."""
    names = relation.attribute_names
    return (
        [[]] + [[name] for name in names]
        + [[a, b] for i, a in enumerate(names) for b in names[i + 1:]]
        + [names]
    )


@pytest.mark.parametrize("side", BRANCH_SIDES)
@given(relation=_sorted_partition_relations())
@settings(max_examples=60, deadline=None)
def test_sorted_partitions_match_the_python_backend(side, relation):
    py, nq = get_backend("python"), get_backend("numpy")
    with _branch_side(side):
        encoded, reference = relation.encoded(nq), relation.encoded(py)
        cache = PartitionCache(encoded, backend=nq)
        reference_cache = PartitionCache(reference, backend=py)
        for context in _contexts(relation):
            assert cache.get_by_names(context) == \
                reference_cache.get_by_names(context)
        for name in relation.attribute_names:
            for index in range(len(relation.attribute_names)):
                assert nq.partition_refine(
                    cache.get_by_names([name]),
                    encoded.native_ranks_by_index(index),
                    lambda index=index: encoded.row_order_by_index(index),
                ) == py.partition_refine(
                    reference_cache.get_by_names([name]),
                    reference.ranks_by_index(index),
                )


def test_the_branch_sides_take_their_paths(monkeypatch):
    """At fraction 0 every refinement, the level-1 build (the unit partition
    refined by one column) included, takes the native call (when the native
    kernels loaded); at infinity none does.  OC counts never refine."""
    calls = []
    library = native.kernels()
    if library is not None:
        real = library.refine_partition

        def spy(*args, **kwargs):
            calls.append(args[3].size)
            return real(*args, **kwargs)

        monkeypatch.setattr(
            native, "kernels", lambda: library._replace(refine_partition=spy)
        )
    relation = Relation.from_columns(
        {"a": [0, 0, 1, 1, 2], "b": [1, 1, 0, 0, 3], "c": [4, 3, 2, 1, 0]}
    )
    nq = get_backend("numpy")
    # Building {a, b} refines the unit partition by a, then that by b.
    for side, refines in (("sort", []), ("scatter", [5, 5])):
        with _branch_side(side):
            encoded = relation.encoded(nq)
            cache = PartitionCache(encoded, backend=nq)
            assert cache.get_by_names(["a", "b"]) == Partition(
                [[0, 1], [2, 3]], 5
            )
            assert nq.oc_optimal_removal_count_batch(
                cache.get_by_names(["a"]),
                [(encoded.native_ranks("b"), encoded.native_ranks("c"))] * 2,
                None,
            ) == [(0, False)] * 2
        if library is not None:
            assert calls == refines
        calls.clear()


@st.composite
def _refine_cases(draw):
    """A rank column with ties and a parent partition to refine by it:
    no classes, singletons only, one class of every row, or random classes
    (singletons included) grouping m of the n rows, with m / n drawn on
    either side of ``_REFINE_SCATTER_FRACTION``."""
    n = draw(st.integers(1, 60))
    top = draw(st.integers(0, 5))
    ranks = draw(st.lists(st.integers(0, top), min_size=n, max_size=n))
    shape = draw(st.sampled_from(["empty", "singletons", "all-rows", "random"]))
    cut = int(NumpyBackend._REFINE_SCATTER_FRACTION * n)
    if draw(st.booleans()):
        m = draw(st.integers(0, cut))
    else:
        m = draw(st.integers(min(cut + 1, n), n))
    chosen = draw(st.permutations(range(n)))[:m]
    if shape == "empty":
        classes = []
    elif shape == "singletons":
        classes = [[row] for row in chosen]
    elif shape == "all-rows":
        classes = [list(range(n))]
    else:
        classes, i = [], 0
        while i < m:
            size = draw(st.integers(1, 6))
            classes.append(sorted(chosen[i:i + size]))
            i += size
    classes.sort(key=lambda rows: rows[0])
    return n, ranks, classes


@given(case=_refine_cases())
@settings(max_examples=200, deadline=None)
def test_native_refine_matches_the_lexsort_and_the_python_backend(case):
    """The one native refinement call, the lexsort path and the python
    backend build the same canonical partition, array for array, on both
    sides of the scatter fraction and at its default."""
    n, ranks, classes = case
    py, nq = get_backend("python"), get_backend("numpy")
    offsets = [0]
    for rows in classes:
        offsets.append(offsets[-1] + len(rows))
    flat = [row for rows in classes for row in rows]
    expected = py.partition_refine(Partition.from_csr(flat, offsets, n), ranks)
    column = nq.to_native(ranks)
    sides = [contextlib.nullcontext(), _branch_side("sort")]
    if native.kernels() is not None:
        sides.append(_branch_side("scatter"))
    for side in sides:
        with side:
            got = nq.partition_refine(
                Partition.from_csr(
                    numpy.array(flat, dtype=numpy.int64),
                    numpy.array(offsets, dtype=numpy.int64), n,
                ),
                column,
                lambda: stable_rank_order(column).astype(numpy.int32),
            )
        assert got == expected
        assert got.row_indices.dtype == got.class_offsets.dtype == numpy.int64
        assert got.row_indices.tolist() == list(expected.row_indices)
        assert got.class_offsets.tolist() == list(expected.class_offsets)


def test_every_class_form_takes_the_one_native_oc_path(monkeypatch):
    """A cached partition (discovery) and the class lists of incremental
    repair both reach the same native call, and its counts, partials
    included, equal the python backend's."""
    calls = []
    library = native.kernels()
    if library is not None:
        real = library.oc_removal_batch

        def spy(*args, **kwargs):
            calls.append(len(args[2]))
            return real(*args, **kwargs)

        monkeypatch.setattr(
            native, "kernels", lambda: library._replace(oc_removal_batch=spy)
        )
    rng = random.Random(31)
    n = 400
    relation = Relation.from_columns({
        "ctx": [rng.randrange(4) for _ in range(n)],
        "a": [rng.randrange(50) for _ in range(n)],
        "b": [rng.randrange(50) for _ in range(n)],
    })
    py, nq = get_backend("python"), get_backend("numpy")
    encoded = relation.encoded(nq)
    partition = PartitionCache(encoded, backend=nq).get_by_names(["ctx"])
    class_lists = [list(rows) for rows in partition]
    forms = [partition, class_lists]
    pairs = [("a", "b"), ("b", "a")]
    for limit in (None, 0, 40):
        expected = py.oc_optimal_removal_count_batch(class_lists, [
            (relation.encoded(py).ranks(a), relation.encoded(py).ranks(b))
            for a, b in pairs
        ], limit)
        for classes in forms:
            got = nq.oc_optimal_removal_count_batch(classes, [
                (encoded.native_ranks(a), encoded.native_ranks(b))
                for a, b in pairs
            ], limit)
            _assert_oc_counts_match(expected, got, limit)
    if library is not None:
        assert calls == [len(pairs)] * 3 * len(forms)


def _assert_oc_counts_match(reference, got, limit):
    """Exact equality, partials included, on the native kernels; the
    batch contract (exact flag, count when within ``limit``) otherwise."""
    if native.kernels() is not None:
        assert got == reference
        return
    assert [over for _, over in got] == [over for _, over in reference]
    for (ref_count, over), (got_count, _) in zip(reference, got):
        assert got_count == ref_count if not over else got_count > limit


@pytest.mark.parametrize("top", [1, 3, (1 << 16) - 1, 1 << 16, (1 << 31) - 1])
def test_stable_rank_order_is_a_stable_argsort(top):
    """One 16-bit radix digit below 2^16, two from there on."""
    rng = numpy.random.default_rng(top)
    ranks = rng.integers(0, top, 500, endpoint=True).astype(numpy.int32)
    ranks[:3] = [0, top, top]
    assert stable_rank_order(ranks).tolist() == numpy.argsort(
        ranks, kind="stable"
    ).tolist()


@pytest.mark.parametrize("side", BRANCH_SIDES)
def test_discover_extend_discover_equals_a_cold_python_run(side):
    """Row orders live on the encoding, and ``extend`` returns a fresh one:
    the second discovery must read orders of the extended rows, never
    stale ones of the first encoding."""
    rng = random.Random(41)

    def rows(count):
        return [
            [rng.randrange(6), rng.randrange(4), rng.choice([None, 1, 2]),
             rng.randrange(8)]
            for _ in range(count)
        ]

    first, appended = rows(60), rows(25)
    columns = {f"c{i}": [row[i] for row in first] for i in range(4)}
    relation = Relation.from_columns(columns)
    with _branch_side(side), Profiler(relation, backend="numpy") as profiler:
        profiler.discover(threshold=0.1)
        profiler.extend(appended)
        warm = profiler.discover(threshold=0.1)
    cold = discover_aods(
        Relation.from_columns({
            name: values + [row[i] for row in appended]
            for i, (name, values) in enumerate(columns.items())
        }),
        threshold=0.1, backend="python",
    )
    assert warm.ocs == cold.ocs
    assert warm.ofds == cold.ofds
