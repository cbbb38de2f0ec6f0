"""The native kernels: exact parity with the reference, and a safe loader.

Parity here is stronger than the batch-kernel contract in
``repro.backend.base``: each native count *and* its early-exit partial
equal the python backend's class-by-class reference (``optimal_removal_count``
for OCs, ``len`` of ``aofd_removal_rows`` for OFDs), whatever the class
sizes (both sorts of the OC entry), rank widths and limits, and a pooled
run equals an in-process one.  The binding tests show that inputs which do
not fit their arrays raise instead of reaching memory out of bounds.  The loader tests show that no compiler, a damaged
cached library, concurrent first use and an unsafe cache directory each
end in a working NumPy backend, never in loading a library that could be
wrong.
"""

import ctypes
import dataclasses
import json
import logging
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.backend import get_backend
from repro.dataset.generators import generate_flight_like
from repro.discovery.api import discover_aods
from repro.validation.approx_oc_optimal import optimal_removal_count
from repro.validation.approx_ofd import aofd_removal_rows

numpy = pytest.importorskip("numpy")

from repro.backend import native  # noqa: E402 - imports numpy

NUMPY = get_backend("numpy")
KERNELS = native.kernels()
needs_kernel = pytest.mark.skipif(
    KERNELS is None, reason="the native kernels are unavailable on this host"
)
needs_gcc = pytest.mark.skipif(shutil.which("gcc") is None, reason="no gcc")


def _columns(class_members):
    """Classes of consecutive rows plus the A and B rank columns, from one
    ``[(a, b), ...]`` member list per class."""
    classes, a, b = [], [], []
    for members in class_members:
        classes.append(list(range(len(a), len(a) + len(members))))
        a.extend(x for x, _ in members)
        b.extend(y for _, y in members)
    return classes, a, b


def _assert_matches_reference(classes, a, b):
    """Batch and single kernels equal the reference under no budget, a zero
    budget, and budgets just below and at each pair's full count."""
    pairs = [(a, b), (b, a)]
    native_pairs = [(NUMPY.to_native(x), NUMPY.to_native(y)) for x, y in pairs]
    full = [optimal_removal_count(classes, x, y)[0] for x, y in pairs]
    for limit in [None, 0] + sorted({c - 1 for c in full if c} | set(full)):
        expected = [optimal_removal_count(classes, x, y, limit) for x, y in pairs]
        assert NUMPY.oc_optimal_removal_count_batch(
            classes, native_pairs, limit
        ) == expected
        assert [
            NUMPY.oc_optimal_removal_count_batch(classes, [pair], limit)[0]
            for pair in native_pairs
        ] == expected


_CLASS = st.one_of(
    st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=12),
    # all-equal B projection
    st.integers(0, 12).map(lambda n: [(i, 3) for i in range(n)]),
    # strictly decreasing B projection
    st.integers(0, 12).map(lambda n: [(i, n - i) for i in range(n)]),
)


class TestParity:
    @needs_kernel
    @given(st.lists(_CLASS, max_size=6))
    @settings(max_examples=300, deadline=None)
    def test_counts_and_partials_equal_the_reference(self, class_members):
        _assert_matches_reference(*_columns(class_members))

    @needs_kernel
    def test_class_longer_than_the_padded_dp_lane_cap(self):
        rng = random.Random(7)
        # 3000 rows: above the 2048-element lanes of the NumPy fallback.
        long_class = [(rng.randrange(50), rng.randrange(50)) for _ in range(3000)]
        _assert_matches_reference(
            *_columns([[(1, 2), (1, 1)], long_class, [(0, 0)]])
        )


#: The largest int32 rank: two of them pack into a 62-bit sort key.
_TOP = (1 << 31) - 1
_OC_KINDS = ("random", "ties", "equal", "sorted", "reversed")


@st.composite
def _oc_instances(draw):
    """Classes on both sides of the 32-row insertion-sort cutoff, each of
    one kind (random, tie-heavy, all-equal ``B``, sorted, reversed) with
    ranks up to a drawn top, ``2^31 - 1`` included."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    class_members = []
    for _ in range(draw(st.integers(1, 5))):
        n = draw(st.integers(0, 70))
        kind = draw(st.sampled_from(_OC_KINDS))
        top = draw(st.sampled_from([1, 4, 300, 70000, _TOP]))
        if kind == "ties":
            levels = [0, top // 2, top]
            members = [(rng.choice(levels), rng.choice(levels)) for _ in range(n)]
        elif kind == "equal":
            value = rng.randint(0, top)
            members = [(rng.randint(0, top), value) for _ in range(n)]
        else:
            members = [(rng.randint(0, top), rng.randint(0, top)) for _ in range(n)]
            if kind != "random":
                a = sorted(x for x, _ in members)
                b = sorted((y for _, y in members), reverse=kind == "reversed")
                members = list(zip(a, b))
        class_members.append(members)
    return class_members


def _native_oc(classes, pairs, limit, scratch=None):
    """The native AOC entry called directly on ``classes``."""
    columns = [
        tuple(numpy.array(column, dtype=numpy.int32) for column in pair)
        for pair in pairs
    ]
    if scratch is None:
        longest = max((len(cls) for cls in classes), default=0)
        scratch = numpy.empty(2 * longest, dtype=numpy.int64)
    return KERNELS.oc_removal_batch(*_csr(classes), columns, scratch, limit)


class TestOcBatchParity:
    """``oc_removal_batch`` sorts each class on demand (insertion sort up
    to 32 rows, radix above) and stops at the class that crosses the
    limit: its counts, partials included, equal the reference."""

    @needs_kernel
    @given(_oc_instances())
    @settings(max_examples=200, deadline=None)
    def test_counts_and_partials_equal_the_reference(self, class_members):
        classes, a, b = _columns(class_members)
        _assert_matches_reference(classes, a, b)
        pairs = [(a, b), (b, a)]
        for limit in (None, 0, 5):
            assert _native_oc(classes, pairs, limit) == [
                optimal_removal_count(classes, x, y, limit)[0] for x, y in pairs
            ]

    @needs_kernel
    def test_a_5000_row_class_with_31_bit_ranks(self):
        rng = random.Random(23)
        big = [(rng.randint(0, _TOP), rng.randint(0, _TOP)) for _ in range(5000)]
        ties = [(rng.randrange(3), rng.randrange(3)) for _ in range(40)]
        _assert_matches_reference(*_columns([ties, big, ties[:20], [(0, 1)]]))

    @needs_kernel
    def test_stops_at_the_class_that_crosses_the_limit(self):
        """A negative rank in a later class is never read once an earlier
        class took the count over the limit."""
        classes, a, b = _columns([[(0, 1), (1, 0)], [(0, 0), (1, 1)]])
        b[3] = -1
        assert _native_oc(classes, [(a, b)], 0) == [1]
        with pytest.raises(ValueError):
            _native_oc(classes, [(a, b)], 1)

    @needs_kernel
    def test_a_pooled_run_equals_the_in_process_run(self):
        """A group counted on two plane threads equals the same batch
        counted on the calling thread, partials included."""
        from repro.dataset.partition import PartitionCache
        from repro.validation.distributed import (
            ColumnPlane,
            ShardedValidationPool,
        )

        relation = generate_flight_like(
            1500, num_attributes=5, error_rate=0.1, seed=5
        ).relation
        encoded = relation.encoded(NUMPY)
        names = relation.attribute_names
        classes = PartitionCache(encoded, backend=NUMPY).get_by_names(names[:1])
        pairs = [(a, b) for a in names[1:] for b in names[1:] if a != b]

        def prepare(classes, pair_names, limit):
            rank_pairs = [(encoded.native_ranks(a), encoded.native_ranks(b))
                          for a, b in pair_names]
            return lambda: NUMPY.oc_optimal_removal_count_batch(
                classes, rank_pairs, limit
            )

        with ShardedValidationPool(2) as pool:
            plane = ColumnPlane(prepare, pool)
            for limit in (None, 0, 30):
                expected = prepare(classes, pairs, limit)()
                pending = [plane.submit(classes, [pair], limit)
                           for pair in pairs]
                got = [count for p in pending for count in plane.harvest(p)]
                assert got == expected
            assert pool.stats == {"groups": 3 * len(pairs),
                                  "jobs": 3 * len(pairs)}


def _ofd_columns(class_values):
    """Classes of consecutive rows plus their RHS rank column, from one
    value list per class."""
    classes, ranks = [], []
    for values in class_values:
        classes.append(list(range(len(ranks), len(ranks) + len(values))))
        ranks.extend(values)
    return classes, ranks


def _csr(classes):
    """``(rows, offsets)`` int64 arrays of a list of classes."""
    rows = numpy.array([row for cls in classes for row in cls], dtype=numpy.int64)
    offsets = numpy.cumsum([0] + [len(cls) for cls in classes], dtype=numpy.int64)
    return rows, offsets


def _native_ofd(classes, ranks, limit, freq=None):
    """The native ``g3`` entry called directly on ``classes``."""
    column = numpy.array(ranks, dtype=numpy.int32)
    if freq is None:
        freq = numpy.zeros(max(ranks, default=0) + 1, dtype=numpy.int64)
    [count] = KERNELS.ofd_removal_count([column], *_csr(classes), freq, limit)
    return count


def _assert_ofd_matches_reference(classes, ranks):
    """The native entry and the numpy batch equal ``len`` of the reference
    rows kernel, with its exceeded flag, under no budget, a zero budget,
    and budgets just below and at the full count."""
    full = len(aofd_removal_rows(classes, ranks)[0])
    for limit in sorted({0, full - 1, full} - {-1}) + [None]:
        rows, exceeded = aofd_removal_rows(classes, ranks, limit)
        assert _native_ofd(classes, ranks, limit) == len(rows)
        assert NUMPY.ofd_removal_batch(
            classes, [NUMPY.to_native(ranks)], limit
        ) == [(len(rows), exceeded)]


_OFD_CLASS = st.one_of(
    st.lists(st.integers(0, 4), min_size=1, max_size=12),
    # all-equal RHS, the null rank 0 included
    st.tuples(st.integers(1, 12), st.integers(0, 3)).map(lambda t: [t[1]] * t[0]),
    # all-distinct RHS
    st.integers(1, 12).map(lambda n: list(range(n))),
)


class TestOfdParity:
    @needs_kernel
    @given(st.lists(_OFD_CLASS, max_size=6))
    @settings(max_examples=300, deadline=None)
    def test_counts_and_partials_equal_the_reference(self, class_values):
        _assert_ofd_matches_reference(*_ofd_columns(class_values))

    @needs_kernel
    def test_a_3000_row_class(self):
        rng = random.Random(13)
        long_class = [rng.randrange(40) for _ in range(3000)]
        _assert_ofd_matches_reference(
            *_ofd_columns([[0, 0, 1], long_class, [2, 2]])
        )

    @needs_kernel
    def test_one_call_counts_every_column(self):
        rng = random.Random(19)
        classes, ranks = _ofd_columns(
            [[rng.randrange(5) for _ in range(rng.randrange(1, 20))]
             for _ in range(30)]
        )
        columns = [ranks, ranks[::-1], [0] * len(ranks)]
        freq = numpy.zeros(5, dtype=numpy.int64)
        for limit in (None, 0, 7):
            assert KERNELS.ofd_removal_count(
                [numpy.array(c, dtype=numpy.int32) for c in columns],
                *_csr(classes), freq, limit,
            ) == [_native_ofd(classes, c, limit) for c in columns]

    @needs_kernel
    def test_back_to_back_calls_share_one_scratch(self):
        rng = random.Random(17)
        classes, ranks = _ofd_columns(
            [[rng.randrange(6) for _ in range(rng.randrange(1, 30))]
             for _ in range(40)]
        )
        freq = numpy.zeros(max(ranks) + 1, dtype=numpy.int64)
        expected = [_native_ofd(classes, ranks, limit) for limit in (None, 3)]
        for _ in range(3):
            assert [
                _native_ofd(classes, ranks, limit, freq) for limit in (None, 3)
            ] == expected
            assert not freq.any()


@pytest.fixture(scope="module")
def flight_2k():
    relation = generate_flight_like(
        2000, num_attributes=6, error_rate=0.08, seed=3
    ).relation
    return relation, discover_aods(relation, threshold=0.1, backend="python")


def _signature(result):
    """Dependencies with their removal sizes, plus every stats counter
    except timings and the backend name."""
    stats = {
        name: value for name, value in dataclasses.asdict(result.stats).items()
        if "seconds" not in name and name != "backend"
    }
    return json.dumps([
        [found.to_dict() for found in result.ocs],
        [found.to_dict() for found in result.ofds],
        stats,
    ], sort_keys=True, default=str)


@pytest.mark.parametrize("kernel", ["native", "numpy"])
def test_discovery_is_byte_identical_on_both_kernels(kernel, flight_2k, monkeypatch):
    if kernel == "numpy":
        monkeypatch.setattr(native, "kernels", lambda: None)
    elif KERNELS is None:
        pytest.skip("the native kernels are unavailable on this host")
    assert NUMPY.oc_kernel_name == kernel
    relation, reference = flight_2k
    result = discover_aods(relation, threshold=0.1, backend="numpy")
    assert _signature(result) == _signature(reference)


class TestBinding:
    @needs_kernel
    def test_rejects_wrong_dtype_layout_and_sizes(self):
        kernel = KERNELS.oc_removal_batch
        a = numpy.array([0, 1, 2], dtype=numpy.int32)
        b = numpy.array([3, 1, 2], dtype=numpy.int32)
        rows = numpy.arange(3, dtype=numpy.int64)
        offsets = numpy.array([0, 3], dtype=numpy.int64)
        scratch = numpy.empty(6, dtype=numpy.int64)
        assert kernel(rows, offsets, [(a, b)], scratch, None) == [1]
        assert kernel(rows, offsets, [(a, b)], scratch, 0) == [1]
        for bad in (
            (rows, offsets, [(a.astype(numpy.int64), b)], scratch),
            (rows, offsets, [(a, numpy.repeat(b, 2)[::2])], scratch),
            (rows.astype(numpy.int32), offsets, [(a, b)], scratch),
            (rows, offsets, [(a, b)], scratch.astype(numpy.int32)),
            (rows, offsets, [(a, b)], scratch[:5]),
            (rows, numpy.array([0, 4], dtype=numpy.int64), [(a, b)], scratch),
        ):
            with pytest.raises(ValueError):
                kernel(*bad, None)

    @needs_kernel
    @pytest.mark.parametrize("case", [
        "negative-rank", "row-past-column", "negative-row",
        "decreasing-offsets", "offsets-past-rows", "no-offsets",
        "short-scratch", "length-mismatch", "rank-dtype", "rows-dtype",
        "strided-column", "read-only-scratch",
    ])
    def test_oc_inputs_that_do_not_fit_raise(self, case):
        """Each bad input to the AOC entry raises ``ValueError``.  The
        scratch sits inside a buffer of guard slots: a write out of bounds
        would change a guard."""
        a = numpy.array([0, 1, 2, 0, 1, 2], dtype=numpy.int32)
        b = numpy.array([2, 1, 0, 1, 1, 0], dtype=numpy.int32)
        rows = numpy.arange(6, dtype=numpy.int64)
        offsets = numpy.array([0, 3, 6], dtype=numpy.int64)
        buffer = numpy.full(10, 77, dtype=numpy.int64)
        scratch = buffer[2:8]
        kernel = KERNELS.oc_removal_batch
        assert kernel(rows, offsets, [(a, b), (b, a)], scratch, None) == [3, 3]
        buffer[:] = 77
        if case == "negative-rank":
            a[4] = -1
        elif case == "row-past-column":
            rows[3] = a.size
        elif case == "negative-row":
            rows[1] = -1
        elif case == "decreasing-offsets":
            offsets[2] = 2
        elif case == "offsets-past-rows":
            offsets[2] = rows.size + 1
        elif case == "no-offsets":
            offsets = offsets[:0]
        elif case == "short-scratch":
            scratch = buffer[2:7]
        elif case == "length-mismatch":
            b = b[:-1].copy()
        elif case == "rank-dtype":
            b = b.astype(numpy.int64)
        elif case == "rows-dtype":
            rows = rows.astype(numpy.int32)
        elif case == "strided-column":
            a = numpy.repeat(a, 2)[::2]
        else:
            scratch.flags.writeable = False
        with pytest.raises(ValueError):
            kernel(rows, offsets, [(a, b), (b, a)], scratch, None)
        outside = numpy.ones(buffer.size, dtype=bool)
        outside[2:2 + scratch.size] = False
        assert (buffer[outside] == 77).all()

    @needs_kernel
    @pytest.mark.parametrize("case", [
        "rank-at-scratch-size", "negative-rank", "row-past-column",
        "negative-row", "offsets-past-rows", "decreasing-offsets",
        "negative-offset", "no-offsets",
    ])
    def test_ofd_inputs_that_do_not_fit_raise(self, case):
        """Each bad input raises ``ValueError``.  The scratch sits between
        two guard counters in one buffer: a write out of bounds would change
        a guard, and the counters a failed call touched are zeroed again."""
        ranks = numpy.array([0, 1, 1, 2, 0], dtype=numpy.int32)
        rows = numpy.array([0, 1, 2, 3, 4], dtype=numpy.int64)
        offsets = numpy.array([0, 3, 5], dtype=numpy.int64)
        buffer = numpy.full(ranks.size + 3, 7, dtype=numpy.int64)
        freq = buffer[1:-1]
        freq[:] = 0
        assert KERNELS.ofd_removal_count([ranks], rows, offsets, freq, None) == [2]
        if case == "rank-at-scratch-size":
            ranks[2] = freq.size
        elif case == "negative-rank":
            ranks[4] = -1
        elif case == "row-past-column":
            rows[3] = ranks.size
        elif case == "negative-row":
            rows[1] = -1
        elif case == "offsets-past-rows":
            offsets[-1] = rows.size + 1
        elif case == "decreasing-offsets":
            offsets[2] = 2
        elif case == "negative-offset":
            offsets[0] = -1
        else:
            offsets = offsets[:0]
        with pytest.raises(ValueError):
            KERNELS.ofd_removal_count([ranks], rows, offsets, freq, None)
        assert buffer[0] == buffer[-1] == 7
        assert not freq.any()

    @needs_kernel
    def test_ofd_rejects_wrong_dtype_and_layout(self):
        """The arrays are checked in Python and passed as bare addresses."""
        ranks = numpy.array([1, 1, 0], dtype=numpy.int32)
        rows = numpy.arange(3, dtype=numpy.int64)
        offsets = numpy.array([0, 3], dtype=numpy.int64)
        freq = numpy.zeros(4, dtype=numpy.int64)
        assert KERNELS.ofd_removal_count([ranks], rows, offsets, freq, 0) == [1]
        with pytest.raises(ValueError):
            KERNELS.ofd_removal_count(
                [ranks.astype(numpy.int64)], rows, offsets, freq, None
            )
        with pytest.raises(ValueError):
            KERNELS.ofd_removal_count(
                [ranks], numpy.arange(6, dtype=numpy.int64)[::2], offsets,
                freq, None,
            )
        with pytest.raises(ValueError):
            KERNELS.ofd_removal_count(
                [ranks, ranks[:2].copy()], rows, offsets, freq, None
            )
        freq.flags.writeable = False
        with pytest.raises(ValueError):
            KERNELS.ofd_removal_count([ranks], rows, offsets, freq, None)

    @needs_kernel
    @pytest.mark.parametrize("case", [
        "repeated-row", "row-past-rows", "negative-row", "short-order",
        "parent-row-past-rows", "negative-parent-row", "overlapping-classes",
        "offsets-below-bucket", "offsets-above-bucket", "offsets-past-out",
        "short-out-offsets", "no-offsets", "order-dtype", "class-map-dtype",
        "strided-order", "read-only-class-map",
    ])
    def test_scatter_inputs_that_do_not_fit_raise(self, case):
        """Each bad input to the native refinement raises ``ValueError``.

        The ``order`` cases repeat a row, name one outside the table, drop
        one or pass a strided or ``int64`` array; the parent cases name a
        row outside the table, put a row in two classes, cut a bucket with
        decreasing offsets or past the rows, or pass no offsets; the
        row-indexed class map (``mark``) is the wrong dtype or read-only.
        ``out_rows`` and ``out_offsets`` each sit between guard slots in one
        buffer, so a write out of bounds would change a guard; the
        ``offsets-past-out`` and ``short-out-offsets`` cases leave them one
        slot too short for the child partition."""
        ranks = numpy.array([1, 0, 1, 2, 0, 1], dtype=numpy.int32)
        order = numpy.array([1, 4, 0, 2, 5, 3], dtype=numpy.int32)
        rows = numpy.array([0, 2, 3, 5, 1, 4], dtype=numpy.int64)
        offsets = numpy.array([0, 4, 6], dtype=numpy.int64)
        mark = numpy.empty(ranks.size, dtype=numpy.int32)
        row_buffer = numpy.full(rows.size + 2, 77, dtype=numpy.int64)
        offset_buffer = numpy.full(rows.size // 2 + 3, 77, dtype=numpy.int64)
        out_rows, out_offsets = row_buffer[1:-1], offset_buffer[1:-1]
        refine = KERNELS.refine_partition
        assert refine(
            rows, offsets, ranks, order, mark, out_rows, out_offsets
        ) == 2
        assert out_rows[:5].tolist() == [0, 2, 5, 1, 4]
        assert out_offsets[:3].tolist() == [0, 3, 5]
        if case == "repeated-row":
            order[5] = 1
        elif case == "row-past-rows":
            order[1] = order.size
        elif case == "negative-row":
            order[0] = -1
        elif case == "short-order":
            order = order[:-1]
        elif case == "parent-row-past-rows":
            rows[5] = ranks.size
        elif case == "negative-parent-row":
            rows[1] = -1
        elif case == "overlapping-classes":
            rows[4] = 0
        elif case == "offsets-below-bucket":
            offsets[2] = 3
        elif case == "offsets-above-bucket":
            offsets[2] = rows.size + 1
        elif case == "offsets-past-out":
            out_rows = row_buffer[1:5]
        elif case == "short-out-offsets":
            out_offsets = offset_buffer[1:3]
        elif case == "no-offsets":
            offsets = offsets[:0]
        elif case == "order-dtype":
            order = order.astype(numpy.int64)
        elif case == "class-map-dtype":
            mark = mark.astype(numpy.int64)
        elif case == "strided-order":
            order = numpy.repeat(order, 2)[::2]
        else:
            mark.flags.writeable = False
        row_buffer[:] = offset_buffer[:] = 77
        with pytest.raises(ValueError):
            refine(rows, offsets, ranks, order, mark, out_rows, out_offsets)
        for buffer, out in ((row_buffer, out_rows),
                            (offset_buffer, out_offsets)):
            assert buffer[0] == 77 and (buffer[1 + out.size:] == 77).all()


class TestLoader:
    def test_without_a_compiler_the_numpy_path_runs(
        self, tmp_path, monkeypatch, caplog
    ):
        monkeypatch.setenv("PATH", str(tmp_path / "no-bin"))
        with caplog.at_level(logging.INFO, logger="repro"):
            handle = native.load_kernels(tmp_path / "cache")
        assert handle is None
        assert [(r.name, r.levelno) for r in caplog.records] == [
            ("repro.backend", logging.INFO)
        ]
        assert list((tmp_path / "cache").iterdir()) == []
        monkeypatch.setattr(native, "kernels", lambda: handle)
        assert NUMPY.oc_kernel_name == "numpy"
        rng = random.Random(11)
        classes, a, b = _columns([
            [(rng.randrange(5), rng.randrange(5)) for _ in range(rng.randrange(1, 40))]
            for _ in range(30)
        ])
        assert NUMPY.oc_optimal_removal_count_batch(
            classes, [(NUMPY.to_native(a), NUMPY.to_native(b))], None
        ) == [optimal_removal_count(classes, a, b)]
        rows, _ = aofd_removal_rows(classes, b)
        assert NUMPY.ofd_removal_batch(
            classes, [NUMPY.to_native(b)], None
        ) == [(len(rows), False)]

    @needs_gcc
    def test_damaged_library_is_rebuilt_not_loaded(self, tmp_path, monkeypatch):
        assert native.load_kernels(tmp_path / "first") is not None
        good = native.library_path(tmp_path / "first").read_bytes()
        cache = tmp_path / "cache"
        cache.mkdir(mode=0o700)
        target = native.library_path(cache)
        target.write_bytes(good[: len(good) // 2])
        loaded = []
        real_cdll = ctypes.CDLL

        def spy(path, *args, **kwargs):
            loaded.append(Path(path).read_bytes())
            return real_cdll(path, *args, **kwargs)

        monkeypatch.setattr(native.ctypes, "CDLL", spy)
        kernels = native.load_kernels(cache)
        assert kernels is not None
        assert loaded == [target.read_bytes()]
        assert len(loaded[0]) > len(good) // 2
        column = numpy.array([2, 1], dtype=numpy.int32)
        rows = numpy.arange(2, dtype=numpy.int64)
        offsets = numpy.array([0, 2], dtype=numpy.int64)
        assert kernels.oc_removal_batch(
            rows, offsets, [(rows.astype(numpy.int32), column)],
            numpy.empty(4, dtype=numpy.int64), None,
        ) == [1]
        assert kernels.ofd_removal_count(
            [column], rows, offsets, numpy.zeros(3, dtype=numpy.int64), None,
        ) == [1]

    @needs_gcc
    def test_two_processes_doing_first_use_at_once_both_load(self, tmp_path):
        cache, go = tmp_path / "cache", tmp_path / "go"
        script = (
            "import sys, time\n"
            "from pathlib import Path\n"
            "from repro.backend import native\n"
            "deadline = time.monotonic() + 30\n"
            "while not Path(sys.argv[2]).exists() and time.monotonic() < deadline:\n"
            "    time.sleep(0.005)\n"
            "print(native.load_kernels(Path(sys.argv[1])) is not None)\n"
        )
        src = str(Path(native.__file__).resolve().parents[2])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            part for part in (src, env.get("PYTHONPATH")) if part
        )
        processes = [
            subprocess.Popen(
                [sys.executable, "-c", script, str(cache), str(go)],
                stdout=subprocess.PIPE, text=True, env=env,
            )
            for _ in range(2)
        ]
        go.touch()
        outputs = [process.communicate(timeout=120)[0].split() for process in processes]
        assert outputs == [["True"], ["True"]]
        # No temporary file is left behind, only the one sealed library.
        assert [p.name for p in cache.iterdir()] == [native.library_path(cache).name]

    def test_group_writable_cache_dir_is_refused(self, tmp_path, caplog):
        cache = tmp_path / "cache"
        cache.mkdir()
        cache.chmod(0o775)
        with caplog.at_level(logging.INFO, logger="repro"):
            assert native.load_kernels(cache) is None
        assert "group- or world-writable" in caplog.text
        assert list(cache.iterdir()) == []

    def test_cache_dir_owned_by_another_user_is_refused(
        self, tmp_path, monkeypatch, caplog
    ):
        cache = tmp_path / "cache"
        cache.mkdir(mode=0o700)
        uid = os.getuid()
        monkeypatch.setattr(native.os, "getuid", lambda: uid + 1)
        with caplog.at_level(logging.INFO, logger="repro"):
            assert native.load_kernels(cache) is None
        assert f"owned by uid {uid}" in caplog.text
        assert list(cache.iterdir()) == []
