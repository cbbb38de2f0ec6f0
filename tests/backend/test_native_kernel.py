"""The native kernels: exact parity with the reference, and a safe loader.

Parity here is stronger than the batch-kernel contract in
``repro.backend.base``: each native count *and* its early-exit partial
equal the python backend's class-by-class reference (``optimal_removal_count``
for OCs, ``len`` of ``aofd_removal_rows`` for OFDs).  The binding tests
show that inputs which do not fit their arrays raise instead of reaching
memory out of bounds.  The loader tests show that no compiler, a damaged
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


def _ofd_columns(class_values):
    """Classes of consecutive rows plus their RHS rank column, from one
    value list per class."""
    classes, ranks = [], []
    for values in class_values:
        classes.append(list(range(len(ranks), len(ranks) + len(values))))
        ranks.extend(values)
    return classes, ranks


def _native_ofd(classes, ranks, limit, freq=None):
    """The native ``g3`` entry called directly on ``classes``."""
    rows = numpy.array([row for cls in classes for row in cls], dtype=numpy.int64)
    offsets = numpy.cumsum([0] + [len(cls) for cls in classes], dtype=numpy.int64)
    column = numpy.array(ranks, dtype=numpy.int32)
    if freq is None:
        freq = numpy.zeros(max(ranks, default=0) + 1, dtype=numpy.int64)
    return KERNELS.ofd_removal_count(column, rows, offsets, freq, limit)


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
        kernel = KERNELS.oc_removal_count
        values = numpy.array([3, 1, 2], dtype=numpy.int64)
        offsets = numpy.array([0, 3], dtype=numpy.int64)
        tails = numpy.empty(3, dtype=numpy.int64)
        assert kernel(values, offsets, tails, None) == 1
        assert kernel(values, offsets, tails, 0) == 1
        with pytest.raises(ctypes.ArgumentError):
            kernel(values.astype(numpy.int32), offsets, tails, None)
        with pytest.raises(ctypes.ArgumentError):
            kernel(numpy.arange(6, dtype=numpy.int64)[::2], offsets, tails, None)
        with pytest.raises(ValueError):
            kernel(values, numpy.array([0, 4], dtype=numpy.int64), tails, None)
        with pytest.raises(ValueError):
            kernel(values, offsets, tails[:2], None)

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
        assert KERNELS.ofd_removal_count(ranks, rows, offsets, freq, None) == 2
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
            KERNELS.ofd_removal_count(ranks, rows, offsets, freq, None)
        assert buffer[0] == buffer[-1] == 7
        assert not freq.any()

    @needs_kernel
    def test_ofd_rejects_wrong_dtype_and_layout(self):
        ranks = numpy.array([1, 1, 0], dtype=numpy.int32)
        rows = numpy.arange(3, dtype=numpy.int64)
        offsets = numpy.array([0, 3], dtype=numpy.int64)
        freq = numpy.zeros(4, dtype=numpy.int64)
        assert KERNELS.ofd_removal_count(ranks, rows, offsets, freq, 0) == 1
        with pytest.raises(ctypes.ArgumentError):
            KERNELS.ofd_removal_count(
                ranks.astype(numpy.int64), rows, offsets, freq, None
            )
        with pytest.raises(ctypes.ArgumentError):
            KERNELS.ofd_removal_count(
                ranks, numpy.arange(6, dtype=numpy.int64)[::2], offsets, freq,
                None,
            )
        freq.flags.writeable = False
        with pytest.raises(ctypes.ArgumentError):
            KERNELS.ofd_removal_count(ranks, rows, offsets, freq, None)


    @needs_kernel
    @pytest.mark.parametrize("case", [
        "repeated-row", "row-past-rows", "negative-row", "short-order",
        "class-id-at-num-classes", "class-id-below-minus-one",
        "offsets-below-bucket", "offsets-above-bucket", "offsets-past-out",
        "no-offsets", "short-values", "order-dtype", "class-map-dtype",
        "values-dtype", "strided-order", "read-only-class-map",
    ])
    def test_scatter_inputs_that_do_not_fit_raise(self, case):
        """Each bad input to the sorted-partition scatter raises
        ``ValueError``.  ``out`` sits between two guard slots in one buffer,
        so a write out of bounds would change a guard, and the class map
        is left as it was."""
        order = numpy.array([4, 1, 3, 0, 2, 5], dtype=numpy.int32)
        class_of = numpy.array([0, 1, 0, -1, 1, 0], dtype=numpy.int32)
        offsets = numpy.array([0, 3, 5], dtype=numpy.int64)
        values = numpy.array([9, 8, 7, 6, 5, 4], dtype=numpy.int32)
        buffer = numpy.full(offsets[-1] + 2, 77, dtype=numpy.int64)
        out = buffer[1:-1]
        scatter = KERNELS.scatter_classes
        assert scatter(class_of, offsets, out, [order]) == [0]
        assert out.tolist() == [0, 2, 5, 4, 1]
        assert scatter(class_of, offsets, out, [order], [values]) == [0]
        assert out.tolist() == [9, 7, 4, 5, 8]
        tails = numpy.empty(3, dtype=numpy.int64)
        assert scatter(class_of, offsets, out, [order], [values], tails) == [2]
        if case == "repeated-row":
            order[3] = 4
        elif case == "row-past-rows":
            order[1] = order.size
        elif case == "negative-row":
            order[0] = -1
        elif case == "short-order":
            order = order[:-1]
        elif case == "class-id-at-num-classes":
            class_of[3] = offsets.size - 1
        elif case == "class-id-below-minus-one":
            class_of[3] = -2
        elif case == "offsets-below-bucket":
            offsets[1] = 2
        elif case == "offsets-above-bucket":
            offsets[1] = 4
        elif case == "offsets-past-out":
            offsets[2] = out.size + 1
        elif case == "no-offsets":
            offsets = offsets[:0]
        elif case == "short-values":
            values = values[:-1]
        elif case == "order-dtype":
            order = order.astype(numpy.int64)
        elif case == "class-map-dtype":
            class_of = class_of.astype(numpy.int64)
        elif case == "values-dtype":
            values = values.astype(numpy.int64)
        elif case == "strided-order":
            order = numpy.repeat(order, 2)[::2]
        else:
            class_of.flags.writeable = False
        before = class_of.copy()
        with pytest.raises(ValueError):
            scatter(class_of, offsets, out, [order], [values], tails)
        assert buffer[0] == buffer[-1] == 77
        assert class_of.tolist() == before.tolist()


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
        values = numpy.array([2, 1], dtype=numpy.int64)
        offsets = numpy.array([0, 2], dtype=numpy.int64)
        assert kernels.oc_removal_count(
            values, offsets, numpy.empty(2, dtype=numpy.int64), None
        ) == 1
        assert kernels.ofd_removal_count(
            numpy.array([2, 1], dtype=numpy.int32), numpy.arange(2),
            offsets, numpy.zeros(3, dtype=numpy.int64), None,
        ) == 1

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
