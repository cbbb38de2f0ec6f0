"""The native OC kernel: exact parity with the reference, and a safe loader.

Parity here is stronger than the batch-kernel contract in
``repro.backend.base``: the native count *and* its early-exit partial equal
the python backend's class-by-class ``optimal_removal_count``.  The loader
tests show that no compiler, a damaged cached library, concurrent first use
and an unsafe cache directory each end in a working NumPy backend, never in
loading a library that could be wrong.
"""

import ctypes
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

numpy = pytest.importorskip("numpy")

from repro.backend import native  # noqa: E402 - imports numpy

NUMPY = get_backend("numpy")
KERNEL = native.oc_kernel()
needs_kernel = pytest.mark.skipif(
    KERNEL is None, reason="the native OC kernel is unavailable on this host"
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
            NUMPY.oc_optimal_removal_count(classes, x, y, limit)
            for x, y in native_pairs
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


@pytest.fixture(scope="module")
def flight_2k():
    relation = generate_flight_like(
        2000, num_attributes=6, error_rate=0.08, seed=3
    ).relation
    return relation, discover_aods(relation, threshold=0.1, backend="python")


def _signature(result):
    return json.dumps([
        [found.to_dict() for found in result.ocs],
        [found.to_dict() for found in result.ofds],
    ])


@pytest.mark.parametrize("kernel", ["native", "numpy"])
def test_discovery_is_byte_identical_on_both_kernels(kernel, flight_2k, monkeypatch):
    if kernel == "numpy":
        monkeypatch.setattr(native, "oc_kernel", lambda: None)
    elif KERNEL is None:
        pytest.skip("the native OC kernel is unavailable on this host")
    assert NUMPY.oc_kernel_name == kernel
    relation, reference = flight_2k
    result = discover_aods(relation, threshold=0.1, backend="numpy")
    assert _signature(result) == _signature(reference)


class TestBinding:
    @needs_kernel
    def test_rejects_wrong_dtype_layout_and_sizes(self):
        values = numpy.array([3, 1, 2], dtype=numpy.int64)
        offsets = numpy.array([0, 3], dtype=numpy.int64)
        tails = numpy.empty(3, dtype=numpy.int64)
        assert KERNEL(values, offsets, tails, None) == 1
        assert KERNEL(values, offsets, tails, 0) == 1
        with pytest.raises(ctypes.ArgumentError):
            KERNEL(values.astype(numpy.int32), offsets, tails, None)
        with pytest.raises(ctypes.ArgumentError):
            KERNEL(numpy.arange(6, dtype=numpy.int64)[::2], offsets, tails, None)
        with pytest.raises(ValueError):
            KERNEL(values, numpy.array([0, 4], dtype=numpy.int64), tails, None)
        with pytest.raises(ValueError):
            KERNEL(values, offsets, tails[:2], None)


class TestLoader:
    def test_without_a_compiler_the_numpy_path_runs(
        self, tmp_path, monkeypatch, caplog
    ):
        monkeypatch.setenv("PATH", str(tmp_path / "no-bin"))
        with caplog.at_level(logging.INFO, logger="repro"):
            handle = native.load_oc_kernel(tmp_path / "cache")
        assert handle is None
        assert [(r.name, r.levelno) for r in caplog.records] == [
            ("repro.backend", logging.INFO)
        ]
        assert list((tmp_path / "cache").iterdir()) == []
        monkeypatch.setattr(native, "oc_kernel", lambda: handle)
        assert NUMPY.oc_kernel_name == "numpy"
        rng = random.Random(11)
        classes, a, b = _columns([
            [(rng.randrange(5), rng.randrange(5)) for _ in range(rng.randrange(1, 40))]
            for _ in range(30)
        ])
        assert NUMPY.oc_optimal_removal_count_batch(
            classes, [(NUMPY.to_native(a), NUMPY.to_native(b))], None
        ) == [optimal_removal_count(classes, a, b)]

    @needs_gcc
    def test_damaged_library_is_rebuilt_not_loaded(self, tmp_path, monkeypatch):
        assert native.load_oc_kernel(tmp_path / "first") is not None
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
        kernel = native.load_oc_kernel(cache)
        assert kernel is not None
        assert loaded == [target.read_bytes()]
        assert len(loaded[0]) > len(good) // 2
        values = numpy.array([2, 1], dtype=numpy.int64)
        offsets = numpy.array([0, 2], dtype=numpy.int64)
        assert kernel(values, offsets, numpy.empty(2, dtype=numpy.int64), None) == 1

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
            "print(native.load_oc_kernel(Path(sys.argv[1])) is not None)\n"
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
            assert native.load_oc_kernel(cache) is None
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
            assert native.load_oc_kernel(cache) is None
        assert f"owned by uid {uid}" in caplog.text
        assert list(cache.iterdir()) == []
