"""The batch-kernel and differential suites again, on the NumPy fallback.

``test_batch_kernels.py`` and ``test_differential.py`` run on whichever
kernels this host loaded: the native ones wherever ``gcc`` works.  This
module collects their tests a second time with the native library forced
to ``None``, so the pure-NumPy OC and ``g3`` paths that hosts without a
compiler run stay identical to the reference too.  (``TestLndsOracle``'s
hypothesis tests stay out: hypothesis refuses one test run from two
executors.)
"""

import random

import pytest

numpy = pytest.importorskip("numpy")

from repro.backend import get_backend, native  # noqa: E402
from test_batch_kernels import (  # noqa: E402,F401 - collected again here
    TestExactHoldsBatch,
    TestOcCountBatch,
    TestOfdRemovalBatch,
)
from test_differential import (  # noqa: E402,F401 - collected again here
    test_discovery_results_identical,
    test_validators_identical_on_all_candidate_pairs,
    test_validators_identical_with_contexts,
)


@pytest.fixture(autouse=True, scope="module")
def numpy_oc_kernels():
    """Force the NumPy kernels for every test collected here."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(native, "kernels", lambda: None)
        yield


def test_the_numpy_kernels_are_active():
    assert get_backend("numpy").oc_kernel_name == "numpy"


def test_the_ofd_batch_runs_on_the_numpy_fallback(monkeypatch):
    """With the library forced to ``None`` the ``g3`` batch never reaches a
    native entry point: its one sort over every RHS gives the counts."""
    sorts = []
    real_sort = numpy.sort

    def spy(*args, **kwargs):
        sorts.append(args[0].size)
        return real_sort(*args, **kwargs)

    monkeypatch.setattr(numpy, "sort", spy)
    rng = random.Random(8)
    classes = [list(range(i, i + 5)) for i in range(0, 50, 5)]
    rhs = [[rng.randrange(3) for _ in range(50)] for _ in range(3)]
    backend = get_backend("numpy")
    expected = [
        (len(rows), exceeded)
        for rows, exceeded in (
            get_backend("python").ofd_removal_rows(classes, ranks, 4)
            for ranks in rhs
        )
    ]
    assert backend.ofd_removal_batch(
        classes, [backend.to_native(ranks) for ranks in rhs], 4
    ) == expected
    assert sorts == [3 * 50]


def test_the_dirty_class_bound_skips_the_lnds_pass(monkeypatch):
    """Every dirty class removes at least one row, so a pair with more dirty
    classes than ``limit`` is exceeded before the LNDS pass; only pairs
    within the bound reach ``_segmented_lnds_counts``."""
    backend = get_backend("numpy")
    owners = []
    real = type(backend)._segmented_lnds_counts

    def spy(self, seg_values, seg_lengths, seg_owners, *args):
        owners.append(sorted(set(seg_owners.tolist())))
        return real(self, seg_values, seg_lengths, seg_owners, *args)

    monkeypatch.setattr(type(backend), "_segmented_lnds_counts", spy)
    classes = [[0, 1], [2, 3], [4, 5]]
    a = backend.to_native([0, 1] * 3)
    all_dirty = backend.to_native([1, 0] * 3)
    one_dirty = backend.to_native([1, 0, 0, 1, 0, 1])
    assert backend.oc_optimal_removal_count_batch(
        classes, [(a, all_dirty)], 0
    ) == [(1, True)]
    assert backend.oc_optimal_removal_count_batch(
        classes, [(a, all_dirty)], 2
    ) == [(3, True)]
    assert owners == []
    assert backend.oc_optimal_removal_count_batch(
        classes, [(a, all_dirty), (a, one_dirty)], 1
    ) == [(2, True), (1, False)]
    assert owners == [[1]]
    assert backend.oc_optimal_removal_count_batch(
        classes, [(a, all_dirty)], 3
    ) == [(3, False)]
    assert owners == [[1], [0]]
