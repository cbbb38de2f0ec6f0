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
