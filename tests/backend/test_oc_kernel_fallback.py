"""The batch-kernel and differential suites again, without the native library.

``test_batch_kernels.py`` and ``test_differential.py`` run on whichever
kernels this host loaded: the native ones wherever ``gcc`` works.  This
module collects their tests a second time with the native library forced
to ``None``, so the NumPy backend that hosts without a compiler run — the
reference loops for both count batches, lexsort refinements — stays
identical to the python backend too.  (``TestLndsOracle``'s hypothesis
tests stay out: hypothesis refuses one test run from two executors.)
"""

import random

import pytest
from test_batch_kernels import (  # noqa: F401 - collected again here
    TestExactHoldsBatch,
    TestOcCountBatch,
    TestOfdRemovalBatch,
    test_discover_extend_discover_equals_a_cold_python_run,
    test_sorted_partitions_match_the_python_backend,
    test_the_branch_sides_take_their_paths,
)
from test_differential import (  # noqa: F401 - collected again here
    test_discovery_results_identical,
    test_validators_identical_on_all_candidate_pairs,
    test_validators_identical_with_contexts,
)

from repro.backend import get_backend, native


@pytest.fixture(autouse=True, scope="module")
def without_native_kernels():
    """Force the no-compiler path for every test collected here."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(native, "kernels", lambda: None)
        yield


def test_the_numpy_kernels_are_active():
    """Without the library the reference loops count, and say so."""
    assert get_backend("numpy").oc_kernel_name == "python"


def test_both_batches_reach_the_reference_loops(monkeypatch):
    """Both NumPy count batches run the reference loops
    ``optimal_removal_count`` and ``aofd_removal_rows``, once per
    candidate, and return the python backend's results, the partials of
    exceeded candidates included."""
    from repro.validation import approx_oc_optimal, approx_ofd

    calls = []

    def spy(module, name):
        real = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    spy(approx_oc_optimal, "optimal_removal_count")
    spy(approx_ofd, "aofd_removal_rows")
    rng = random.Random(8)
    classes = [list(range(i, i + 5)) for i in range(0, 50, 5)]
    columns = [[rng.randrange(3) for _ in range(50)] for _ in range(3)]
    pairs = [(columns[0], columns[1]), (columns[1], columns[2])]
    python, backend = get_backend("python"), get_backend("numpy")
    for limit in (None, 0, 4):
        expected = (
            python.oc_optimal_removal_count_batch(classes, pairs, limit),
            python.ofd_removal_batch(classes, columns, limit),
        )
        assert any(over for _, over in expected[0] + expected[1]) \
            == (limit is not None)
        del calls[:]
        got = (
            backend.oc_optimal_removal_count_batch(classes, [
                (backend.to_native(a), backend.to_native(b)) for a, b in pairs
            ], limit),
            backend.ofd_removal_batch(
                classes, [backend.to_native(c) for c in columns], limit
            ),
        )
        assert got == expected
        assert calls == ["optimal_removal_count"] * len(pairs) \
            + ["aofd_removal_rows"] * len(columns)
