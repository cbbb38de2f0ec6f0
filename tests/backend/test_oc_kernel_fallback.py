"""The batch-kernel and differential suites again, on the NumPy fallback.

``test_batch_kernels.py`` and ``test_differential.py`` run on whichever OC
kernel this host loaded: the native one wherever ``gcc`` works.  This
module collects their tests a second time with the native handle forced to
``None``, so the pure-NumPy path that hosts without a compiler run stays
identical to the reference too.  (``TestLndsOracle``'s hypothesis tests
stay out: hypothesis refuses one test run from two executors.)
"""

import pytest

pytest.importorskip("numpy")

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
    """Force the NumPy OC kernels for every test collected here."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(native, "oc_kernel", lambda: None)
        yield


def test_the_numpy_kernels_are_active():
    assert get_backend("numpy").oc_kernel_name == "numpy"
