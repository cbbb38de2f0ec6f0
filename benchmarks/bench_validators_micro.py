"""Micro-benchmarks of the three AOC validators on a single candidate.

Reproduces the complexity claims of Sections 3.2 and 3.3: validating one
AOC candidate is

* ``O(n)`` for the exact check,
* ``O(n log n)`` for the optimal LNDS-based validator (Algorithm 2), and
* ``O(n log n + ε·n²)`` for the iterative validator (Algorithm 1),

so the iterative validator's per-candidate cost explodes with the input
size while the optimal validator stays within a small factor of the exact
check.  The workload is a planted-AOC table whose approximation factor is
exactly the 10% default threshold, i.e. the regime where the iterative
validator does maximal work.
"""

import pytest

from repro.dataset.generators import generate_planted_oc_table
from repro.dependencies.oc import CanonicalOC
from repro.validation.approx_oc_iterative import validate_aoc_iterative
from repro.validation.approx_oc_optimal import validate_aoc_optimal
from repro.validation.exact_oc import validate_exact_oc

SIZES = [1_000, 4_000, 16_000]
ITERATIVE_SIZES = [1_000, 4_000]  # quadratic: keep the largest size out
BACKENDS = ["python", "numpy"]

RESULTS = {"exact": {}, "optimal": {}, "iterative": {}}
# backend -> {num_rows: seconds}; "cold" includes encoding + partitioning,
# which is where the columnar backend's vectorisation pays off the most.
BACKEND_COLD = {name: {} for name in BACKENDS}
BACKEND_EXACT = {name: {} for name in BACKENDS}


def _workload(num_rows):
    workload = generate_planted_oc_table(num_rows, approximation_factor=0.1, seed=13)
    (planted,) = workload.planted_ocs
    return workload.relation, CanonicalOC(planted.context, planted.a, planted.b)


@pytest.mark.parametrize("num_rows", SIZES)
def test_exact_validator(benchmark, num_rows):
    relation, oc = _workload(num_rows)
    relation.encoded()  # encoding cost is shared by all validators; exclude it
    result = benchmark(lambda: validate_exact_oc(relation, oc))
    RESULTS["exact"][num_rows] = benchmark.stats.stats.mean
    assert not result.is_valid  # the planted table has violations


@pytest.mark.parametrize("num_rows", SIZES)
def test_optimal_validator(benchmark, num_rows):
    relation, oc = _workload(num_rows)
    relation.encoded()
    result = benchmark(lambda: validate_aoc_optimal(relation, oc, threshold=0.1))
    RESULTS["optimal"][num_rows] = benchmark.stats.stats.mean
    assert result.is_valid
    assert result.removal_size == round(0.1 * num_rows)


@pytest.mark.parametrize("num_rows", ITERATIVE_SIZES)
def test_iterative_validator(benchmark, num_rows):
    relation, oc = _workload(num_rows)
    relation.encoded()
    result = benchmark.pedantic(
        lambda: validate_aoc_iterative(relation, oc, threshold=0.1),
        rounds=1,
        iterations=1,
    )
    RESULTS["iterative"][num_rows] = benchmark.stats.stats.mean
    # The greedy removal set is at least as large as the minimal one; at this
    # threshold it may or may not stay within budget — record either way.
    assert result.removal_size >= round(0.1 * num_rows) or result.exceeded_threshold


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("num_rows", SIZES)
def test_optimal_validator_backends_cold(benchmark, backend, num_rows):
    """End-to-end single-candidate validation: encoding + partitions + LNDS.

    This is what one `repro-discover` CLI invocation pays per candidate on a
    cold relation, and the regime where the columnar backend's vectorised
    encoding and partition construction dominate.
    """
    source, oc = _workload(num_rows)

    def cold_validate():
        # A fresh Relation over the same columns: drops the per-backend
        # encoding cache so the run pays encode + partition + validate, but
        # excludes the synthetic data generation itself.
        relation = source.project(source.attribute_names)
        return validate_aoc_optimal(relation, oc, threshold=0.1, backend=backend)

    result = benchmark.pedantic(cold_validate, rounds=5, iterations=1)
    BACKEND_COLD[backend][num_rows] = benchmark.stats.stats.mean
    assert result.is_valid
    assert result.removal_size == round(0.1 * num_rows)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("num_rows", SIZES)
def test_exact_validator_backends_warm(benchmark, backend, num_rows):
    """Exact OC check per backend with the encoding pre-built (kernel only)."""
    relation, oc = _workload(num_rows)
    relation.encoded(backend)
    result = benchmark(lambda: validate_exact_oc(relation, oc, backend=backend))
    BACKEND_EXACT[backend][num_rows] = benchmark.stats.stats.mean
    assert not result.is_valid


@pytest.fixture(scope="module", autouse=True)
def _render(figure_report):
    yield
    _render_backend_comparison(figure_report)
    sizes = [s for s in SIZES if s in RESULTS["optimal"]]
    if not sizes:
        return
    figure_report(
        "Single-candidate AOC validation cost (Sections 3.2 / 3.3)",
        "tuples",
        sizes,
        {
            "exact check (s)": [RESULTS["exact"].get(s, float("nan")) for s in sizes],
            "Algorithm 2 optimal (s)": [
                RESULTS["optimal"].get(s, float("nan")) for s in sizes
            ],
            "Algorithm 1 iterative (s)": [
                RESULTS["iterative"].get(s, float("nan")) for s in sizes
            ],
        },
        notes=[
            "iterative is omitted at the largest size (quadratic cost)",
            "paper claim: optimal stays near the exact check; iterative grows "
            "quadratically once removals start",
        ],
    )


def _render_backend_comparison(figure_report):
    """Side-by-side backend figure with explicit speedup ratios."""
    from benchlib.reporting import speedup_series

    for title, results in (
        ("cold end-to-end AOC validation (encode + partition + LNDS)",
         BACKEND_COLD),
        ("warm exact OC check (kernel only)", BACKEND_EXACT),
    ):
        sizes = [s for s in SIZES
                 if s in results["python"] and s in results["numpy"]]
        if not sizes:
            continue
        python_series = [results["python"][s] for s in sizes]
        numpy_series = [results["numpy"][s] for s in sizes]
        ratios = speedup_series(python_series, numpy_series)
        figure_report(
            f"Compute backends — {title}",
            "tuples",
            sizes,
            {
                "python backend (s)": python_series,
                "numpy backend (s)": numpy_series,
                "speedup (python/numpy)": ratios,
            },
            notes=[
                "both backends produce byte-identical ValidationResults "
                "(enforced by tests/backend/test_differential.py)",
                "the numpy backend should win at >=10k tuples; the ratio "
                "column is the claimed speedup",
            ],
        )
