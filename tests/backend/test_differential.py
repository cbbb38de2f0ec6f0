"""Differential tests: both backends must produce identical results.

The acceptance bar for the backend abstraction is byte-identical
``ValidationResult``s and ``DiscoveryResult``s: the same discovered
OFDs/OCs with the same removal counts, approximation factors and
interestingness scores, in the same order.  These tests run the same
workloads — the paper's Table 1 and generated flight/ncvoter/planted
datasets — through full discovery under every backend and compare, plus
randomised LNDS parity checks against the brute-force quadratic oracle.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.dataset.examples import employee_salary_table, tiny_numeric_table
from repro.dataset.generators import (
    generate_flight_like,
    generate_ncvoter_like,
    generate_planted_oc_table,
)
from repro.dependencies import CanonicalOC, CanonicalOD, OFD
from repro.discovery.api import discover
from repro.discovery.config import DiscoveryRequest
from repro.validation.approx_oc_iterative import validate_aoc_iterative
from repro.validation.approx_oc_optimal import validate_aoc_optimal
from repro.validation.approx_od import validate_aod_optimal
from repro.validation.approx_ofd import validate_aofd
from repro.validation.exact_oc import validate_exact_oc
from repro.validation.lnds import lnds_indices, lnds_length_quadratic

BACKENDS = ("python", "numpy")


def _workloads():
    return {
        "table1": employee_salary_table(),
        "tiny": tiny_numeric_table(),
        "flight": generate_flight_like(
            300, num_attributes=7, error_rate=0.1, seed=5
        ).relation,
        "ncvoter": generate_ncvoter_like(
            300, num_attributes=7, error_rate=0.1, seed=5
        ).relation,
        "planted": generate_planted_oc_table(200, approximation_factor=0.1, seed=11).relation,
    }


WORKLOADS = _workloads()

CONFIGS = {
    "exact": dict(threshold=0.0, validator="exact"),
    "optimal-10": dict(threshold=0.1, validator="optimal"),
    "optimal-30": dict(threshold=0.3, validator="optimal"),
    "iterative-10": dict(threshold=0.1, validator="iterative", max_level=3),
    # Exact OFD checks beside a non-exact OC tag (greedy at limit 0).
    "iterative-0": dict(threshold=0.0, validator="iterative"),
}


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_discovery_results_identical(workload, config_name):
    relation = WORKLOADS[workload]
    results = {}
    for backend in BACKENDS:
        request = DiscoveryRequest(**CONFIGS[config_name])
        results[backend] = discover(relation, request, backend=backend)
    python_result, numpy_result = results["python"], results["numpy"]
    # DiscoveredOC/DiscoveredOFD are frozen dataclasses: equality covers the
    # statement, removal size, approximation factor, level and score.
    assert numpy_result.ocs == python_result.ocs
    assert numpy_result.ofds == python_result.ofds
    assert numpy_result.ocs_per_level() == python_result.ocs_per_level()
    assert numpy_result.stats.backend == "numpy"
    assert python_result.stats.backend == "python"


def test_validators_identical_on_all_candidate_pairs():
    relation = WORKLOADS["table1"]
    names = relation.attribute_names
    for a in names:
        for b in names:
            if a >= b:
                continue
            for threshold in (None, 0.0, 0.2):
                oc = CanonicalOC([], a, b)
                od = CanonicalOD([], a, b)
                opt = {
                    backend: validate_aoc_optimal(relation, oc, threshold, backend=backend)
                    for backend in BACKENDS
                }
                assert opt["numpy"] == opt["python"]
                assert opt["numpy"].removal_rows == opt["python"].removal_rows
                it = {
                    backend: validate_aoc_iterative(relation, oc, threshold, backend=backend)
                    for backend in BACKENDS
                }
                assert it["numpy"] == it["python"]
                aod = {
                    backend: validate_aod_optimal(relation, od, threshold, backend=backend)
                    for backend in BACKENDS
                }
                assert aod["numpy"] == aod["python"]


def test_validators_identical_with_contexts():
    relation = WORKLOADS["flight"]
    names = relation.attribute_names
    context = [names[0]]
    oc = CanonicalOC(context, names[1], names[2])
    ofd = OFD(context, names[3])
    for threshold in (None, 0.05, 0.5):
        oc_results = [
            validate_aoc_optimal(relation, oc, threshold, backend=backend)
            for backend in BACKENDS
        ]
        assert oc_results[0] == oc_results[1]
        assert oc_results[0].removal_rows == oc_results[1].removal_rows
        ofd_results = [
            validate_aofd(relation, ofd, threshold, backend=backend)
            for backend in BACKENDS
        ]
        assert ofd_results[0] == ofd_results[1]
    exact = [
        validate_exact_oc(relation, oc, backend=backend) for backend in BACKENDS
    ]
    assert exact[0] == exact[1]


class TestLndsOracle:
    """Randomised LNDS parity against the brute-force quadratic oracle."""

    @given(st.lists(st.integers(min_value=0, max_value=9), max_size=40))
    @settings(max_examples=120, deadline=None)
    def test_batched_kernel_matches_oracle(self, values):
        # One class whose [A ASC, B ASC] order is the identity: Algorithm 2's
        # removal size must equal n - LNDS(n) per the quadratic oracle.
        from repro.validation.approx_oc_optimal import optimal_removal_rows

        if len(values) < 2:
            return
        classes = [list(range(len(values)))]
        removal, exceeded = optimal_removal_rows(
            classes, list(range(len(values))), values
        )
        assert not exceeded
        assert len(values) - len(removal) == lnds_length_quadratic(values)
        kept = [v for i, v in enumerate(values) if i not in set(removal)]
        assert all(x <= y for x, y in zip(kept, kept[1:]))
        # and the kernel picks exactly the reference subsequence
        assert sorted(set(range(len(values))) - set(removal)) == lnds_indices(values)

    @given(st.lists(st.integers(min_value=0, max_value=9), max_size=40))
    @settings(max_examples=120, deadline=None)
    def test_count_kernel_matches_oracle(self, values):
        from repro.backend import get_backend

        if len(values) < 2:
            return
        backend = get_backend("numpy")
        classes = [list(range(len(values)))]
        a = backend.to_native(list(range(len(values))))
        b = backend.to_native(values)
        [(count, exceeded)] = backend.oc_optimal_removal_count_batch(
            classes, [(a, b)]
        )
        assert not exceeded
        assert count == len(values) - lnds_length_quadratic(values)
