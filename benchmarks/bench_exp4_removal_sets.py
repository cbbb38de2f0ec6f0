"""Exp-4 — removal-set sizes and AOCs missed by the iterative validator.

The paper reports that the iterative algorithm's removal sets are on average
about 1% larger than the true minimum, and that overestimating the
approximation factor makes it miss up to 2% of the valid AOCs (e.g.
``arrivalDelay ~ lateAircraftDelay`` with a true factor of 9.5% estimated as
10.5% and therefore rejected at the 10% threshold).

This bench validates every level-2 OC candidate of the two synthetic
workloads with both algorithms and reports:

* the mean relative removal-set inflation of the greedy validator,
* the number and fraction of AOCs valid under the optimal validator but
  rejected by the greedy one at the 10% threshold.
"""

from itertools import combinations

import pytest

from benchlib.harness import compare_validators_on_candidates
from benchlib.workloads import WorkloadSpec, make_workload
from repro.dependencies.oc import CanonicalOC

NUM_ROWS = 1_000
NUM_ATTRIBUTES = 10
THRESHOLD = 0.10

SUMMARIES = {}


def _candidates(relation):
    return [
        CanonicalOC((), a, b)
        for a, b in combinations(relation.attribute_names, 2)
    ]


@pytest.mark.parametrize("dataset", ["flight", "ncvoter"])
def test_removal_set_comparison(benchmark, dataset):
    workload = make_workload(
        WorkloadSpec(dataset, NUM_ROWS, NUM_ATTRIBUTES, error_rate=0.08)
    )
    relation = workload.relation
    candidates = _candidates(relation)
    summary = benchmark.pedantic(
        lambda: compare_validators_on_candidates(relation, candidates, THRESHOLD),
        rounds=1,
        iterations=1,
    )
    SUMMARIES[dataset] = summary
    # The greedy validator never produces a smaller removal set.
    assert all(c.iterative_removal >= c.optimal_removal for c in summary.comparisons)


@pytest.fixture(scope="module", autouse=True)
def _render(figure_report):
    yield
    datasets = [d for d in ("flight", "ncvoter") if d in SUMMARIES]
    if not datasets:
        return
    rows = []
    mean_overestimates = []
    missed_counts = []
    valid_counts = []
    for dataset in datasets:
        summary = SUMMARIES[dataset]
        valid = sum(
            1 for c in summary.comparisons if c.optimal_factor <= THRESHOLD
        )
        missed = summary.missed_by_iterative()
        mean_overestimates.append(summary.mean_relative_overestimate)
        missed_counts.append(len(missed))
        valid_counts.append(valid)
    figure_report(
        f"Exp-4 — removal sets and AOCs missed by the iterative validator "
        f"({NUM_ROWS} tuples, level-2 candidates, eps={THRESHOLD:.0%})",
        "dataset",
        datasets,
        {
            "mean relative removal-set inflation": mean_overestimates,
        },
        annotations={
            "#valid AOCs (optimal)": valid_counts,
            "#missed by iterative": missed_counts,
        },
        notes=[
            "paper: removal sets ~1% larger on average; up to 2% of valid AOCs "
            "missed near the threshold",
            "candidates whose true factor is just below eps and whose greedy "
            "estimate lands above it are the ones lost",
        ],
    )
