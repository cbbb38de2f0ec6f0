"""Exp-6 — discovered AOCs compared to exact OCs (quality / generality).

The paper's final experiment is qualitative: the exact algorithm cannot
report dependencies broken by even a single dirty value, while AOD discovery
surfaces them — e.g. ``originAirport ~ IATACode`` (8% factor) on flight and
``streetAddress ~ mailAddress`` (18%) on ncvoter — and those AOCs rank at
the top of the interestingness ordering.

The synthetic workloads plant exactly such dependencies with known dirty
rows, so this bench checks, per dataset:

* the exact run misses every planted dependency,
* the approximate run (ε = 10%) finds them,
* they appear in the top of the interestingness ranking,
* overall dependency counts for both runs (the numbers annotated on
  Figures 2/3).
"""

import pytest

from benchlib.workloads import WorkloadSpec, make_workload
from repro.discovery.api import discover_aods, discover_ods

NUM_ROWS = 1_000
NUM_ATTRIBUTES = 10
ERROR_RATE = 0.06
THRESHOLD = 0.10

OUTCOMES = {}


@pytest.mark.parametrize("dataset", ["flight", "ncvoter"])
def test_exact_vs_approximate_discovery(benchmark, dataset):
    workload = make_workload(
        WorkloadSpec(dataset, NUM_ROWS, NUM_ATTRIBUTES, error_rate=ERROR_RATE)
    )
    relation = workload.relation

    def run_both():
        exact = discover_ods(relation)
        approx = discover_aods(relation, threshold=THRESHOLD)
        return exact, approx

    exact, approx = benchmark.pedantic(run_both, rounds=1, iterations=1)

    planted_found_exact = 0
    planted_found_approx = 0
    top_ranked = 0
    ranking = [found.oc for found in approx.ranked_ocs(10)]
    for planted in workload.planted_ocs:
        if exact.find_oc(planted.a, planted.b, planted.context) is not None:
            planted_found_exact += 1
        found = approx.find_oc(planted.a, planted.b, planted.context)
        if found is not None:
            planted_found_approx += 1
            if found.oc in ranking:
                top_ranked += 1
    OUTCOMES[dataset] = {
        "planted": len(workload.planted_ocs),
        "found_exact": planted_found_exact,
        "found_approx": planted_found_approx,
        "top_ranked": top_ranked,
        "ocs_exact": exact.num_ocs,
        "ocs_approx": approx.num_ocs,
    }
    # The paper's core qualitative claim: dirty dependencies are invisible to
    # exact discovery but recovered by approximate discovery.
    assert planted_found_exact == 0
    assert planted_found_approx == len(workload.planted_ocs)


@pytest.fixture(scope="module", autouse=True)
def _render(figure_report):
    yield
    datasets = [d for d in ("flight", "ncvoter") if d in OUTCOMES]
    if not datasets:
        return
    figure_report(
        f"Exp-6 — planted dirty dependencies recovered by AOD discovery "
        f"({NUM_ROWS} tuples, error rate {ERROR_RATE:.0%}, eps={THRESHOLD:.0%})",
        "dataset",
        datasets,
        {
            "planted AOCs": [float(OUTCOMES[d]["planted"]) for d in datasets],
            "recovered by exact OD discovery": [
                float(OUTCOMES[d]["found_exact"]) for d in datasets
            ],
            "recovered by AOD discovery": [
                float(OUTCOMES[d]["found_approx"]) for d in datasets
            ],
            "in top-10 interestingness": [
                float(OUTCOMES[d]["top_ranked"]) for d in datasets
            ],
        },
        annotations={
            "#OCs (exact)": [OUTCOMES[d]["ocs_exact"] for d in datasets],
            "#AOCs (eps=10%)": [OUTCOMES[d]["ocs_approx"] for d in datasets],
        },
        notes=[
            "paper: exact discovery misses dependencies broken by even one "
            "dirty value; AOD discovery reports them and ranks them highly "
            "(originAirport ~ IATACode at 8%, streetAddress ~ mailAddress at 18%)",
        ],
    )
