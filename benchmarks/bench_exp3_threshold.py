"""Exp-3 / Figure 4 — effect of the approximation threshold.

The paper uses 10K-tuple prefixes, 10 attributes and thresholds 0-25%
(plus 30% in the raw data): the optimal validator's total discovery time is
flat in the threshold (it even drops occasionally thanks to better pruning),
while the iterative validator's grows almost linearly, matching the
``O(n log n)`` vs ``O(n log n + ε·n²)`` analysis.

Exp-3 also reports that with the iterative validator up to 99.6% of the
discovery runtime goes into validation, and that the LNDS-based validator
cuts time spent validating AOCs by up to 99.8%; the second table below
reproduces those shares from the engine's phase timers.

Scaled-down reproduction: 1 000 tuples, 8 attributes, same threshold sweep.
"""

import pytest

from benchlib.harness import measure_discovery
from benchlib.workloads import WorkloadSpec, make_workload

NUM_ROWS = 1_000
NUM_ATTRIBUTES = 8
THRESHOLDS = [0.0, 0.05, 0.10, 0.15, 0.20, 0.25]
TIME_BUDGET_SECONDS = 120.0

RESULTS = {}
SHARES = {}
COUNTS = {}


def _relation(dataset):
    spec = WorkloadSpec(dataset, NUM_ROWS, NUM_ATTRIBUTES, error_rate=0.08)
    return make_workload(spec).relation


@pytest.mark.parametrize("dataset", ["flight", "ncvoter"])
@pytest.mark.parametrize("threshold", THRESHOLDS)
def test_aod_optimal_vs_threshold(benchmark, dataset, threshold):
    relation = _relation(dataset)
    measurement = benchmark.pedantic(
        lambda: measure_discovery(relation, "aod-optimal", threshold=threshold),
        rounds=1,
        iterations=1,
    )
    RESULTS.setdefault((dataset, "optimal"), {})[threshold] = measurement.seconds
    SHARES.setdefault((dataset, "optimal"), {})[threshold] = measurement.validation_share
    COUNTS.setdefault((dataset, "optimal"), {})[threshold] = measurement.num_ocs


@pytest.mark.parametrize("dataset", ["flight", "ncvoter"])
@pytest.mark.parametrize("threshold", THRESHOLDS)
def test_aod_iterative_vs_threshold(benchmark, dataset, threshold):
    relation = _relation(dataset)
    measurement = benchmark.pedantic(
        lambda: measure_discovery(
            relation,
            "aod-iterative",
            threshold=threshold,
            time_limit_seconds=TIME_BUDGET_SECONDS,
        ),
        rounds=1,
        iterations=1,
    )
    RESULTS.setdefault((dataset, "iterative"), {})[threshold] = measurement.seconds
    SHARES.setdefault((dataset, "iterative"), {})[threshold] = measurement.validation_share
    COUNTS.setdefault((dataset, "iterative"), {})[threshold] = measurement.num_ocs


@pytest.fixture(scope="module", autouse=True)
def _render(figure_report):
    yield
    labels = [f"{t:.0%}" for t in THRESHOLDS]
    for dataset in ("flight", "ncvoter"):
        optimal = RESULTS.get((dataset, "optimal"), {})
        iterative = RESULTS.get((dataset, "iterative"), {})
        if not optimal:
            continue
        figure_report(
            f"Exp-3 / Figure 4 — effect of the approximation threshold "
            f"({dataset}-like, {NUM_ROWS} tuples, {NUM_ATTRIBUTES} attributes)",
            "threshold",
            labels,
            {
                "AOD optimal (s)": [optimal.get(t, float("nan")) for t in THRESHOLDS],
                "AOD iterative (s)": [
                    iterative.get(t, float("nan")) for t in THRESHOLDS
                ],
            },
            annotations={
                "#AOCs (optimal)": [
                    COUNTS.get((dataset, "optimal"), {}).get(t, "-") for t in THRESHOLDS
                ],
                "#AOCs (iterative)": [
                    COUNTS.get((dataset, "iterative"), {}).get(t, "-")
                    for t in THRESHOLDS
                ],
            },
            notes=[
                "paper shape: the optimal series is flat in the threshold; the "
                "iterative series grows roughly linearly with it",
            ],
        )
        figure_report(
            f"Exp-3 (text) — share of runtime spent validating candidates "
            f"({dataset}-like)",
            "threshold",
            labels,
            {
                "optimal validation share": [
                    SHARES.get((dataset, "optimal"), {}).get(t, float("nan"))
                    for t in THRESHOLDS
                ],
                "iterative validation share": [
                    SHARES.get((dataset, "iterative"), {}).get(t, float("nan"))
                    for t in THRESHOLDS
                ],
            },
            notes=[
                "paper: with the iterative validator up to 99.6% of the runtime "
                "is validation; the optimal validator removes that bottleneck",
            ],
        )
