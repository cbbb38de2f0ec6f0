"""Exp-2 / Figure 3 — discovery scalability in the number of attributes.

The paper fixes 1K tuples and grows the schema in steps of five attributes
(up to 35 for flight, 30 for ncvoter); runtime grows exponentially because
the number of candidate ODs does (the Y-axis of Figure 3 is logarithmic).
The AOD(optimal) and OD series stay close — with the approximate runs
sometimes *faster* thanks to earlier pruning — while AOD(iterative) is about
an order of magnitude slower.

Scaled-down reproduction: 300 tuples, 4-12 attributes (the exponential
growth is already unmistakable there), same three series.
"""

import pytest

from benchlib.harness import measure_discovery
from benchlib.workloads import WorkloadSpec, make_workload

NUM_ROWS = 300
THRESHOLD = 0.10
ATTRIBUTE_COUNTS = [4, 6, 8, 10, 12]
ITERATIVE_ATTRIBUTE_COUNTS = [4, 6, 8]
TIME_BUDGET_SECONDS = 60.0

RESULTS = {}
COUNTS = {}


def _relation(dataset, num_attributes):
    spec = WorkloadSpec(dataset, NUM_ROWS, num_attributes, error_rate=0.08)
    return make_workload(spec).relation


def _record(dataset, mode, num_attributes, measurement):
    RESULTS.setdefault((dataset, mode), {})[num_attributes] = measurement.seconds
    COUNTS.setdefault((dataset, mode), {})[num_attributes] = measurement.num_ocs


@pytest.mark.parametrize("dataset", ["flight", "ncvoter"])
@pytest.mark.parametrize("num_attributes", ATTRIBUTE_COUNTS)
def test_exact_od_discovery(benchmark, dataset, num_attributes):
    relation = _relation(dataset, num_attributes)
    measurement = benchmark.pedantic(
        lambda: measure_discovery(
            relation, "od", time_limit_seconds=TIME_BUDGET_SECONDS
        ),
        rounds=1,
        iterations=1,
    )
    _record(dataset, "od", num_attributes, measurement)


@pytest.mark.parametrize("dataset", ["flight", "ncvoter"])
@pytest.mark.parametrize("num_attributes", ATTRIBUTE_COUNTS)
def test_aod_optimal_discovery(benchmark, dataset, num_attributes):
    relation = _relation(dataset, num_attributes)
    measurement = benchmark.pedantic(
        lambda: measure_discovery(
            relation,
            "aod-optimal",
            threshold=THRESHOLD,
            time_limit_seconds=TIME_BUDGET_SECONDS,
        ),
        rounds=1,
        iterations=1,
    )
    _record(dataset, "aod-optimal", num_attributes, measurement)


@pytest.mark.parametrize("dataset", ["flight", "ncvoter"])
@pytest.mark.parametrize("num_attributes", ITERATIVE_ATTRIBUTE_COUNTS)
def test_aod_iterative_discovery(benchmark, dataset, num_attributes):
    relation = _relation(dataset, num_attributes)
    measurement = benchmark.pedantic(
        lambda: measure_discovery(
            relation,
            "aod-iterative",
            threshold=THRESHOLD,
            time_limit_seconds=TIME_BUDGET_SECONDS,
        ),
        rounds=1,
        iterations=1,
    )
    _record(dataset, "aod-iterative", num_attributes, measurement)


@pytest.fixture(scope="module", autouse=True)
def _render(figure_report):
    yield
    for dataset in ("flight", "ncvoter"):
        od = RESULTS.get((dataset, "od"), {})
        optimal = RESULTS.get((dataset, "aod-optimal"), {})
        iterative = RESULTS.get((dataset, "aod-iterative"), {})
        if not od:
            continue
        figure_report(
            f"Exp-2 / Figure 3 — scalability in |R| ({dataset}-like, "
            f"{NUM_ROWS} tuples, eps={THRESHOLD:.0%})",
            "attributes",
            ATTRIBUTE_COUNTS,
            {
                "OD (s)": [od.get(a, float("nan")) for a in ATTRIBUTE_COUNTS],
                "AOD optimal (s)": [
                    optimal.get(a, float("nan")) for a in ATTRIBUTE_COUNTS
                ],
                "AOD iterative (s)": [
                    iterative.get(a, float("nan")) for a in ATTRIBUTE_COUNTS
                ],
            },
            annotations={
                "#OCs (OD)": [
                    COUNTS.get((dataset, "od"), {}).get(a, "-")
                    for a in ATTRIBUTE_COUNTS
                ],
                "#AOCs (optimal)": [
                    COUNTS.get((dataset, "aod-optimal"), {}).get(a, "-")
                    for a in ATTRIBUTE_COUNTS
                ],
            },
            notes=[
                "runtime grows exponentially with the schema width "
                "(log-scale Y axis in the paper's Figure 3)",
                "paper shape: OD and AOD(optimal) close, AOD(iterative) about "
                "an order of magnitude slower at equal width",
            ],
        )
