"""Exp-1 / Figure 2 — discovery scalability in the number of tuples.

The paper runs OD discovery (exact), AOD discovery with the optimal
validator and AOD discovery with the iterative validator on growing prefixes
of ``flight`` (200K-1M tuples) and ``ncvoter`` (100K-5M tuples), 10
attributes, ε = 10%.  The iterative series fails to finish within 24 hours
beyond 400K / 1M tuples and is projected.

Here the same three series are produced on scaled-down synthetic stand-ins
(hundreds to thousands of tuples — pure Python is orders of magnitude slower
per tuple than the paper's Java implementation); the iterative runs are
capped by a wall-clock budget and projected quadratically beyond it, exactly
as the paper projects its missing points.  The expected shape: OD and
AOD(optimal) grow gently and stay close to each other; AOD(iterative) is
orders of magnitude slower and/or hits the cap.
"""

import pytest

from benchlib.harness import measure_discovery
from benchlib.reporting import projected_quadratic_runtime
from benchlib.workloads import WorkloadSpec, make_workload

THRESHOLD = 0.10
NUM_ATTRIBUTES = 10
SIZES = {
    "flight": [250, 500, 1_000, 2_000],
    "ncvoter": [250, 500, 1_000, 2_000],
}
#: Wall-clock cap standing in for the paper's 24-hour limit.
ITERATIVE_BUDGET_SECONDS = 20.0
#: Largest size the iterative mode is actually run at; larger points are
#: projected quadratically (as the paper projects its flight curve).
ITERATIVE_MAX_ROWS = 500

RESULTS = {}   # (dataset, mode) -> {num_rows: seconds}
COUNTS = {}    # (dataset, mode) -> {num_rows: #OCs}
PROJECTED = {}  # (dataset, num_rows) -> projected iterative seconds


def _relation(dataset, num_rows):
    spec = WorkloadSpec(dataset, num_rows, NUM_ATTRIBUTES, error_rate=0.08)
    return make_workload(spec).relation


def _record(dataset, mode, num_rows, measurement):
    RESULTS.setdefault((dataset, mode), {})[num_rows] = measurement.seconds
    COUNTS.setdefault((dataset, mode), {})[num_rows] = measurement.num_ocs


@pytest.mark.parametrize("dataset", sorted(SIZES))
@pytest.mark.parametrize("num_rows", [250, 500, 1_000, 2_000])
def test_exact_od_discovery(benchmark, dataset, num_rows):
    relation = _relation(dataset, num_rows)
    measurement = benchmark.pedantic(
        lambda: measure_discovery(relation, "od"), rounds=1, iterations=1
    )
    _record(dataset, "od", num_rows, measurement)
    assert not measurement.timed_out


@pytest.mark.parametrize("dataset", sorted(SIZES))
@pytest.mark.parametrize("num_rows", [250, 500, 1_000, 2_000])
def test_aod_optimal_discovery(benchmark, dataset, num_rows):
    relation = _relation(dataset, num_rows)
    measurement = benchmark.pedantic(
        lambda: measure_discovery(relation, "aod-optimal", threshold=THRESHOLD),
        rounds=1,
        iterations=1,
    )
    _record(dataset, "aod-optimal", num_rows, measurement)
    assert not measurement.timed_out
    assert measurement.num_ocs > 0


@pytest.mark.parametrize("dataset", sorted(SIZES))
@pytest.mark.parametrize("num_rows", [250, 500])
def test_aod_iterative_discovery(benchmark, dataset, num_rows):
    relation = _relation(dataset, num_rows)
    measurement = benchmark.pedantic(
        lambda: measure_discovery(
            relation,
            "aod-iterative",
            threshold=THRESHOLD,
            time_limit_seconds=ITERATIVE_BUDGET_SECONDS,
        ),
        rounds=1,
        iterations=1,
    )
    _record(dataset, "aod-iterative", num_rows, measurement)


@pytest.fixture(scope="module", autouse=True)
def _render(figure_report):
    yield
    for dataset, sizes in SIZES.items():
        od = RESULTS.get((dataset, "od"), {})
        optimal = RESULTS.get((dataset, "aod-optimal"), {})
        iterative = dict(RESULTS.get((dataset, "aod-iterative"), {}))
        if not od or not optimal:
            continue
        # Project the iterative series beyond the sizes it was actually run
        # at, mirroring the paper's projection of its >24h points.
        base_rows = max(iterative) if iterative else None
        for num_rows in sizes:
            if num_rows not in iterative and base_rows is not None:
                iterative[num_rows] = projected_quadratic_runtime(
                    iterative[base_rows], base_rows, num_rows
                )
        figure_report(
            f"Exp-1 / Figure 2 — scalability in |r| ({dataset}-like, "
            f"{NUM_ATTRIBUTES} attributes, eps={THRESHOLD:.0%})",
            "tuples",
            sizes,
            {
                "OD (s)": [od.get(s, float("nan")) for s in sizes],
                "AOD optimal (s)": [optimal.get(s, float("nan")) for s in sizes],
                "AOD iterative (s, *=projected)": [
                    iterative.get(s, float("nan")) for s in sizes
                ],
            },
            annotations={
                "#OCs (OD)": [
                    COUNTS.get((dataset, "od"), {}).get(s, "-") for s in sizes
                ],
                "#AOCs (optimal)": [
                    COUNTS.get((dataset, "aod-optimal"), {}).get(s, "-") for s in sizes
                ],
            },
            notes=[
                f"iterative measured up to {ITERATIVE_MAX_ROWS} rows, larger "
                "points projected quadratically (the paper projects its >24h points)",
                "paper shape: OD and AOD(optimal) stay within a small factor of "
                "each other; AOD(iterative) is orders of magnitude slower",
            ],
        )
