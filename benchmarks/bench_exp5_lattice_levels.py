"""Exp-5 / Figure 5 — lattice level of discovered OCs vs AOCs and the
runtime effect of earlier pruning.

The paper shows (ncvoter, 5M tuples, 10 attributes) that approximate OCs
concentrate at lower lattice levels than exact OCs — the average level drops
from 5.6 to 4.3 — and that, because dependencies found earlier prune more of
the lattice, AOD discovery can be up to 34% (tuples experiment) / 76%
(attributes experiment) *faster* than exact OD discovery despite the more
expensive per-candidate validation.

Scaled-down reproduction: ncvoter-like and flight-like tables, histogram of
discovered OCs/AOCs per level plus the OD-vs-AOD runtime ratio.
"""

import pytest

from benchlib.harness import measure_discovery
from benchlib.workloads import WorkloadSpec, make_workload

NUM_ROWS = 1_500
NUM_ATTRIBUTES = 10
THRESHOLD = 0.10

MEASUREMENTS = {}


@pytest.mark.parametrize("dataset", ["flight", "ncvoter"])
@pytest.mark.parametrize("mode", ["od", "aod-optimal"])
def test_discovery_for_level_histogram(benchmark, dataset, mode):
    workload = make_workload(
        WorkloadSpec(dataset, NUM_ROWS, NUM_ATTRIBUTES, error_rate=0.08)
    )
    measurement = benchmark.pedantic(
        lambda: measure_discovery(workload.relation, mode, threshold=THRESHOLD),
        rounds=1,
        iterations=1,
    )
    MEASUREMENTS[(dataset, mode)] = measurement
    assert measurement.num_ocs > 0


@pytest.fixture(scope="module", autouse=True)
def _render(figure_report):
    yield
    for dataset in ("flight", "ncvoter"):
        exact = MEASUREMENTS.get((dataset, "od"))
        approx = MEASUREMENTS.get((dataset, "aod-optimal"))
        if exact is None or approx is None:
            continue
        exact_levels = exact.result.ocs_per_level()
        approx_levels = approx.result.ocs_per_level()
        levels = sorted(set(exact_levels) | set(approx_levels))
        exact_avg = exact.result.average_oc_level()
        approx_avg = approx.result.average_oc_level()
        speedup = exact.seconds / approx.seconds if approx.seconds else float("inf")
        figure_report(
            f"Exp-5 / Figure 5 — discovered OCs/AOCs per lattice level "
            f"({dataset}-like, {NUM_ROWS} tuples, {NUM_ATTRIBUTES} attributes)",
            "lattice level",
            levels,
            {
                "#OCs (exact)": [float(exact_levels.get(l, 0)) for l in levels],
                "#AOCs (eps=10%)": [float(approx_levels.get(l, 0)) for l in levels],
            },
            notes=[
                f"average lattice level: exact {exact_avg:.2f} vs approximate "
                f"{approx_avg:.2f} (paper: 5.6 -> 4.3 on ncvoter-5M)",
                f"OD runtime / AOD runtime = {speedup:.2f} "
                "(paper: AOD up to 34%/76% faster thanks to earlier pruning; "
                "on small scaled-down inputs the per-candidate overhead of the "
                "approximate validator can still dominate)",
            ],
        )
        # The headline claim of Exp-5: approximate OCs live at lower levels.
        if exact_avg and approx_avg:
            assert approx_avg <= exact_avg + 0.5
