"""Ablation benches for the framework's design choices.

Two switches are ablated on the same workload:

* **node deletion** (`prune_exhausted_nodes`) — the FASTOD/TANE-style rule
  that drops lattice nodes whose candidate sets emptied out; turning it off
  makes the search exhaustive over the full 2^|R| lattice,
* **aggressive OFD pruning** (`aggressive_ofd_pruning`) — TANE's
  right-hand-side rule fired by exactly-held OFDs.

Reported for each configuration: discovery runtime, number of candidates
validated and number of dependencies found (the ablations must not change
*what* is found on this workload, only how much work it takes).
"""

import pytest

from benchlib.workloads import WorkloadSpec, make_workload
from repro.discovery.config import DiscoveryRequest
from repro.discovery.engine import DiscoveryEngine

NUM_ROWS = 800
NUM_ATTRIBUTES = 12
THRESHOLD = 0.10

OUTCOMES = {}


def _relation():
    # The ncvoter-like workload has several exactly-held FDs (county and
    # municipality hierarchies), which is what the OFD-driven pruning rules
    # feed on — the ablation is invisible on workloads without them.
    return make_workload(
        WorkloadSpec("ncvoter", NUM_ROWS, NUM_ATTRIBUTES, error_rate=0.08)
    ).relation


@pytest.mark.parametrize(
    "label, node_pruning, ofd_pruning",
    [
        ("full pruning (default)", True, True),
        ("no node deletion", False, True),
        ("no aggressive OFD pruning", True, False),
        ("no pruning at all", False, False),
    ],
)
def test_pruning_ablation(benchmark, label, node_pruning, ofd_pruning):
    relation = _relation()
    request = DiscoveryRequest.approximate(
        threshold=THRESHOLD,
        prune_exhausted_nodes=node_pruning,
        aggressive_ofd_pruning=ofd_pruning,
    )
    result = benchmark.pedantic(
        lambda: DiscoveryEngine(relation, request).run(), rounds=1, iterations=1
    )
    OUTCOMES[label] = {
        "seconds": result.stats.total_seconds,
        "oc_candidates": result.stats.oc_candidates_validated,
        "ofd_candidates": result.stats.ofd_candidates_validated,
        "dependencies": result.num_dependencies,
    }
    assert result.num_dependencies > 0
    # Pruning must never change what is discovered, only how much work it takes.
    baseline = OUTCOMES.get("full pruning (default)")
    if baseline is not None:
        assert OUTCOMES[label]["dependencies"] == baseline["dependencies"]


@pytest.fixture(scope="module", autouse=True)
def _render(figure_report):
    yield
    labels = list(OUTCOMES)
    if not labels:
        return
    figure_report(
        f"Ablation — pruning rules of the discovery framework "
        f"(ncvoter-like, {NUM_ROWS} tuples, {NUM_ATTRIBUTES} attributes, "
        f"eps={THRESHOLD:.0%})",
        "configuration",
        labels,
        {
            "discovery time (s)": [OUTCOMES[l]["seconds"] for l in labels],
        },
        annotations={
            "#OC candidates validated": [OUTCOMES[l]["oc_candidates"] for l in labels],
            "#OFD candidates validated": [
                OUTCOMES[l]["ofd_candidates"] for l in labels
            ],
            "#dependencies found": [OUTCOMES[l]["dependencies"] for l in labels],
        },
        notes=[
            "node deletion and OFD pruning trade a small bookkeeping cost for "
            "fewer validated candidates; both are required to reach the "
            "paper's scalability",
        ],
    )
