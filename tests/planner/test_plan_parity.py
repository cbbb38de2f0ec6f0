"""The planner must be invisible in results: ``plan="auto"`` vs
``plan="fixed"`` is byte-identical on every backend and every execution
shape the planner can steer (batched in-process, pooled pipelined via a
session, incremental extend → revalidate).

Only wall-clock and the planner's own bookkeeping (``plan_mode``,
``planner_decisions``, scheduling timers) may differ.
"""

import pytest

from repro.backend import available_backends
from repro.dataset.generators import generate_flight_like
from repro.discovery.api import discover
from repro.discovery.config import DiscoveryConfig, DiscoveryRequest
from repro.discovery.session import Profiler

BACKENDS = available_backends()

#: Search-shape counters that planning must not perturb (scheduling
#: timers, ``plan_mode`` and ``planner_decisions`` are the only
#: legitimate differences between a fixed and an auto run).
COUNTER_FIELDS = (
    "oc_candidates_validated", "ofd_candidates_validated",
    "oc_candidates_pruned", "ofd_candidates_pruned",
    "nodes_processed", "nodes_pruned", "levels_processed",
    "nodes_per_level", "timed_out", "cancelled",
)


def _relation():
    return generate_flight_like(
        300, num_attributes=6, error_rate=0.1, seed=3
    ).relation


RELATION = _relation()


def _assert_identical(auto, fixed):
    assert auto.ocs == fixed.ocs
    assert auto.ofds == fixed.ofds
    for name in COUNTER_FIELDS:
        assert getattr(auto.stats, name) == getattr(fixed.stats, name), name
    assert auto.stats.plan_mode == "auto"
    assert fixed.stats.plan_mode == "fixed"


@pytest.mark.parametrize("backend", BACKENDS)
def test_auto_plan_matches_fixed_batched(backend):
    fixed = discover(
        RELATION, DiscoveryConfig(threshold=0.1, backend=backend)
    )
    auto = discover(
        RELATION, DiscoveryConfig(threshold=0.1, backend=backend, plan="auto")
    )
    _assert_identical(auto, fixed)
    assert auto.stats.planner_decisions


@pytest.mark.parametrize("backend", BACKENDS)
def test_auto_plan_matches_fixed_pooled_pipelined(backend):
    fixed = discover(
        RELATION,
        DiscoveryConfig(
            threshold=0.1, backend=backend, num_workers=2,
        ),
    )
    auto = discover(
        RELATION,
        DiscoveryConfig(
            threshold=0.1, backend=backend, num_workers=2, plan="auto",
        ),
    )
    _assert_identical(auto, fixed)
    assert auto.stats.planner_decisions


@pytest.mark.parametrize("backend", BACKENDS)
def test_auto_plan_matches_fixed_in_session(backend):
    request_fixed = DiscoveryRequest(threshold=0.1)
    request_auto = DiscoveryRequest(threshold=0.1, plan="auto")
    with Profiler(RELATION, backend=backend, num_workers=2) as session:
        fixed = session.discover(request_fixed)
        auto = session.discover(request_auto)
        again = session.discover(request_auto)
    _assert_identical(auto, fixed)
    # A warm planner (second auto run) must not change results either.
    assert again.ocs == fixed.ocs and again.ofds == fixed.ofds


@pytest.mark.parametrize("backend", BACKENDS)
def test_auto_plan_matches_fixed_incremental_extend(backend):
    base = generate_flight_like(
        250, num_attributes=6, error_rate=0.1, seed=3
    ).relation
    donor = generate_flight_like(
        280, num_attributes=6, error_rate=0.2, seed=17
    ).relation
    batch = [donor.row(i) for i in range(250, 280)]

    def _run(plan):
        request = DiscoveryRequest(threshold=0.1, plan=plan)
        with Profiler(base, backend=backend, num_workers=2) as session:
            session.discover(request)
            session.extend(batch)
            return session.discover_incremental(request)

    fixed = _run("fixed")
    auto = _run("auto")
    assert auto.result.ocs == fixed.result.ocs
    assert auto.result.ofds == fixed.result.ofds
    assert auto.result.stats.plan_mode == "auto"


def test_unknown_plan_mode_rejected():
    with pytest.raises(ValueError, match="plan"):
        DiscoveryConfig(threshold=0.1, plan="psychic")
