"""Planner-engine integration: injected cost models force each decision
branch deterministically, regardless of the host the tests run on.

* a 1-core model must degrade a ``num_workers=4`` run to in-process —
  including vetoing the pool spawn itself (the run-scope record);
* a many-core model with cheap dispatch must keep the pool and plan
  workers for the real levels;
* either way the results are byte-identical to the fixed plan.
"""

import pytest

from repro.backend import available_backends
from repro.dataset.generators import generate_flight_like
from repro.discovery.api import discover
from repro.discovery.config import DiscoveryConfig, DiscoveryRequest
from repro.discovery.engine import DiscoveryEngine
from repro.discovery.session import Profiler
from repro.planner import (
    CostModel,
    ExecutionPlanner,
    build_planner,
    calibrate,
    preferred_backend,
    probe_kernel_unit_seconds,
)

BACKENDS = available_backends()

RELATION = generate_flight_like(
    300, num_attributes=6, error_rate=0.1, seed=3
).relation


def _forced_planner(cpu_count, kernel=1e-7, dispatch=1e-3, max_workers=4):
    model = CostModel(
        cpu_count=cpu_count,
        kernel_unit_seconds=kernel,
        dispatch_overhead_seconds=dispatch,
    )
    return ExecutionPlanner(model, max_workers=max_workers)


def test_one_core_inversion_degrades_run_to_in_process():
    """The measured 1-core inversion (w4 ≈ 0.52x of w1): with a 1-core
    model the engine must not even spawn its pool, and every level must
    plan in-process."""
    fixed = discover(RELATION, DiscoveryConfig(threshold=0.1))
    config = DiscoveryConfig(threshold=0.1, num_workers=4, plan="auto")
    engine = DiscoveryEngine(RELATION, config, planner=_forced_planner(1))
    result = engine.run()

    assert result.ocs == fixed.ocs and result.ofds == fixed.ofds
    decisions = result.stats.planner_decisions
    assert decisions
    assert decisions[0].get("scope") == "run"
    assert "pool not spawned" in decisions[0]["reason"]
    assert all(not d["use_workers"] for d in decisions)


def test_many_core_cheap_dispatch_plans_workers():
    """A model where parallelism clearly pays must keep the pool and put
    the real levels on workers — and still match the fixed result."""
    fixed = discover(RELATION, DiscoveryConfig(threshold=0.1, num_workers=2))
    config = DiscoveryConfig(threshold=0.1, num_workers=2, plan="auto")
    planner = _forced_planner(
        8, kernel=1e-4, dispatch=1e-4, max_workers=2
    )
    engine = DiscoveryEngine(RELATION, config, planner=planner)
    result = engine.run()

    assert result.ocs == fixed.ocs and result.ofds == fixed.ofds
    level_plans = [
        d for d in result.stats.planner_decisions if d.get("scope") != "run"
    ]
    assert level_plans
    assert any(d["use_workers"] for d in level_plans)
    # Observed levels feed back into the model (predicted vs actual).
    assert all("actual_seconds" in d for d in level_plans)


def test_planner_decisions_carry_floors_and_predictions():
    config = DiscoveryConfig(threshold=0.1, plan="auto")
    engine = DiscoveryEngine(RELATION, config, planner=_forced_planner(1))
    result = engine.run()
    for decision in result.stats.planner_decisions:
        if decision.get("scope") == "run":
            continue
        assert decision["min_shard_cost"] >= 1
        assert decision["inline_group_cost"] >= 1
        assert decision["predicted_seconds"] >= 0.0
        assert decision["reason"]


def test_fixed_plan_never_builds_a_planner():
    engine = DiscoveryEngine(RELATION, DiscoveryConfig(threshold=0.1))
    result = engine.run()
    assert engine._planner is None
    assert result.stats.plan_mode == "fixed"
    assert result.stats.planner_decisions == []


@pytest.mark.parametrize("backend", BACKENDS)
def test_calibration_probes_are_positive_and_cached(backend):
    first = probe_kernel_unit_seconds(backend)
    second = probe_kernel_unit_seconds(backend)
    assert first > 0
    assert second == first  # process-lifetime cache

    model = calibrate(backend=backend)
    assert model.backend == str(backend)
    assert model.cpu_count >= 1
    assert model.kernel_unit_seconds > 0
    assert model.dispatch_overhead_seconds > 0
    assert preferred_backend(model) in model.backend_unit_seconds


def test_session_planner_info_is_the_healthz_block():
    with Profiler(RELATION) as session:
        assert session.planner_info() is None
        session.discover(DiscoveryRequest(threshold=0.1, plan="auto"))
        info = session.planner_info()
    assert info is not None
    assert info["model"]["cpu_count"] >= 1
    assert info["levels_planned"] > 0
    assert info["runs_observed"] == 1
    assert info["decisions"]
    assert info["calibration_age_seconds"] >= 0.0
    # The block must be JSON-serialisable as served by /healthz.
    import json

    json.dumps(info)


def test_build_planner_accepts_prebuilt_model():
    model = CostModel(
        cpu_count=2, kernel_unit_seconds=1e-7,
        dispatch_overhead_seconds=1e-3,
    )
    planner = build_planner(max_workers=3, model=model)
    assert planner.model is model
    assert planner.max_workers == 3
