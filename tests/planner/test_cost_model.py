"""Unit tests for the planner's cost model.

The model's job is ranking, not forecasting, so the properties under test
are the orderings the planner relies on:

* ``recommend_workers`` is nondecreasing in the host's core count — more
  cores never make parallelism look *less* profitable;
* tiny levels always plan in-process — the dispatch floor dominates;
* a 1-core host always degrades to serial (parallel there is serial plus
  overhead, never a strict win) — the measured w4 ≈ 0.52x inversion.
"""

import pytest

from repro.backend import available_backends
from repro.planner import CostModel, cost_units
from repro.planner.model import (
    INLINE_PAYOFF_RATIO,
    MIN_DISPATCH_OVERHEAD_SECONDS,
    MIN_KERNEL_UNIT_SECONDS,
    SHARD_PAYOFF_RATIO,
)


def _model(cpu_count, kernel=1e-7, dispatch=1e-3):
    return CostModel(
        cpu_count=cpu_count,
        kernel_unit_seconds=kernel,
        dispatch_overhead_seconds=dispatch,
    )


def test_cost_units_monotone_in_class_size():
    sizes = [0, 1, 2, 10, 100, 10_000]
    costs = [cost_units(m) for m in sizes]
    assert costs == sorted(costs)
    assert cost_units(0) == 0.0
    # m * (1 + bit_length(m)): the pool's shard-balancing measure.
    assert cost_units(100) == 100 * (1 + (100).bit_length())


@pytest.mark.parametrize("units", [1e3, 1e6, 1e9])
@pytest.mark.parametrize("max_workers", [2, 4, 8])
def test_recommend_workers_nondecreasing_in_cores(units, max_workers):
    recommendations = [
        _model(cores).recommend_workers(units, max_workers)
        for cores in (1, 2, 4, 8, 16)
    ]
    assert recommendations == sorted(recommendations)


def test_one_core_host_always_serial():
    model = _model(1)
    for units in (1.0, 1e4, 1e8, 1e12):
        assert model.recommend_workers(units, 8) == 1
    # Parallel on one core is serial plus dispatch: strictly worse.
    assert model.predict_parallel_seconds(1e6, 4) \
        > model.predict_serial_seconds(1e6)


def test_tiny_levels_stay_in_process_regardless_of_cores():
    for cores in (2, 8, 64):
        model = _model(cores)
        # A level far below one dispatch overhead's worth of compute.
        tiny = 0.01 * model.dispatch_overhead_seconds \
            / model.kernel_unit_seconds
        assert model.recommend_workers(tiny, 8) == 1


def test_large_levels_use_workers_on_multicore():
    model = _model(8, kernel=1e-6, dispatch=1e-4)
    huge = 1e9
    workers = model.recommend_workers(huge, 8)
    assert workers > 1
    assert model.predict_parallel_seconds(huge, workers) \
        < model.predict_serial_seconds(huge)


def test_effective_workers_caps_at_core_count():
    model = _model(2)
    assert model.effective_workers(1) == 1
    assert model.effective_workers(2) == 2
    assert model.effective_workers(16) == 2


def test_floors_scale_with_dispatch_to_kernel_ratio():
    model = _model(4, kernel=1e-7, dispatch=1e-3)
    assert model.min_shard_cost() == int(SHARD_PAYOFF_RATIO * 1e-3 / 1e-7)
    assert model.inline_group_cost() == int(INLINE_PAYOFF_RATIO * 1e-3 / 1e-7)
    # A slower dispatch raises both floors.
    slower = _model(4, kernel=1e-7, dispatch=1e-2)
    assert slower.min_shard_cost() > model.min_shard_cost()
    assert slower.inline_group_cost() > model.inline_group_cost()


def test_calibration_clamps_degenerate_probes():
    model = CostModel(
        cpu_count=0, kernel_unit_seconds=0.0, dispatch_overhead_seconds=0.0
    )
    assert model.cpu_count == 1
    assert model.kernel_unit_seconds == MIN_KERNEL_UNIT_SECONDS
    assert model.dispatch_overhead_seconds == MIN_DISPATCH_OVERHEAD_SECONDS


def test_observe_serial_refines_kernel_estimate():
    model = _model(4, kernel=1e-7)
    # Observed throughput 10x slower than calibrated: estimate must move
    # towards the observation without jumping all the way (EWMA).
    model.observe_serial(1e6, seconds=1.0)
    assert 1e-7 < model.kernel_unit_seconds < 1e-6
    # Degenerate observations are ignored.
    before = model.kernel_unit_seconds
    model.observe_serial(0, seconds=1.0)
    model.observe_serial(1e6, seconds=0.0)
    assert model.kernel_unit_seconds == before


def test_observe_parallel_refines_dispatch_estimate():
    model = _model(4, kernel=1e-7, dispatch=1e-3)
    units = 10 * model.min_shard_cost()
    # A pooled level that took far longer than compute alone: the residual
    # lands in the dispatch estimate.
    model.observe_parallel(units, seconds=5.0, num_workers=4)
    assert model.dispatch_overhead_seconds > 1e-3


def test_observe_validation_share_adjusts_overhead_factor():
    model = _model(4)
    assert model.overhead_factor == 1.0
    model.observe_validation_share(0.5)  # validation is half the level
    assert model.overhead_factor > 1.0
    before = model.overhead_factor
    model.observe_validation_share(None)
    model.observe_validation_share(0.0)
    model.observe_validation_share(1.5)
    assert model.overhead_factor == before


def test_as_dict_is_json_ready():
    import json

    payload = _model(4).as_dict()
    json.dumps(payload)
    for key in (
        "cpu_count", "backend", "kernel_unit_seconds",
        "dispatch_overhead_seconds", "overhead_factor",
        "min_shard_cost", "inline_group_cost", "backend_unit_seconds",
    ):
        assert key in payload


@pytest.mark.parametrize("backend", available_backends())
def test_dispatch_probe_round_trips_through_fresh_planes(backend):
    """Every probe repetition ships its columns to a worker and back; the
    probe's planes are released, so no column stays resident."""
    from repro.planner.calibrate import PROBE_REPEATS, probe_dispatch_overhead
    from repro.validation.distributed import ShardedValidationPool

    with ShardedValidationPool(1, backend=backend) as pool:
        assert probe_dispatch_overhead(pool) > 0
        assert pool.stats["jobs"] == PROBE_REPEATS
        assert pool.stats["inline_groups"] == 0
        assert pool.stats["columns_shipped"] == 2 * PROBE_REPEATS
        assert all(not worker.columns for worker in pool._workers)
