"""Self-healing pool: killed workers must be invisible in results.

Acceptance bars from the PR-7 issue, driven through the test-only
:class:`~repro.validation.distributed.FaultPlan`:

* killing any worker at randomized points during pooled (memoised or
  one-shot budget) and incremental (post-``extend``) discovery yields
  results byte-identical to the in-process run, with no hang (every test
  carries a wall-clock bound);
* a shard that kills workers twice is quarantined and validated on the
  coordinator;
* a dropped result message is recovered through the per-job timeout;
* repeated respawn failure degrades the pool to in-process execution for
  the rest of the session;
* ``worker_deaths`` / ``respawns`` / ``requeued_shards`` surface on
  ``DiscoveryResult.stats``.
"""

import os
import random
import time

import pytest

from repro.backend import available_backends, get_backend
from repro.dataset.generators import generate_flight_like, generate_planted_oc_table
from repro.discovery.config import DiscoveryConfig, DiscoveryRequest
from repro.discovery.session import Profiler
from repro.validation.distributed import (
    FaultPlan,
    ShardedValidationPool,
    WorkerFault,
    WorkerJobError,
)

from _plane_stub import StubEncoding, stub_plane_counts

BACKENDS = available_backends()

#: No recovery scenario in this file is allowed to take this long — the
#: "no hang" half of the acceptance criterion.
RECOVERY_DEADLINE_SECONDS = 120.0


def _force_dispatch(pool):
    """Disable the in-process small-group shortcut so every group reaches
    the workers (the tests' workloads are tiny by design)."""
    pool.INLINE_GROUP_COST = 0
    pool.MIN_SHARD_COST = 1
    return pool


def _faulty_pool(backend, fault_plan, num_workers=2, worker_timeout=None):
    pool = ShardedValidationPool(
        num_workers, backend=get_backend(backend),
        worker_timeout=worker_timeout, fault_plan=fault_plan,
    )
    return _force_dispatch(pool)


def _simple_workload(backend):
    relation = generate_planted_oc_table(
        300, approximation_factor=0.1, seed=11
    ).relation
    resolved = get_backend(backend)
    encoded = relation.encoded(resolved)
    names = relation.attribute_names
    classes = [
        [i, i + 1, i + 2] for i in range(0, relation.num_rows - 3, 3)
    ]
    pairs = [(names[1], names[2]), (names[2], names[1])]
    expected = resolved.oc_optimal_removal_count_batch(
        classes,
        [
            (encoded.native_ranks(a), encoded.native_ranks(b))
            for a, b in pairs
        ],
        None,
    )
    return encoded, classes, pairs, expected


def _randomized_kill_plan(seed):
    """A deterministic 'randomized point': which worker dies, before or
    after which of its jobs.  Ordinals stay small so the fault always fires
    on the small test workloads."""
    rng = random.Random(seed)
    victim = rng.randrange(2)
    job = rng.randrange(3)
    if rng.random() < 0.5:
        fault = WorkerFault(exit_before_job=job)
    else:
        fault = WorkerFault(exit_after_job=job)
    return FaultPlan(worker_faults={victim: fault})


RELATION = generate_flight_like(
    300, num_attributes=5, error_rate=0.1, seed=3
).relation

_BASELINES = {}


def _baseline(backend):
    """The in-process reference result (cached: it never changes)."""
    if backend not in _BASELINES:
        with Profiler(RELATION, backend=backend, num_workers=1) as session:
            _BASELINES[backend] = session.discover(
                DiscoveryRequest(threshold=0.1)
            )
    return _BASELINES[backend]


# -- differential: kills mid-discovery must not change anything ------------------


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("seed", [1, 2, 5, 9])
@pytest.mark.parametrize("memo", [True, False])
def test_discovery_survives_randomized_worker_kill(backend, seed, memo):
    """Pooled discovery, with the session memo's slack removal budget or
    the one-shot tight one, a worker killed at a randomized point:
    byte-identical results, bounded recovery, counters surfaced."""
    reference = _baseline(backend)
    request = DiscoveryRequest(threshold=0.1)
    plan = _randomized_kill_plan(seed)
    killed_mid_job = any(
        fault.exit_before_job is not None
        for fault in plan.worker_faults.values()
    )
    start = time.monotonic()
    with _faulty_pool(backend, plan) as pool:
        with Profiler(
            RELATION, backend=backend, num_workers=2, shard_pool=pool,
            cache_validations=memo,
        ) as session:
            result = session.discover(request)
        deaths = pool.stats["worker_deaths"]
        respawns = pool.stats["respawns"]
    assert time.monotonic() - start < RECOVERY_DEADLINE_SECONDS
    assert result.ocs == reference.ocs
    assert result.ofds == reference.ofds
    assert deaths >= 1
    assert respawns >= 1
    # The run's own stats carry the recovery counters (acceptance bar).
    assert result.stats.worker_deaths == deaths
    assert result.stats.respawns == respawns
    if killed_mid_job:
        # An exit *before* a job orphans that shard: it must have been
        # recovered (requeued or run inline).  An exit *after* a job can
        # die with an empty plate — nothing to requeue is fine there.
        assert (
            result.stats.requeued_shards + result.stats.inline_fallbacks
            >= 1
        )


@pytest.mark.parametrize("backend", BACKENDS)
def test_incremental_discovery_after_extend_survives_kill(backend):
    """Post-``extend`` incremental revalidation with a worker killed
    mid-run must match a cold in-process discovery over the grown table."""
    base = generate_flight_like(
        260, num_attributes=5, error_rate=0.1, seed=7
    ).relation
    donor = generate_flight_like(
        300, num_attributes=5, error_rate=0.1, seed=13
    ).relation
    delta_rows = [donor.row(i) for i in range(260, 300)]
    request = DiscoveryRequest(threshold=0.1)
    # The baseline run pins num_workers=1, so it never touches the pool:
    # worker 0's job ordinal 0 — the kill point — is guaranteed to happen
    # during the *post-extend* revalidation.
    warm_request = DiscoveryRequest(threshold=0.1, num_workers=1)
    plan = FaultPlan(worker_faults={0: WorkerFault(exit_before_job=0)})
    start = time.monotonic()
    with _faulty_pool(backend, plan) as pool:
        with Profiler(
            base, backend=backend, num_workers=2, shard_pool=pool
        ) as session:
            session.discover(warm_request)
            assert pool.stats["jobs"] == 0
            session.extend(delta_rows)
            incremental = session.discover_incremental(request)
        deaths = pool.stats["worker_deaths"]
    assert time.monotonic() - start < RECOVERY_DEADLINE_SECONDS
    with Profiler(session.relation, backend=backend, num_workers=1) as cold:
        reference = cold.discover(request)
    assert incremental.result.ocs == reference.ocs
    assert incremental.result.ofds == reference.ofds
    assert deaths >= 1


# -- pool-level recovery semantics -----------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
def test_requeued_shards_match_and_count(backend):
    """A worker killed before its first job: the shard requeues to the
    survivor (or the replacement) and the merged counts are unchanged."""
    encoded, classes, pairs, expected = _simple_workload(backend)
    plan = FaultPlan(worker_faults={0: WorkerFault(exit_before_job=0)})
    with _faulty_pool(backend, plan) as pool:
        plane = pool.new_plane(encoded)
        assert plane.harvest(plane.submit(classes, pairs, None)) == expected
        assert pool.stats["worker_deaths"] == 1
        assert pool.stats["respawns"] == 1
        assert pool.stats["requeued_shards"] >= 1
        # The pool stays fully usable afterwards.
        assert plane.harvest(plane.submit(classes, pairs, None)) == expected
        assert pool.stats["worker_deaths"] == 1


def test_killed_workers_with_backed_up_results_do_not_stall_the_pool():
    """Workers SIGKILLed while blocked sending results nobody is reading yet
    (a large result fills the pipe mid-message): their shards recover on
    replacements and every pending group still harvests correctly."""
    import signal
    import threading

    encoded, classes, pairs, _ = _simple_workload("python")
    classes = classes[:4]
    # ~100 KB results: more than a pipe holds, so each worker blocks
    # mid-send on its first job while the groups go unharvested.
    many = pairs * 10_000
    resolved = get_backend("python")
    expected = resolved.oc_optimal_removal_count_batch(
        classes,
        [(encoded.native_ranks(a), encoded.native_ranks(b)) for a, b in many],
        None,
    )
    with _force_dispatch(ShardedValidationPool(2, backend="python")) as pool:
        plane = pool.new_plane(encoded)
        pending = [plane.submit(classes, many, None) for _ in range(3)]
        time.sleep(1.0)
        for worker in list(pool._workers):
            os.kill(worker.process.pid, signal.SIGKILL)
        harvested = []
        harvester = threading.Thread(
            target=lambda: harvested.extend(plane.harvest(p) for p in pending),
            daemon=True,
        )
        harvester.start()
        harvester.join(RECOVERY_DEADLINE_SECONDS)
        assert not harvester.is_alive(), "harvest stalled after the kills"
        assert harvested == [expected] * 3
        assert pool.stats["worker_deaths"] >= 2


def test_poison_shard_quarantined_after_two_deaths():
    """A shard that kills its worker twice runs on the coordinator instead
    of crash-looping: the w0 path, byte-identical results."""
    encoded, classes, pairs, expected = _simple_workload("python")
    plan = FaultPlan(worker_faults={
        0: WorkerFault(exit_before_job=0),
        1: WorkerFault(exit_before_job=0),  # the seq-1 replacement
    })
    events = []
    plan.on_event = lambda event, detail: events.append(event)
    with _faulty_pool("python", plan, num_workers=1) as pool:
        plane = pool.new_plane(encoded)
        assert plane.harvest(plane.submit(classes, pairs, None)) == expected
        assert pool.stats["worker_deaths"] == 2
        assert pool.stats["quarantined_shards"] >= 1
        assert pool.stats["inline_fallbacks"] >= 1
        assert not pool.degraded
        assert "quarantine" in events
        # The seq-2 replacement is healthy; the pool keeps dispatching.
        assert plane.harvest(plane.submit(classes, pairs, None)) == expected


def test_exit_after_job_recovers_on_next_dispatch():
    """A worker that dies *after* flushing its result: the next dispatch's
    exitcode sweep reaps it and later groups run on the replacement."""
    encoded, classes, pairs, expected = _simple_workload("python")
    plan = FaultPlan(worker_faults={0: WorkerFault(exit_after_job=0)})
    with _faulty_pool("python", plan, num_workers=1) as pool:
        plane = pool.new_plane(encoded)
        assert plane.harvest(plane.submit(classes, pairs, None)) == expected
        assert plane.harvest(plane.submit(classes, pairs, None)) == expected
        assert pool.stats["worker_deaths"] == 1
        assert pool.stats["respawns"] == 1


def test_dropped_result_recovered_through_timeout():
    """A worker that computes a job but never sends the result is only
    recoverable through the per-job deadline: the pool retires it as a
    death and the shard reruns elsewhere."""
    encoded, classes, pairs, expected = _simple_workload("python")
    plan = FaultPlan(worker_faults={0: WorkerFault(drop_result_for_job=0)})
    start = time.monotonic()
    with _faulty_pool(
        "python", plan, num_workers=1, worker_timeout=1.0
    ) as pool:
        plane = pool.new_plane(encoded)
        assert plane.harvest(plane.submit(classes, pairs, None)) == expected
        assert pool.stats["worker_timeouts"] >= 1
        assert pool.stats["worker_deaths"] >= 1
    assert time.monotonic() - start < RECOVERY_DEADLINE_SECONDS


def test_repeated_respawn_failure_degrades_to_in_process():
    """When the host refuses new worker processes, the pool flips to
    in-process execution for the rest of the session — same results."""
    encoded, classes, pairs, expected = _simple_workload("python")
    plan = FaultPlan(
        worker_faults={0: WorkerFault(exit_before_job=0)},
        fail_respawns=ShardedValidationPool.MAX_RESPAWN_ATTEMPTS,
    )
    with _faulty_pool("python", plan, num_workers=1) as pool:
        plane = pool.new_plane(encoded)
        assert plane.harvest(plane.submit(classes, pairs, None)) == expected
        assert pool.degraded
        assert pool.stats["worker_deaths"] == 1
        assert pool.stats["respawns"] == 0
        assert pool.stats["inline_fallbacks"] >= 1
        # Degraded mode survives: later groups run on the coordinator.
        assert plane.harvest(plane.submit(classes, pairs, None)) == expected
        snapshot = pool.resilience_stats()
        assert snapshot["degraded"] is True
        assert snapshot["worker_deaths"] == 1


def test_delayed_respawn_still_recovers():
    """A slow respawn (host under pressure) delays but never changes the
    outcome."""
    encoded, classes, pairs, expected = _simple_workload("python")
    plan = FaultPlan(
        worker_faults={0: WorkerFault(exit_before_job=0)},
        respawn_delay_seconds=0.5,
    )
    start = time.monotonic()
    with _faulty_pool("python", plan, num_workers=2) as pool:
        plane = pool.new_plane(encoded)
        assert plane.harvest(plane.submit(classes, pairs, None)) == expected
        assert pool.stats["respawns"] == 1
    assert time.monotonic() - start < RECOVERY_DEADLINE_SECONDS


def test_degraded_session_run_is_byte_identical():
    """An engine run on a pool that degrades mid-run still matches the
    in-process reference end-to-end."""
    reference = _baseline("python")
    plan = FaultPlan(
        worker_faults={0: WorkerFault(exit_before_job=1)},
        fail_respawns=ShardedValidationPool.MAX_RESPAWN_ATTEMPTS,
    )
    with _faulty_pool("python", plan) as pool:
        with Profiler(
            RELATION, backend="python", num_workers=2, shard_pool=pool
        ) as session:
            result = session.discover(DiscoveryRequest(threshold=0.1))
        assert pool.degraded
    assert result.ocs == reference.ocs
    assert result.ofds == reference.ofds
    assert result.stats.worker_deaths >= 1
    assert result.stats.inline_fallbacks >= 1


# -- structured worker errors ----------------------------------------------------


def test_worker_job_error_carries_structured_report():
    """A kernel crash inside a worker surfaces as WorkerJobError with the
    shard context attached (not just a traceback string)."""
    with ShardedValidationPool(1, backend="python",
                               inline_group_cost=0) as pool:
        plane = pool.new_plane(
            StubEncoding(bad=[0, "bad"], a=[0, 1], b=[1, 0])
        )
        with pytest.raises(WorkerJobError, match="validation worker failed") as info:
            plane.harvest(plane.submit(
                [[0, 1]], [("bad", "b")], None
            ))
        error = info.value
        assert error.num_classes == 1
        assert error.num_rows == 2
        assert error.pair_names == [("bad", "b")]
        assert error.plane_id == plane.plane_id
        assert error.dataset_version == plane.version
        assert "Traceback" in error.worker_traceback
        # The pool survives the failure.
        assert plane.harvest(plane.submit(
            [[0, 1]], [("a", "b")], None
        )) == [(1, False)]


def test_inline_fallback_errors_are_structured_too():
    """Quarantined/degraded shards run on the coordinator; their failures
    must raise the same structured error as worker-side ones."""
    plan = FaultPlan(
        worker_faults={0: WorkerFault(exit_before_job=0)},
        fail_respawns=ShardedValidationPool.MAX_RESPAWN_ATTEMPTS,
    )
    with _faulty_pool("python", plan, num_workers=1) as pool:
        with pytest.raises(WorkerJobError, match="validation worker failed"):
            stub_plane_counts(
                pool, {"bad": [0, "bad"], "b": [0, 1]}, [[0, 1]],
                [("bad", "b")],
            )
        assert pool.degraded


# -- worker timeout configuration ------------------------------------------------


def test_worker_timeout_round_trips_through_request():
    request = DiscoveryRequest(threshold=0.1, worker_timeout=30.0)
    assert request.to_config().worker_timeout == 30.0
    rebuilt = DiscoveryRequest.from_json(request.to_json())
    assert rebuilt == request
    assert DiscoveryRequest.from_config(
        DiscoveryConfig(worker_timeout=12.5)
    ).worker_timeout == 12.5


def test_worker_timeout_must_be_positive():
    with pytest.raises(ValueError, match="worker_timeout"):
        DiscoveryConfig(worker_timeout=0.0)
    with pytest.raises(ValueError, match="worker_timeout"):
        DiscoveryRequest(worker_timeout="fast")
