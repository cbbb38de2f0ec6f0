"""Pipelined level validation must be invisible in results.

Every run submits its OC groups up front to its thread plane and harvests
them after the OFD pass.  Acceptance bars:

* runs capped at 2 and 4 plane threads produce ``DiscoveryResult``s
  identical to the default run's, *including the statistics counters*;
* after ``Profiler.extend``, plane threads count the patched partitions
  correctly — extend → discover is byte-identical to a cold discovery
  over the concatenated table, both backends;
* an interrupted pipelined run leaves the session usable.
"""

import pytest

from repro.backend import available_backends
from repro.dataset.generators import generate_flight_like
from repro.dataset.relation import Relation
from repro.discovery.api import discover
from repro.discovery.config import DiscoveryConfig, DiscoveryRequest
from repro.discovery.session import CancellationToken, Profiler

BACKENDS = available_backends()

#: Statistics fields that must be identical across plane thread counts
#: (the timers and the worker count are the only legitimate differences).
COUNTER_FIELDS = (
    "oc_candidates_validated", "ofd_candidates_validated",
    "oc_candidates_pruned", "ofd_candidates_pruned",
    "nodes_processed", "nodes_pruned", "levels_processed",
    "nodes_per_level", "timed_out", "cancelled", "validation_memo_hits",
    "backend", "oc_batches", "ofd_batches",
)


def _relation():
    return generate_flight_like(
        300, num_attributes=6, error_rate=0.1, seed=3
    ).relation


RELATION = _relation()


def _assert_identical(result, reference):
    assert result.ocs == reference.ocs
    assert result.ofds == reference.ofds
    for name in COUNTER_FIELDS:
        assert getattr(result.stats, name) == getattr(reference.stats, name), name


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("num_workers", [2, 4])
def test_pipelined_equals_synchronous(backend, num_workers, plane_threads):
    synchronous = discover(
        RELATION, DiscoveryConfig(threshold=0.1, backend=backend),
    )
    config = DiscoveryConfig(threshold=0.1, backend=backend,
                             num_workers=num_workers)
    pipelined = discover(RELATION, config)
    assert plane_threads.seen[-1] == plane_threads.expected(backend, config)
    _assert_identical(pipelined, synchronous)
    assert pipelined.stats.num_workers == num_workers
    assert synchronous.stats.num_workers == 1


@pytest.mark.parametrize("backend", BACKENDS)
def test_pipelined_equals_per_candidate_reference(backend, per_candidate):
    reference = per_candidate(
        RELATION, DiscoveryConfig(threshold=0.1, backend=backend)
    )
    pipelined = discover(
        RELATION, DiscoveryConfig(threshold=0.1, backend=backend, num_workers=2)
    )
    assert pipelined.ocs == reference.ocs
    assert pipelined.ofds == reference.ofds


def test_pipelined_inert_without_workers():
    """Without a worker count the schedule is the same: every OC group is
    submitted to the run's plane and harvested after the OFD pass, and no
    synchronous ``oc-batch`` span remains."""
    from repro.obs import Tracer, use_tracer

    tracer = Tracer()
    with use_tracer(tracer):
        result = discover(RELATION, DiscoveryConfig(threshold=0.1))
    names = {span.name for span in tracer.finished_spans()}
    assert {"oc-submit", "oc-harvest"} <= names
    assert "oc-batch" not in names
    assert result.stats.num_workers == 1


@pytest.mark.parametrize("backend", BACKENDS)
def test_extend_then_discover_on_reused_pool_matches_cold(backend,
                                                         plane_threads):
    """After ``Profiler.extend`` the session's patched partitions, counted
    on two plane threads (the memo is off, so every run is cold), must be
    byte-identical to a cold session over the concatenated table."""
    base = generate_flight_like(
        260, num_attributes=6, error_rate=0.1, seed=7
    ).relation
    donor = generate_flight_like(
        300, num_attributes=6, error_rate=0.1, seed=13
    ).relation
    delta_rows = [donor.row(i) for i in range(260, 300)]
    request = DiscoveryRequest(threshold=0.1)

    with Profiler(base, backend=backend, num_workers=2,
                  cache_validations=False) as session:
        warm_before = session.discover(request)
        assert warm_before.stats.num_workers == 2
        session.extend(delta_rows)
        assert session.dataset_version == 1
        warm_after = session.discover(request)
    config = request.to_config(backend=backend, num_workers=2)
    assert plane_threads.seen == [plane_threads.expected(backend, config)] * 2

    concatenated = base.concat(Relation(
        base.schema,
        {
            name: [row[index] for row in delta_rows]
            for index, name in enumerate(base.attribute_names)
        },
    ))
    with Profiler(concatenated, backend=backend, num_workers=2) as cold:
        cold_result = cold.discover(request)

    _assert_identical(warm_after, cold_result)


@pytest.mark.parametrize("backend", BACKENDS)
def test_repeated_extends_keep_reused_pool_correct(backend):
    """Several appends in a row: every discover between them must agree
    with a cold run (regression for stale resident columns)."""
    base = generate_flight_like(
        200, num_attributes=5, error_rate=0.1, seed=17
    ).relation
    donor = generate_flight_like(
        260, num_attributes=5, error_rate=0.1, seed=19
    ).relation
    request = DiscoveryRequest(threshold=0.12)
    with Profiler(base, backend=backend, num_workers=2) as session:
        session.discover(request)
        for step, stop in enumerate((220, 240, 260), start=1):
            start = stop - 20
            session.extend([donor.row(i) for i in range(start, stop)])
            assert session.dataset_version == step
            warm = session.discover(request)
            cold = discover(
                session.relation,
                DiscoveryConfig(threshold=0.12, backend=backend),
            )
            assert warm.ocs == cold.ocs
            assert warm.ofds == cold.ofds


def test_cancelled_pipelined_run_leaves_pool_usable():
    """Cancel mid-run: the in-flight groups are abandoned and the
    session's next run is complete and correct."""
    relation = generate_flight_like(
        400, num_attributes=7, error_rate=0.1, seed=5
    ).relation
    request = DiscoveryRequest(threshold=0.1)
    with Profiler(relation, num_workers=2) as session:
        token = CancellationToken()
        seen_levels = 0
        for event in session.iter_events(request, cancellation=token):
            if type(event).__name__ == "LevelCompleted":
                seen_levels += 1
                if seen_levels == 1:
                    token.cancel()
        rerun = session.discover(request)
        assert not rerun.cancelled
    reference = discover(relation, DiscoveryConfig(threshold=0.1))
    assert rerun.ocs == reference.ocs
    assert rerun.ofds == reference.ofds


@pytest.mark.parametrize("backend", BACKENDS)
def test_exact_discovery_batched_through_holds_batch(backend, per_candidate):
    """Exact mode routes each context group through the batch count
    kernels at limit 0; results and counters must keep matching the
    per-candidate reference."""
    reference = per_candidate(RELATION, DiscoveryConfig.exact(backend=backend))
    batched = discover(RELATION, DiscoveryConfig.exact(backend=backend))
    assert batched.ocs == reference.ocs
    assert batched.ofds == reference.ofds
    for name in ("oc_candidates_validated", "ofd_candidates_validated",
                 "oc_candidates_pruned", "ofd_candidates_pruned",
                 "nodes_per_level"):
        assert getattr(batched.stats, name) == getattr(reference.stats, name)

