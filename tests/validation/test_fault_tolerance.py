"""Kernel faults on the OC plane's threads must be invisible to later runs.

A run counts its OC context groups on plane threads (see
:mod:`repro.validation.distributed`).  When the kernel fails on one of
them, at a randomized call, before or after it has counted, the run
raises the kernel's own error and stops its threads; these tests check
that what stays behind is sound:

* the session's next run, memoised or one-shot, fresh or after
  ``extend``, is byte-identical to an inline cold run, with no hang (every
  recovery carries a wall-clock bound) and no plane thread left over;
* a group resubmitted after its failure counts like the kernel;
* inline and threaded runs fail with the same error and otherwise give
  identical results and counters.
"""

import os
import random
import threading
import time
from unittest import mock

import pytest

from repro.backend import get_backend
from repro.dataset.generators import generate_flight_like, generate_planted_oc_table
from repro.dataset.partition import PartitionCache
from repro.discovery.api import discover
from repro.discovery.config import DiscoveryConfig, DiscoveryRequest
from repro.discovery.engine import DiscoveryEngine
from repro.discovery.session import Profiler
from repro.validation.distributed import ColumnPlane, ShardedValidationPool

BACKENDS = ["python", "numpy"]

#: No recovery scenario in this file is allowed to take this long — the
#: "no hang" half of the acceptance criterion.
RECOVERY_DEADLINE_SECONDS = 120.0

#: The non-timing counters of ``DiscoveryResult.stats``.
COUNTER_FIELDS = (
    "oc_candidates_validated", "ofd_candidates_validated",
    "oc_candidates_pruned", "ofd_candidates_pruned",
    "nodes_processed", "nodes_pruned", "levels_processed",
    "nodes_per_level", "timed_out", "cancelled", "validation_memo_hits",
    "backend", "oc_batches", "ofd_batches",
)

RELATION = generate_flight_like(
    300, num_attributes=5, error_rate=0.1, seed=3
).relation


class KernelFault(RuntimeError):
    """The injected failure of an OC kernel call."""


class FaultyKernel:
    """Makes the backend's OC kernel fail once, on call ``ordinal``, before
    counting (``before``) or after it (the count is then lost)."""

    def __init__(self, monkeypatch, backend, ordinal=0, before=True):
        self.ordinal = ordinal
        self.before = before
        self.calls = 0
        self.fired_on = []
        self._lock = threading.Lock()
        backend_cls = type(get_backend(backend))
        real = backend_cls.oc_optimal_removal_count_batch
        fault = self

        def faulty(self, *args, **kwargs):
            with fault._lock:
                ordinal = fault.calls
                fault.calls += 1
            hit = ordinal == fault.ordinal
            if hit and fault.before:
                fault._fire()
            counts = real(self, *args, **kwargs)
            if hit:
                fault._fire()
            return counts

        monkeypatch.setattr(backend_cls, "oc_optimal_removal_count_batch",
                            faulty)

    @classmethod
    def randomized(cls, monkeypatch, backend, seed):
        """A deterministic 'randomized point': which kernel call fails, and
        whether before or after it counted.  Ordinals stay small so the
        fault always fires on the small test workloads."""
        rng = random.Random(seed)
        ordinal = rng.randrange(3)
        return cls(monkeypatch, backend, ordinal, rng.random() < 0.5)

    def _fire(self):
        self.fired_on.append(threading.current_thread().name)
        raise KernelFault(f"kernel call {self.ordinal} failed")

    def disarm(self):
        self.ordinal = -1


def _plane_threads():
    return [t for t in threading.enumerate() if t.name.startswith("repro-oc")]


def _threads(monkeypatch, count=2):
    """Count every run's OC groups on ``count`` plane threads (whatever
    the backend and host)."""
    monkeypatch.setattr(DiscoveryEngine, "_oc_threads", lambda self: count)


def _inline_reference(relation, backend):
    """A cold run counting inline: the reference every recovery must
    equal."""
    with mock.patch.object(DiscoveryEngine, "_oc_threads", lambda self: 0):
        return discover(relation, DiscoveryConfig(threshold=0.1,
                                                  backend=backend))


_BASELINES = {}


def _baseline(backend):
    """The inline reference result over :data:`RELATION` (cached: it never
    changes)."""
    if backend not in _BASELINES:
        _BASELINES[backend] = _inline_reference(RELATION, backend)
    return _BASELINES[backend]


def _assert_counters_equal(result, reference):
    for name in COUNTER_FIELDS:
        assert getattr(result.stats, name) == getattr(reference.stats, name), name


# -- differential: a failed run must not change the next one ---------------------


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("seed", [1, 2, 5, 9])
@pytest.mark.parametrize("memo", [True, False])
def test_discovery_survives_randomized_worker_kill(backend, seed, memo,
                                                    monkeypatch):
    """A run over warm state — a session's, with the memo's slack removal
    budget, or a partition cache shared by engines with no memo, with the
    one-shot tight one — whose kernel fails on a plane thread at a
    randomized call: the run raises the kernel's error and leaves no
    thread behind, and the next run over that state is byte-identical to
    the inline reference."""
    reference = _baseline(backend)
    _threads(monkeypatch)
    fault = FaultyKernel.randomized(monkeypatch, backend, seed)
    request = DiscoveryRequest(threshold=0.1)
    baseline_threads = set(threading.enumerate())
    start = time.monotonic()
    session = Profiler(RELATION, backend=backend, num_workers=2)
    partitions = PartitionCache(RELATION.encoded(backend))

    def run():
        if memo:
            return session.discover(request)
        return DiscoveryEngine(
            RELATION, request.to_config(backend, num_workers=2),
            partitions=partitions,
        ).run()

    with pytest.raises(KernelFault):
        run()
    assert not _plane_threads()
    fault.disarm()
    result = run()
    assert time.monotonic() - start < RECOVERY_DEADLINE_SECONDS
    assert len(fault.fired_on) == 1
    assert fault.fired_on[0].startswith("repro-oc")
    assert set(threading.enumerate()) <= baseline_threads
    assert result.ocs == reference.ocs
    assert result.ofds == reference.ofds
    assert not result.stats.cancelled
    if not memo:
        _assert_counters_equal(result, reference)


@pytest.mark.parametrize("backend", BACKENDS)
def test_incremental_discovery_after_extend_survives_kill(backend, monkeypatch):
    """Post-``extend`` incremental revalidation whose kernel fails mid-run
    must, on its next attempt, match a cold inline discovery over the grown
    table."""
    base = generate_flight_like(
        260, num_attributes=5, error_rate=0.1, seed=7
    ).relation
    donor = generate_flight_like(
        300, num_attributes=5, error_rate=0.1, seed=13
    ).relation
    delta_rows = [donor.row(i) for i in range(260, 300)]
    request = DiscoveryRequest(threshold=0.1)
    _threads(monkeypatch)
    start = time.monotonic()
    with Profiler(base, backend=backend, num_workers=2) as session:
        session.discover(request)
        session.extend(delta_rows)
        # Armed only now: the first kernel call after the append fails.
        fault = FaultyKernel(monkeypatch, backend)
        with pytest.raises(KernelFault):
            session.discover_incremental(request)
        fault.disarm()
        incremental = session.discover_incremental(request)
    assert time.monotonic() - start < RECOVERY_DEADLINE_SECONDS
    assert fault.fired_on
    reference = _inline_reference(session.relation, backend)
    assert incremental.result.ocs == reference.ocs
    assert incremental.result.ofds == reference.ofds


# -- plane-level recovery semantics ----------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
def test_requeued_shards_match_and_count(backend, monkeypatch):
    """A group whose kernel call fails on a plane thread, submitted again:
    the counts are the kernel's, the pool counts both submissions, and the
    pool stays fully usable afterwards."""
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
    rank_pairs = [(encoded.native_ranks(a), encoded.native_ranks(b))
                  for a, b in pairs]
    expected = resolved.oc_optimal_removal_count_batch(classes, rank_pairs,
                                                       None)

    def prepare(classes, pair_names, limit):
        return lambda: resolved.oc_optimal_removal_count_batch(
            classes, rank_pairs, limit
        )

    fault = FaultyKernel(monkeypatch, backend)
    with ShardedValidationPool(2) as pool:
        plane = ColumnPlane(prepare, pool)
        with pytest.raises(KernelFault):
            plane.harvest(plane.submit(classes, pairs, None))
        assert plane.harvest(plane.submit(classes, pairs, None)) == expected
        assert pool.stats == {"groups": 2, "jobs": 4}
        assert plane.harvest(plane.submit(classes, pairs, None)) == expected
    assert len(fault.fired_on) == 1
    assert fault.fired_on[0].startswith("repro-oc")


def test_degraded_session_run_is_byte_identical():
    """A session on a one-core host counts inline (no plane thread); its
    runs match a threaded session's end-to-end, counters included."""
    backend = BACKENDS[-1]
    request = DiscoveryRequest(threshold=0.1)
    results = {}
    for cores in (1, 4):
        with mock.patch.object(os, "sched_getaffinity",
                               lambda pid: set(range(cores)), create=True):
            with Profiler(RELATION, backend=backend, num_workers=2) as session:
                results[cores] = [session.discover(request),
                                  session.discover(request)]
    for degraded, threaded in zip(results[1], results[4]):
        assert degraded.ocs == threaded.ocs
        assert degraded.ofds == threaded.ofds
        _assert_counters_equal(degraded, threaded)
    assert results[1][0].ocs == _baseline(backend).ocs


# -- errors are the kernel's own, inline or threaded -----------------------------


def test_inline_fallback_errors_are_structured_too(monkeypatch):
    """A run counting inline fails with exactly the error a threaded run
    raises from its plane thread, and neither leaves a thread behind."""
    backend = BACKENDS[-1]
    errors = {}
    for threads in (0, 2):
        _threads(monkeypatch, threads)
        fault = FaultyKernel(monkeypatch, backend)
        with pytest.raises(KernelFault) as info:
            discover(RELATION, DiscoveryConfig(threshold=0.1, backend=backend))
        errors[threads] = info.value
        (fired_on,) = fault.fired_on
        assert fired_on.startswith("repro-oc") == bool(threads)
        assert not _plane_threads()
    assert type(errors[0]) is type(errors[2])
    assert errors[0].args == errors[2].args
