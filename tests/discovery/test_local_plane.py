"""The OC plane: OC groups counted on threads must be invisible.

Every run submits each OC context group to a
:class:`~repro.validation.distributed.ColumnPlane`, which counts on one
thread per usable core (at most ``num_workers`` of them when
``num_workers > 1``) when the native kernel (which releases the GIL) does
the counting, and inline otherwise.  Acceptance bars:

* threaded and forced-inline runs give identical results *and counters*
  for every validator and kernel (python, native, numpy without the native
  library) and for ``num_workers`` 1, 2 and 4, one-shot and through a warm
  session's discover → extend → discover;
* ``num_workers`` above the core count never starts more threads than
  there are usable cores;
* a warm session run (its memo holds outcomes) counts inline;
* a run cancelled with groups in flight leaves no thread behind, stores
  only harvested outcomes in the session memo, and the session's next run
  equals a cold one;
* a kernel error raised on a plane thread surfaces at harvest with its
  type intact, again leaving no thread behind.
"""

import contextlib
import os
import sys
import threading
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from test_pipelined_scheduler import COUNTER_FIELDS

from repro.backend import get_backend
from repro.dataset.generators import generate_flight_like
from repro.dataset.relation import Relation
from repro.discovery.api import discover, discover_aods, discover_ods
from repro.discovery.config import DiscoveryRequest
from repro.discovery.engine import DiscoveryEngine
from repro.discovery.session import Profiler
from repro.validation.distributed import ColumnPlane

#: ``(backend, native kernels forced off)`` per kernel leg.
KERNEL_LEGS = [("python", False), ("numpy", False), ("numpy", True)]

VALIDATORS = {
    "optimal": dict(threshold=0.2, validator="optimal"),
    "exact": dict(threshold=0.0, validator="exact"),
    "iterative": dict(threshold=0.2, validator="iterative"),
}

#: Worker counts of the differential: one thread per core, and caps of two
#: and four threads.
WORKER_COUNTS = (1, 2, 4)


def _cores(count):
    """Pretend the process may run on ``count`` CPUs."""
    return mock.patch.object(
        os, "sched_getaffinity", lambda pid: set(range(count)), create=True
    )


def _kernels_off(off):
    """Force the numpy backend onto the reference loops (no compiled
    library) when ``off``."""
    if not off:
        return contextlib.nullcontext()
    from repro.backend import native

    return mock.patch.object(native, "kernels", lambda: None)


@st.composite
def relations(draw):
    """Small tables with ties, a constant column, all-distinct values or
    an ascending column with a few swaps (ascending columns order each
    other up to a few removals: approximate OCs)."""
    n = draw(st.integers(2, 40))
    columns = {}
    for i in range(draw(st.integers(3, 5))):
        kind = draw(st.sampled_from(["ties", "constant", "distinct", "noisy"]))
        if kind == "constant":
            column = [draw(st.integers(0, 3))] * n
        elif kind == "distinct":
            column = draw(st.permutations(range(n)))
        elif kind == "noisy":
            column = sorted(draw(st.lists(
                st.integers(0, 9), min_size=n, max_size=n
            )))
            for _ in range(draw(st.integers(0, 3))):
                x, y = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
                column[x], column[y] = column[y], column[x]
        else:
            column = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        columns[f"c{i}"] = column
    return Relation.from_columns(columns)


def _assert_same(result, reference):
    assert result.ocs == reference.ocs
    assert result.ofds == reference.ofds
    for name in COUNTER_FIELDS:
        assert getattr(result.stats, name) == \
            getattr(reference.stats, name), name


def _one_shot(relation, validator, backend, num_workers):
    """One run through the public API."""
    if validator == "exact":
        return discover_ods(relation, backend=backend, num_workers=num_workers)
    options = VALIDATORS[validator]
    return discover_aods(relation, threshold=options["threshold"],
                         validator=options["validator"], backend=backend,
                         num_workers=num_workers)


def _warm_session(base, delta, validator, backend, num_workers):
    """A warm session's discover → extend → discover."""
    request = DiscoveryRequest(**VALIDATORS[validator])
    with Profiler(base, backend=backend, num_workers=num_workers) as session:
        first = session.discover(request)
        session.extend(delta)
        return first, session.discover(request)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(relation=relations(), validator=st.sampled_from(sorted(VALIDATORS)))
def test_threaded_equals_inline(relation, validator):
    reference = None
    for backend, kernels_off in KERNEL_LEGS:
        request = DiscoveryRequest(**VALIDATORS[validator])
        with _kernels_off(kernels_off):
            with _cores(1):
                inline = discover(relation, request, backend=backend)
            for num_workers in WORKER_COUNTS:
                with _cores(8):
                    threaded = discover(relation, request, backend=backend,
                                        num_workers=num_workers)
                    public = _one_shot(relation, validator, backend,
                                       num_workers)
                _assert_same(threaded, inline)
                _assert_same(public, inline)
        if reference is None:
            reference = inline
        assert inline.ocs == reference.ocs, backend
        assert inline.ofds == reference.ofds, backend


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(relation=relations(), validator=st.sampled_from(sorted(VALIDATORS)),
       data=st.data())
def test_warm_session_extend_equals_inline(relation, validator, data):
    """discover → extend → discover in one warm session: the cold first
    run counts on the plane threads, the warm one inline; both equal the
    forced-inline session's, counters and memo hits included."""
    cut = data.draw(st.integers(1, relation.num_rows - 1))
    base = Relation.from_columns({
        name: relation.column(name)[:cut]
        for name in relation.attribute_names
    })
    delta = [relation.row(i) for i in range(cut, relation.num_rows)]
    for backend, kernels_off in KERNEL_LEGS:
        with _kernels_off(kernels_off):
            with _cores(1):
                inline = _warm_session(base, delta, validator, backend, 1)
            for num_workers in WORKER_COUNTS:
                with _cores(8):
                    threaded = _warm_session(base, delta, validator,
                                             backend, num_workers)
                for result, reference in zip(threaded, inline):
                    _assert_same(result, reference)


def test_workers_above_the_core_count_start_one_thread_per_core(monkeypatch):
    """``num_workers=64``: no more live ``repro-oc`` threads than usable
    cores at any kernel call, none after the run, and the results and
    counters of an inline run."""
    relation = generate_flight_like(
        2000, num_attributes=6, error_rate=0.1, seed=11
    ).relation
    cores = len(os.sched_getaffinity(0))
    backend = "numpy"
    backend_cls = type(get_backend(backend))
    real = backend_cls.oc_optimal_removal_count_batch
    live = []

    def spy(self, *args, **kwargs):
        live.append(len(_plane_threads()))
        return real(self, *args, **kwargs)

    monkeypatch.setattr(backend_cls, "oc_optimal_removal_count_batch", spy)
    many = discover_aods(relation, threshold=0.1, backend=backend,
                         num_workers=64)
    assert live and max(live) <= cores
    assert not _plane_threads()
    with _cores(1):
        inline = discover_aods(relation, threshold=0.1, backend=backend)
    _assert_same(many, inline)
    assert many.stats.num_workers == 64


def test_more_threads_than_cores_with_frequent_switches_equal_inline():
    """Eight plane threads and a GIL switch every microsecond: a plane
    thread that wrote shared state, or read a half-built input, would
    change a count."""
    relation = generate_flight_like(
        2000, num_attributes=6, error_rate=0.1, seed=11
    ).relation
    request = DiscoveryRequest(threshold=0.1)
    with _cores(1):
        reference = discover(relation, request)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with _cores(8):
            stressed = discover(relation, request)
    finally:
        sys.setswitchinterval(interval)
    _assert_same(stressed, reference)


@pytest.fixture
def on_main_thread(monkeypatch):
    """Per native OC batch call, whether it ran on the main thread."""
    from repro.backend import native

    if native.kernels() is None:
        pytest.skip("native kernels unavailable")
    backend_cls = type(get_backend("numpy"))
    real = backend_cls.oc_optimal_removal_count_batch
    seen = []

    def spy(self, *args, **kwargs):
        seen.append(threading.current_thread() is threading.main_thread())
        return real(self, *args, **kwargs)

    monkeypatch.setattr(backend_cls, "oc_optimal_removal_count_batch", spy)
    return seen


def _small_relation():
    return generate_flight_like(
        300, num_attributes=5, error_rate=0.1, seed=3
    ).relation


def test_native_counts_run_on_plane_threads_unless_one_core(on_main_thread):
    """The threaded leg above must really leave the coordinator: with the
    native kernel and two cores the OC batches run on plane threads, and
    with one core they run inline."""
    relation = _small_relation()
    request = DiscoveryRequest(threshold=0.1)
    with _cores(2):
        discover(relation, request, backend="numpy")
    assert on_main_thread and not any(on_main_thread)
    on_main_thread.clear()
    with _cores(1):
        discover(relation, request, backend="numpy")
    assert on_main_thread and all(on_main_thread)


def test_warm_session_runs_count_inline(on_main_thread):
    """A session's first run is cold and uses the plane threads; once its
    memo holds outcomes, the runs that follow count inline."""
    with _cores(2), Profiler(_small_relation(), backend="numpy") as session:
        session.discover(DiscoveryRequest(threshold=0.05))
        assert on_main_thread and not any(on_main_thread)
        on_main_thread.clear()
        # A larger budget recomputes the memo's over-budget verdicts.
        session.discover(DiscoveryRequest(threshold=0.3))
        assert on_main_thread and all(on_main_thread)


def _plane_threads():
    return [t for t in threading.enumerate() if t.name.startswith("repro-oc")]


def test_cancel_with_groups_in_flight(monkeypatch):
    """Cancel in level 3 once two groups are submitted and both are still
    counting: no thread survives the run, the memo holds no outcome of the
    cancelled level, and the next run equals a cold one."""
    monkeypatch.setattr(DiscoveryEngine, "_oc_threads", lambda self: 2)
    relation = generate_flight_like(
        300, num_attributes=6, error_rate=0.1, seed=5
    ).relation
    backend = "numpy"
    backend_cls = type(get_backend(backend))
    real_count = backend_cls.oc_optimal_removal_count_batch
    real_submit = ColumnPlane.submit
    armed, gate = threading.Event(), threading.Event()
    submitted = []

    def gated_count(self, *args, **kwargs):
        if armed.is_set():
            assert gate.wait(timeout=60)
        return real_count(self, *args, **kwargs)

    def submit(self, *args, **kwargs):
        pending = real_submit(self, *args, **kwargs)
        if armed.is_set():
            submitted.append(pending)
        return pending

    monkeypatch.setattr(backend_cls, "oc_optimal_removal_count_batch",
                        gated_count)
    monkeypatch.setattr(ColumnPlane, "submit", submit)

    class Token:
        in_flight_at_cancel = 0

        def cancelled(self):
            if len(submitted) < 2:
                return False
            if not gate.is_set():
                Token.in_flight_at_cancel = sum(
                    not f.done() for f in submitted
                )
                gate.set()
            return True

    baseline = set(threading.enumerate())
    request = DiscoveryRequest(threshold=0.1)
    with Profiler(relation, backend=backend) as session:
        for event in session.iter_events(request, cancellation=Token()):
            if type(event).__name__ == "LevelCompleted" and event.level == 2:
                armed.set()
        assert Token.in_flight_at_cancel >= 1
        assert set(threading.enumerate()) <= baseline
        assert not _plane_threads()
        oc_contexts = {  # context sizes: keys hold context masks
            bin(key[2]).count("1")
            for key in session.validation_memo if key[0] == "oc"
        }
        # Level 2 (empty contexts) was harvested; level 3 was not.
        assert oc_contexts == {0}
        armed.clear()
        rerun = session.discover(request)
    cold = discover(relation, DiscoveryRequest(threshold=0.1), backend=backend)
    assert not rerun.cancelled
    assert rerun.ocs == cold.ocs
    assert rerun.ofds == cold.ofds
    assert set(threading.enumerate()) <= baseline


class KernelBoom(RuntimeError):
    pass


def test_kernel_error_on_a_plane_thread_surfaces_at_harvest(monkeypatch):
    monkeypatch.setattr(DiscoveryEngine, "_oc_threads", lambda self: 2)
    backend = "numpy"
    backend_cls = type(get_backend(backend))
    raised_on = []
    harvest_errors = []
    real_harvest = ColumnPlane.harvest

    def boom(self, *args, **kwargs):
        raised_on.append(threading.current_thread().name)
        raise KernelBoom("kernel failed")

    def harvest(self, pending):
        try:
            return real_harvest(self, pending)
        except KernelBoom as error:
            harvest_errors.append(error)
            raise

    monkeypatch.setattr(backend_cls, "oc_optimal_removal_count_batch", boom)
    monkeypatch.setattr(ColumnPlane, "harvest", harvest)
    relation = generate_flight_like(
        200, num_attributes=5, error_rate=0.1, seed=9
    ).relation
    baseline = set(threading.enumerate())
    with pytest.raises(KernelBoom, match="kernel failed"):
        discover(relation, DiscoveryRequest(threshold=0.1), backend=backend)
    assert raised_on and all(n.startswith("repro-oc") for n in raised_on)
    assert len(harvest_errors) == 1
    assert set(threading.enumerate()) <= baseline
    assert not _plane_threads()
