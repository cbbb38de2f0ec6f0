"""Span tracing: nesting, worker re-parenting, export, and byte-identity.

The acceptance bars of the observability issue:

* the default tracer is the no-op singleton and records nothing;
* a traced discovery produces a well-formed span tree — run → level →
  phase — with monotonic, non-overlapping level spans;
* worker-recorded shard-kernel spans come back across the process
  boundary and re-parent under the dispatching coordinator span, on a
  per-worker track;
* the Chrome-trace export round-trips through JSON with the schema
  Perfetto expects;
* tracing never changes discovery results (asserted differentially on
  every available backend, in-process and pooled).
"""

import json

import pytest

from repro.backend import available_backends, get_backend
from repro.dataset.generators import generate_flight_like
from repro.discovery.config import DiscoveryRequest
from repro.discovery.session import Profiler
from repro.obs import NOOP_TRACER, Tracer, get_tracer, use_tracer
from repro.validation.distributed import ShardedValidationPool

BACKENDS = available_backends()

RELATION = generate_flight_like(
    300, num_attributes=5, error_rate=0.1, seed=3
).relation


# -- tracer mechanics ------------------------------------------------------------


def test_default_tracer_is_noop():
    tracer = get_tracer()
    assert tracer is NOOP_TRACER
    assert not tracer.enabled
    with tracer.span("anything"):
        assert tracer.current_span_id() is None
    assert tracer.finished_spans() == []


def test_span_nesting_follows_the_context():
    tracer = Tracer()
    with tracer.span("outer") as outer:
        assert tracer.current_span_id() == outer.span_id
        with tracer.span("inner") as inner:
            assert inner.parent_id == outer.span_id
    assert tracer.current_span_id() is None
    spans = {s.name: s for s in tracer.finished_spans()}
    assert spans["outer"].parent_id is None
    assert spans["inner"].parent_id == spans["outer"].span_id


def test_explicit_parent_overrides_the_context():
    tracer = Tracer()
    with tracer.span("a") as a:
        with tracer.span("b", parent=None):
            with tracer.span("c", parent=a) as c:
                assert c.parent_id == a.span_id


def test_start_end_span_does_not_touch_the_context():
    tracer = Tracer()
    span = tracer.start_span("manual", level=3)
    assert tracer.current_span_id() is None
    tracer.end_span(span)
    tracer.end_span(span)  # idempotent
    tracer.end_span(None)  # tolerated
    finished = tracer.finished_spans()
    assert [s.name for s in finished] == ["manual"]
    assert finished[0].attrs == {"level": 3}


def test_attach_worker_spans_reparents_and_tracks():
    tracer = Tracer()
    parent = tracer.record_span("shard-dispatch", 1.0, 2.0, job_id=7)
    attached = tracer.attach_worker_spans(
        [{"name": "shard-kernel", "start": 1.2, "end": 1.8, "pid": 4242,
          "num_pairs": 3}],
        parent,
    )
    (kernel,) = attached
    assert kernel.parent_id == parent.span_id
    assert kernel.track == 4242
    assert kernel.attrs == {"num_pairs": 3}
    assert kernel.start == 1.2 and kernel.end == 1.8


def test_use_tracer_restores_the_previous_tracer():
    before = get_tracer()
    with use_tracer(Tracer()) as tracer:
        assert get_tracer() is tracer
    assert get_tracer() is before


# -- traced discovery ------------------------------------------------------------


def _traced_run(backend, num_workers=1, shard_pool=None):
    tracer = Tracer()
    with use_tracer(tracer):
        with Profiler(
            RELATION, backend=backend, num_workers=num_workers,
            shard_pool=shard_pool,
        ) as session:
            result = session.discover(DiscoveryRequest(threshold=0.1))
    return tracer, result


def test_traced_run_has_a_well_formed_span_tree():
    tracer, _ = _traced_run(BACKENDS[0])
    spans = tracer.finished_spans()
    by_id = {s.span_id: s for s in spans}
    names = {s.name for s in spans}
    assert {"run", "level", "candidate-gen"} <= names

    (run,) = [s for s in spans if s.name == "run"]
    assert run.parent_id is None
    levels = sorted(
        (s for s in spans if s.name == "level"),
        key=lambda s: s.attrs["level"],
    )
    assert levels, "a traced run must record level spans"
    for level in levels:
        assert level.parent_id == run.span_id
        assert run.start <= level.start and level.end <= run.end

    # Level spans are monotonic and non-overlapping: the engine is
    # level-synchronous, so level N must close before N+1 opens.
    for earlier, later in zip(levels, levels[1:]):
        assert earlier.attrs["level"] < later.attrs["level"]
        assert earlier.end <= later.start

    # Every phase span nests inside its parent's interval.
    for span in spans:
        if span.parent_id is None:
            continue
        parent = by_id[span.parent_id]
        assert parent.start <= span.start + 1e-9
        assert span.end <= parent.end + 1e-9


def test_chrome_trace_export_schema(tmp_path):
    tracer, _ = _traced_run(BACKENDS[0])
    path = tmp_path / "trace.json"
    count = tracer.export(path)
    assert count == len(tracer.finished_spans()) > 0

    data = json.loads(path.read_text(encoding="utf-8"))
    assert data["displayTimeUnit"] == "ms"
    events = data["traceEvents"]
    complete = [e for e in events if e["ph"] == "X"]
    assert len(complete) == count
    for event in complete:
        assert event["cat"] == "repro"
        assert event["ts"] >= 0 and event["dur"] >= 0
        assert "span_id" in event["args"]
    metadata = [e for e in events if e["ph"] == "M"]
    assert {"process_name", "thread_name"} <= {e["name"] for e in metadata}
    # Parent links resolve inside the export.
    ids = {e["args"]["span_id"] for e in complete}
    for event in complete:
        parent = event["args"].get("parent_id")
        assert parent is None or parent in ids


def test_worker_spans_cross_the_process_boundary():
    """Pooled discovery must record shard-dispatch spans parented under
    the dispatching coordinator span, with the worker's shard-kernel span
    re-parented beneath them on the worker's own track."""
    backend = BACKENDS[-1]
    pool = ShardedValidationPool(2, backend=get_backend(backend))
    # Zero the inline floors so the tiny test workload actually reaches
    # the worker processes.
    pool.INLINE_GROUP_COST = 0
    pool.MIN_SHARD_COST = 1
    with pool:
        tracer, result = _traced_run(backend, num_workers=2, shard_pool=pool)
    spans = tracer.finished_spans()
    by_id = {s.span_id: s for s in spans}

    dispatches = [s for s in spans if s.name == "shard-dispatch"]
    kernels = [s for s in spans if s.name == "shard-kernel"]
    assert dispatches and kernels

    for dispatch in dispatches:
        assert dispatch.track is None  # recorded on the coordinator
        assert by_id[dispatch.parent_id].name == "oc-submit"
    worker_pids = set()
    for kernel in kernels:
        assert by_id[kernel.parent_id].name == "shard-dispatch"
        assert kernel.track is not None
        worker_pids.add(kernel.track)
    assert worker_pids, "kernel spans must carry their worker pid track"

    # The pooled traced run still finds dependencies (sanity).
    assert result.num_ocs > 0


# -- differential: tracing must not change results -------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("num_workers", [1, 2])
def test_tracing_is_byte_identical(backend, num_workers):
    request = DiscoveryRequest(threshold=0.1)
    with Profiler(
        RELATION, backend=backend, num_workers=num_workers
    ) as session:
        plain = session.discover(request)
    tracer, traced = _traced_run(backend, num_workers=num_workers)
    assert traced.ocs == plain.ocs
    assert traced.ofds == plain.ofds
    assert tracer.finished_spans(), "the traced run must record spans"
