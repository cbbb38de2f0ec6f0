"""Span tracing: nesting, the OC plane's spans, export, and byte-identity.

The acceptance bars of the observability issue:

* the default tracer is the no-op singleton and records nothing;
* a traced discovery produces a well-formed span tree — run → level →
  phase — with monotonic, non-overlapping level spans;
* every OC group's ``oc-submit`` and ``oc-harvest`` spans sit under their
  level, with two plane threads too;
* the Chrome-trace export round-trips through JSON with the schema
  Perfetto expects;
* tracing never changes discovery results (asserted differentially on
  every available backend, with and without a worker count).
"""

import json

import pytest

from repro.dataset.generators import generate_flight_like
from repro.discovery.config import DiscoveryRequest
from repro.discovery.session import Profiler
from repro.obs import NOOP_TRACER, Tracer, get_tracer, use_tracer

BACKENDS = ["python", "numpy"]

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


def test_use_tracer_restores_the_previous_tracer():
    before = get_tracer()
    with use_tracer(Tracer()) as tracer:
        assert get_tracer() is tracer
    assert get_tracer() is before


# -- traced discovery ------------------------------------------------------------


def _traced_run(backend, num_workers=1):
    tracer = Tracer()
    with use_tracer(tracer):
        with Profiler(
            RELATION, backend=backend, num_workers=num_workers,
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


def test_oc_plane_spans_sit_under_their_level():
    """A two-worker run submits every OC group and harvests it under the
    level span; no worker-process span is left."""
    tracer, result = _traced_run(BACKENDS[-1], num_workers=2)
    spans = tracer.finished_spans()
    by_id = {s.span_id: s for s in spans}
    submits = [s for s in spans if s.name == "oc-submit"]
    harvests = [s for s in spans if s.name == "oc-harvest"]
    assert submits and len(harvests) == len(submits)
    for span in submits + harvests:
        assert by_id[span.parent_id].name == "level"
    assert not [s for s in spans if s.name.startswith("shard-")]
    assert result.num_ocs > 0


def test_encoding_spans_carry_row_and_column_counts():
    """Building an encoding records an ``encode`` span, and an append an
    ``encode-delta`` span, each with its row and column counts; a cached
    encoding records none."""
    relation = generate_flight_like(
        200, num_attributes=4, error_rate=0.1, seed=5
    ).relation
    tracer = Tracer()
    with use_tracer(tracer):
        with Profiler(relation, backend="numpy") as session:
            session.discover(DiscoveryRequest(threshold=0.1))
            session.extend([relation.row(index) for index in range(7)])
        relation.encoded("numpy")
    encoding = [
        (span.name, span.attrs["rows"], span.attrs["columns"])
        for span in tracer.finished_spans()
        if span.name.startswith("encode")
    ]
    assert encoding == [("encode", 200, 4), ("encode-delta", 7, 4)]


@pytest.mark.parametrize("backend", BACKENDS)
def test_append_spans_carry_keys_and_repair_jobs(backend):
    """An append records an ``apply-delta`` span with the rebuilt and the
    patched key counts, and the ``memo-repair`` span carries the number of
    jobs in its one OC and one OFD count call: two per adjusted entry."""
    relation = generate_flight_like(
        240, num_attributes=5, error_rate=0.1, seed=5
    ).relation
    tracer = Tracer()
    with use_tracer(tracer):
        with Profiler(relation, backend=backend) as session:
            session.discover(DiscoveryRequest(threshold=0.1))
            entries = session.cache_info()["entries"]
            summary = session.extend(
                [relation.row(index) for index in range(0, 240, 20)]
            )
    [apply_delta] = [span for span in tracer.finished_spans()
                     if span.name == "apply-delta"]
    [repair] = [span for span in tracer.finished_spans()
                if span.name == "memo-repair"]
    assert apply_delta.attrs == {
        "keys": entries,
        "patched": len(summary.affected_contexts),
    }
    assert apply_delta.attrs["patched"] > 0
    assert repair.attrs["affected_contexts"] == len(summary.affected_contexts)
    assert repair.attrs["oc_jobs"] > 0 and repair.attrs["ofd_jobs"] > 0
    assert repair.attrs["oc_jobs"] + repair.attrs["ofd_jobs"] == (
        2 * summary.adjusted_memo_entries
    )


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
