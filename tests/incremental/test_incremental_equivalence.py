"""Incremental/cold equivalence — the subsystem's acceptance bar.

For any append sequence, ``Profiler.extend`` + ``discover_incremental``
must produce a ``DiscoveryResult`` byte-identical (everything except run
statistics) to a cold discovery over the concatenated table, on every
backend, with the OC plane inline and on its threads.  The reported
revoked / added dependencies must equal the statement diff of two cold
runs, and the monotonicity argument is pinned down: appends never shrink
removal counts, so at a fixed removal budget (ε = 0) a dependency can only
be revoked when an append touched its own context.
"""

import random

import pytest

from repro.dataset.generators import generate_flight_like, generate_ncvoter_like
from repro.dataset.relation import Relation
from repro.discovery.api import discover
from repro.discovery.config import DiscoveryRequest
from repro.discovery.events import RunCompleted
from repro.discovery.session import Profiler

BACKENDS = ["python", "numpy"]


def _result_payload(result):
    """Everything that must be byte-identical (stats are run-dependent)."""
    payload = result.to_dict()
    payload.pop("stats")
    return payload


def _random_rows(schema, donor, rng, count):
    """Draw ``count`` append rows from a donor relation (same generator
    family, different seed), occasionally mutating a cell to force
    remaps / fresh dictionary entries."""
    rows = []
    for _ in range(count):
        row = list(donor.row(rng.randrange(donor.num_rows)))
        if rng.random() < 0.3:
            column = rng.randrange(len(row))
            value = row[column]
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                row[column] = value + rng.choice([-0.5, 0.5, 1000])
            elif isinstance(value, str):
                row[column] = rng.choice(["", "~zzz", "AAA"]) + value
        rows.append(tuple(row))
    return rows


def _statement_diff(before, after):
    """``(revoked, added)`` as dependency dicts, in result order."""
    def keyed(result):
        return [(("oc", found.oc), found) for found in result.ocs] + [
            (("ofd", found.ofd), found) for found in result.ofds
        ]

    old, new = keyed(before), keyed(after)
    old_keys, new_keys = {key for key, _ in old}, {key for key, _ in new}
    return (
        [found.to_dict() for key, found in old if key not in new_keys],
        [found.to_dict() for key, found in new if key not in old_keys],
    )


def _cold_result(base, appended_rows, backend, request, num_workers=1):
    columns = {name: [] for name in base.attribute_names}
    for row in appended_rows:
        for name, value in zip(base.attribute_names, row):
            columns[name].append(value)
    concatenated = base.concat(Relation(base.schema, columns))
    return discover(concatenated, request.to_config(backend, num_workers))


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("generator,threshold", [
    (generate_flight_like, 0.1),
    (generate_ncvoter_like, 0.05),
])
def test_randomized_append_sequence_matches_cold(backend, generator, threshold):
    rng = random.Random(hash((backend, threshold)) & 0xFFFF)
    base = generator(220, num_attributes=6, error_rate=0.1, seed=3).relation
    donor = generator(220, num_attributes=6, error_rate=0.25, seed=17).relation
    request = DiscoveryRequest.approximate(threshold)

    with Profiler(base, backend=backend) as session:
        session.discover(request)
        appended = []
        for _ in range(3):
            batch = _random_rows(base.schema, donor, rng, rng.randint(1, 25))
            appended.extend(batch)
            summary = session.extend(batch)
            outcome = session.discover_incremental(request)
            cold = _cold_result(base, appended, backend, request)
            assert _result_payload(outcome.result) == _result_payload(cold)
            if summary.retained_memo_entries:
                # The repair reused what the delta left intact.
                assert outcome.result.stats.validation_memo_hits > 0


@pytest.mark.parametrize("backend", BACKENDS)
def test_exact_discovery_matches_cold_and_monotonicity(backend):
    """At ε = 0 the removal budget never grows, so the monotonicity
    argument is fully observable: every revoked dependency's own context
    was touched by an append."""
    base = generate_flight_like(200, num_attributes=6, error_rate=0.05,
                                seed=4).relation
    donor = generate_flight_like(200, num_attributes=6, error_rate=0.4,
                                 seed=23).relation
    request = DiscoveryRequest.exact()
    rng = random.Random(99)

    with Profiler(base, backend=backend) as session:
        session.discover(request)
        appended = []
        touched = set()
        revoked = 0
        for _ in range(2):
            batch = _random_rows(base.schema, donor, rng, 12)
            appended.extend(batch)
            touched.update(session.extend(batch).affected_contexts)
            outcome = session.discover_incremental(request)
            cold = _cold_result(base, appended, backend, request)
            assert _result_payload(outcome.result) == _result_payload(cold)
            for found in outcome.revoked_ocs:
                assert found.oc.context in touched, found
            for found in outcome.revoked_ofds:
                assert found.ofd.context in touched, found
            revoked += outcome.num_revoked
        assert revoked > 0  # the dirty donor rows must break something


def test_append_sequence_matches_cold_with_workers(plane_threads):
    """A two-worker session must survive the encoded relation growing
    between validation rounds: its cold first run counts on two plane
    threads, the incremental rerun inline, and the result equals a cold
    two-thread run over the concatenated table."""
    base = generate_flight_like(260, num_attributes=6, error_rate=0.1,
                                seed=6).relation
    donor = generate_flight_like(120, num_attributes=6, error_rate=0.2,
                                 seed=31).relation
    request = DiscoveryRequest.approximate(0.1)
    appended = [donor.row(i) for i in range(40)]
    with Profiler(base, backend="numpy", num_workers=2) as session:
        session.discover(request)
        session.extend(appended)
        outcome = session.discover_incremental(request)
    cold = _cold_result(base, appended, "numpy", request, num_workers=2)
    assert _result_payload(outcome.result) == _result_payload(cold)
    two = plane_threads.expected(
        "numpy", request.to_config(backend="numpy", num_workers=2)
    )
    assert plane_threads.seen == [two, 0, two]


@pytest.mark.parametrize("backend", BACKENDS)
def test_memo_invalidation_is_selective(backend):
    """Entries of untouched contexts survive verbatim; entries of touched
    contexts are repaired per class or dropped — never silently kept."""
    base = Relation.from_columns({
        "a": [1, 1, 2, 2, 3, 3],
        "b": [5, 6, 5, 6, 5, 6],
        "c": [9, 9, 8, 8, 7, 7],
    })
    request = DiscoveryRequest.approximate(0.2)
    with Profiler(base, backend=backend) as session:
        session.discover(request)
        assert len(session.validation_memo) > 0
        # Appended row is unique on every attribute: only the unit context
        # (and any context whose classes it joins) changes.
        summary = session.extend([[100, 200, 300]])
        assert frozenset() in summary.affected_contexts
        surviving = list(session.validation_memo)
        assert (summary.retained_memo_entries
                + summary.adjusted_memo_entries) == len(surviving)
        assert summary.invalidated_memo_entries + len(surviving) > 0
        # Untouched single-attribute contexts kept their entries (keys hold
        # context masks; "a" is bit 0 in name order).
        assert any(key[2] == 0b1 for key in surviving)
        outcome = session.discover_incremental(request)
        cold = _cold_result(base, [(100, 200, 300)], backend, request)
        assert _result_payload(outcome.result) == _result_payload(cold)


@pytest.mark.parametrize("backend", BACKENDS)
def test_memo_adjustment_matches_fresh_kernels(backend):
    """A repaired entry must equal what a fresh kernel over the patched
    context computes — per-class additivity made observable."""
    from repro.discovery.engine import memo_outcome
    from repro.discovery.lattice import AttributeBits
    from repro.validation.approx_ofd import aofd_removal_rows
    from repro.validation.common import removal_limit

    base = generate_flight_like(120, num_attributes=5, error_rate=0.15,
                                seed=18).relation
    donor = generate_flight_like(60, num_attributes=5, error_rate=0.3,
                                 seed=27).relation
    request = DiscoveryRequest.approximate(0.25)  # large budget: no early exits
    with Profiler(base, backend=backend) as session:
        session.discover(request)
        session.extend([donor.row(i) for i in range(15)])
        memo = dict(session.validation_memo)
        encoded = session.encoded
        config = request.to_config()
        limit = removal_limit(session.relation.num_rows, request.threshold)
        checked = 0
        # Keys hold a context mask and bit positions in name order.
        bits = AttributeBits(session.relation.schema)
        names = bits.names
        for key, entry in memo.items():
            if entry[1]:
                continue  # "over budget" verdicts carry partial counts
            outcome = memo_outcome(entry, limit)
            if outcome is None:
                continue
            classes = session.partitions.get_by_names(
                sorted(bits.names_of(key[2]))
            )
            if key[0] == "oc" and key[1] == "optimal":
                [(fresh, _)] = session.backend.oc_optimal_removal_count_batch(
                    classes,
                    [(encoded.native_ranks(names[key[3]]),
                      encoded.native_ranks(names[key[4]]))],
                    None,
                )
            elif key[0] == "ofd" and key[1] == "approx":
                removal, _ = aofd_removal_rows(
                    classes, encoded.ranks(names[key[3]]), None
                )
                fresh = len(removal)
            else:
                continue
            assert outcome[0] == fresh, key
            checked += 1
        assert checked > 0


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("request_", [
    DiscoveryRequest.approximate(0.08),
    DiscoveryRequest.exact(),
], ids=["approx", "exact"])
def test_reported_diff_matches_two_cold_runs(backend, request_):
    """``revoked_*`` / ``added_*`` equal the statement diff of a cold run
    over the table the request last completed on and a cold run over the
    grown table, also when several appends lie between the two."""
    base = generate_flight_like(150, num_attributes=5, error_rate=0.1,
                                seed=2).relation
    donor = generate_flight_like(80, num_attributes=5, error_rate=0.5,
                                 seed=44).relation
    rng = random.Random(5)
    with Profiler(base, backend=backend) as session:
        session.discover(request_)
        previous, appended, changed = [], [], 0
        for num_appends in (2, 1):
            for _ in range(num_appends):
                batch = _random_rows(base.schema, donor, rng, 15)
                appended.extend(batch)
                session.extend(batch)
            outcome = session.discover_incremental(request_)
            revoked, added = _statement_diff(
                _cold_result(base, previous, backend, request_),
                _cold_result(base, appended, backend, request_),
            )
            assert [found.to_dict() for found in
                    outcome.revoked_ocs + outcome.revoked_ofds] == revoked
            assert [found.to_dict() for found in
                    outcome.added_ocs + outcome.added_ofds] == added
            changed += len(revoked) + len(added)
            previous = list(appended)
    assert changed > 0


@pytest.mark.parametrize("backend", BACKENDS)
def test_memo_repair_accounts_for_every_entry(backend):
    """On an unbounded memo every entry present before an append is
    invalidated, adjusted or retained, exactly once, and only the adjusted
    and retained ones are left."""
    base = generate_flight_like(160, num_attributes=5, error_rate=0.1,
                                seed=12).relation
    donor = generate_flight_like(90, num_attributes=5, error_rate=0.3,
                                 seed=37).relation
    request = DiscoveryRequest.approximate(0.1)
    with Profiler(base, backend=backend) as session:
        session.discover(request)
        kinds = set()
        for start in (0, 30, 60):
            before = len(session.validation_memo)
            summary = session.extend(
                [donor.row(i) for i in range(start, start + 30)]
            )
            counts = (summary.invalidated_memo_entries,
                      summary.adjusted_memo_entries,
                      summary.retained_memo_entries)
            assert sum(counts) == before
            assert counts[1] + counts[2] == len(session.validation_memo)
            kinds.update(i for i, count in enumerate(counts) if count)
            session.discover_incremental(request)
        assert kinds == {0, 1, 2}


@pytest.mark.parametrize("backend", BACKENDS)
def test_without_baseline_degrades_to_cold(backend):
    base = generate_flight_like(120, num_attributes=5, error_rate=0.1,
                                seed=9).relation
    request = DiscoveryRequest.approximate(0.1)
    with Profiler(base, backend=backend) as session:
        outcome = session.discover_incremental(request)
        assert outcome.previous is None
        assert outcome.num_revoked == 0 and outcome.num_added == 0
        # The run seeded a baseline: a later incremental pass diffs it.
        session.extend([base.row(0)])
        second = session.discover_incremental(request)
        assert second.previous is outcome.result


def test_streamed_run_seeds_the_baseline():
    """A discovery consumed through iter_events must feed later incremental
    diffs exactly like Profiler.discover does."""
    base = generate_flight_like(120, num_attributes=5, error_rate=0.1,
                                seed=16).relation
    request = DiscoveryRequest.approximate(0.1)
    with Profiler(base) as session:
        streamed = None
        for event in session.iter_events(request):
            if isinstance(event, RunCompleted):
                streamed = event.result
        session.extend([base.row(0)])
        outcome = session.discover_incremental(request)
        assert outcome.previous is streamed


def test_extend_refused_while_a_stream_is_suspended():
    """Patching warm state under a suspended iter_events generator would
    resume its engine onto rows its captured columns cannot cover; the
    session must refuse up front instead."""
    base = generate_flight_like(120, num_attributes=5, error_rate=0.1,
                                seed=22).relation
    request = DiscoveryRequest.approximate(0.1)
    with Profiler(base) as session:
        events = session.iter_events(request)
        next(events)
        with pytest.raises(RuntimeError, match="stream is active"):
            session.extend([base.row(0)])
        events.close()
        # Once the stream is closed the append goes through.
        assert session.extend([base.row(0)]).num_appended == 1


def test_extend_rejects_bad_rows():
    base = Relation.from_columns({"a": [1, 2], "b": [3, 4]})
    with Profiler(base) as session:
        with pytest.raises(ValueError, match="expected 2"):
            session.extend([[1, 2, 3]])
        with pytest.raises(ValueError, match="not in the schema"):
            session.extend([{"a": 1, "zz": 2}])
        # Mapping rows fill missing attributes with None.
        summary = session.extend([{"a": 5}])
        assert summary.num_appended == 1
        assert session.relation.column("b")[-1] is None
