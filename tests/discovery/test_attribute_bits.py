"""Attribute-set bitmasks are invisible in results.

The level loop numbers attributes by the relation's schema in *name* order
(:class:`repro.discovery.lattice.AttributeBits`), and a session's memo keys
are masks under that numbering.  Two differentials pin it down:

* a table whose columns are renamed (order-preservingly) and permuted, so
  its column order differs from the original's, reports exactly the
  original's dependencies, removal sizes, levels and order;
* a random session script mixing ``discover`` over attribute subsets and
  thresholds, ``extend`` and ``discover_incremental`` equals a cold run of
  the current table after every step.  A numbering per request (bit ``i``
  = the request's ``i``-th attribute) aliases memo entries across subsets
  and fails it.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.dataset.generators import generate_flight_like, generate_ncvoter_like
from repro.dataset.relation import Relation
from repro.discovery.api import discover
from repro.discovery.config import DiscoveryRequest
from repro.discovery.session import Profiler

BACKENDS = ["python", "numpy"]

CONFIGS = {
    "exact": dict(threshold=0.0, validator="exact"),
    "optimal": dict(threshold=0.1, validator="optimal"),
    "iterative": dict(threshold=0.1, validator="iterative"),
}

PREFIX = "col_"


def _payload(result):
    """Reported dependencies, in reported order, with their sizes and levels."""
    payload = result.to_dict()
    return {"ocs": payload["ocs"], "ofds": payload["ofds"]}


def _unprefixed(payload):
    """``payload`` with the renaming undone."""
    def strip(name):
        assert name.startswith(PREFIX), name
        return name[len(PREFIX):]

    def rename(found):
        found = dict(found)
        found["context"] = [strip(name) for name in found["context"]]
        for side in ("a", "b", "attribute"):
            if side in found:
                found[side] = strip(found[side])
        return found

    return {kind: [rename(found) for found in payload[kind]]
            for kind in payload}


def _renamed_and_permuted(relation, seed):
    """The table with every column renamed by a prefix (which keeps name
    order) and the columns shuffled into another order."""
    names = list(relation.attribute_names)
    order = names[:]
    rng = random.Random(seed)
    while order == names:
        rng.shuffle(order)
    return Relation.from_columns(
        {PREFIX + name: relation.column(name) for name in order}
    )


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("generator", ["flight", "ncvoter"])
def test_permuted_schema_reports_like_the_original(backend, config, generator):
    make = generate_flight_like if generator == "flight" else \
        generate_ncvoter_like
    relation = make(300, num_attributes=7, seed=4).relation
    names = relation.attribute_names
    assert names != sorted(names)  # name order differs from column order
    permuted = _renamed_and_permuted(relation, seed=4)
    assert permuted.attribute_names != [PREFIX + n for n in names]
    subset = [names[4], names[0], names[2], names[6]]
    for attributes in (None, subset):
        original = DiscoveryRequest(attributes=attributes, **CONFIGS[config])
        renamed = DiscoveryRequest(
            attributes=None if attributes is None
            else [PREFIX + name for name in attributes],
            **CONFIGS[config],
        )
        expected = discover(relation, original, backend=backend)
        got = discover(permuted, renamed, backend=backend)
        assert expected.num_dependencies > 0
        assert _unprefixed(_payload(got)) == _payload(expected)
        assert got.stats.nodes_per_level == expected.stats.nodes_per_level
        assert got.stats.oc_candidates_validated == \
            expected.stats.oc_candidates_validated
        assert got.stats.ofd_candidates_validated == \
            expected.stats.ofd_candidates_validated
    # A warm session over the permuted table reports the same again.
    with Profiler(permuted, backend=backend) as session:
        request = DiscoveryRequest(**CONFIGS[config])
        session.discover(request)
        warm = session.discover(request)
    assert warm.stats.validation_memo_hits > 0
    expected = discover(relation, DiscoveryRequest(**CONFIGS[config]),
                        backend=backend)
    assert _unprefixed(_payload(warm)) == _payload(expected)


#: Column names drawn so that name order and column order disagree.
NAMES = ["d", "b", "e", "a", "c"]


@st.composite
def _tables(draw):
    width = draw(st.integers(3, len(NAMES)))
    names = draw(st.permutations(NAMES))[:width]
    num_rows = draw(st.integers(6, 24))
    rows = draw(st.lists(
        st.tuples(*[st.integers(0, 3) for _ in names]),
        min_size=num_rows + 12, max_size=num_rows + 12,
    ))
    return names, rows[:num_rows], rows[num_rows:]


def _requests(names):
    subsets = st.one_of(
        st.none(),
        st.lists(st.sampled_from(names), min_size=2, unique=True),
    )
    return st.builds(
        lambda threshold, validator, attributes: DiscoveryRequest(
            threshold=threshold, validator=validator, attributes=attributes,
        ),
        st.sampled_from([0.0, 0.1, 0.25]),
        st.sampled_from(["optimal", "optimal", "iterative"]),
        subsets,
    )


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(table=_tables(), data=st.data())
def test_session_script_matches_cold_runs(table, data):
    names, base_rows, spare_rows = table
    relation = Relation.from_columns(
        {name: [row[i] for row in base_rows] for i, name in enumerate(names)}
    )
    steps = data.draw(st.lists(
        st.one_of(
            st.tuples(st.just("discover"), _requests(names)),
            st.tuples(st.just("incremental"), _requests(names)),
            st.tuples(st.just("extend"), st.integers(1, 4)),
        ),
        min_size=3, max_size=8,
    ))
    with Profiler(relation, backend=None) as session:
        for kind, argument in steps:
            if kind == "extend":
                rows, spare_rows = spare_rows[:argument], spare_rows[argument:]
                session.extend(rows)
                continue
            if kind == "discover":
                result = session.discover(argument)
            else:
                result = session.discover_incremental(argument).result
            cold = discover(session.relation, argument)
            assert _payload(result) == _payload(cold), (kind, argument)
