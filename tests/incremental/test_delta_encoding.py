"""Delta encoding: ``EncodedRelation.extend`` vs a cold re-encode.

The contract is byte-identity: for any append, the extended encoding's rank
columns and dictionaries must equal those of encoding the concatenated
relation from scratch — on every backend.  The append fast path must be
taken exactly when the delta introduces no mid-domain values (existing
codes stay valid); everything else remaps order-preservingly.
"""

import random

import numpy as np
import pytest

from repro.backend.numpy_backend import stable_rank_order
from repro.dataset.encoding import (
    EXTEND_APPENDED,
    EXTEND_REMAPPED,
    EncodedRelation,
)
from repro.dataset.relation import Relation
from repro.dataset.schema import AttributeType

BACKENDS = ["python", "numpy"]


def _extend_and_compare(base, delta_columns, backend):
    """Extend ``base``'s encoding by ``delta_columns`` and compare against a
    cold encode of the concatenated relation.  Returns the mode map."""
    encoded = EncodedRelation.from_relation(base, backend)
    extended, modes = encoded.extend(delta_columns)
    concatenated = base.concat(Relation(base.schema, delta_columns))
    cold = EncodedRelation.from_relation(concatenated, backend)
    assert extended.num_rows == cold.num_rows
    for name in base.attribute_names:
        assert extended.ranks(name) == cold.ranks(name), name
        assert extended.dictionary(name) == cold.dictionary(name), name
        assert list(extended.native_ranks(name)) == cold.ranks(name), name
    # The source encoding must be untouched (sessions swap, never mutate).
    assert encoded.num_rows == base.num_rows
    for name in base.attribute_names:
        assert len(encoded.ranks(name)) == base.num_rows
    return modes


@pytest.mark.parametrize("backend", BACKENDS)
class TestExtendColumnModes:
    def test_existing_values_append(self, backend):
        base = Relation.from_columns({"a": [3, 1, 2, 1], "b": ["x", "y", "x", "z"]})
        modes = _extend_and_compare(base, {"a": [2, 1], "b": ["y", "x"]}, backend)
        assert modes == {"a": EXTEND_APPENDED, "b": EXTEND_APPENDED}

    def test_tail_values_append(self, backend):
        base = Relation.from_columns({"a": [3, 1, 2], "b": ["m", "k", "m"]})
        modes = _extend_and_compare(base, {"a": [9, 4], "b": ["z", "m"]}, backend)
        assert modes == {"a": EXTEND_APPENDED, "b": EXTEND_APPENDED}

    def test_mid_domain_value_remaps(self, backend):
        base = Relation.from_columns({"a": [10, 30, 20], "b": ["x", "x", "y"]})
        modes = _extend_and_compare(base, {"a": [25], "b": ["x"]}, backend)
        assert modes == {"a": EXTEND_REMAPPED, "b": EXTEND_APPENDED}

    def test_new_minimum_remaps(self, backend):
        base = Relation.from_columns({"a": [10, 30, 20]})
        modes = _extend_and_compare(base, {"a": [-5]}, backend)
        assert modes == {"a": EXTEND_REMAPPED}

    def test_null_handling(self, backend):
        with_null = Relation.from_columns({"a": [None, 3, 1]})
        modes = _extend_and_compare(with_null, {"a": [None, 5]}, backend)
        assert modes == {"a": EXTEND_APPENDED}  # null rank 0 already exists
        without_null = Relation.from_columns({"a": [3, 1]})
        modes = _extend_and_compare(without_null, {"a": [None]}, backend)
        assert modes == {"a": EXTEND_REMAPPED}  # NULLS FIRST forces a remap

    def test_tie_with_dictionary_maximum_appends(self, backend):
        # "7" in an integer-typed column shares 7's sort key; the reference
        # encoder breaks the tie by first appearance, which for a tie with
        # the dictionary *maximum* is exactly the append order.
        base = Relation.from_rows([[3], [7]], ["a"], [AttributeType.INTEGER])
        modes = _extend_and_compare(base, {"a": ["7", 9]}, backend)
        assert modes == {"a": EXTEND_APPENDED}

    def test_tie_with_interior_entry_remaps(self, backend):
        base = Relation.from_rows([[3], [7]], ["a"], [AttributeType.INTEGER])
        modes = _extend_and_compare(base, {"a": ["3"]}, backend)
        assert modes == {"a": EXTEND_REMAPPED}
        # In a STRING column 3 and "3" (1 and "1") share a sort key: the new
        # value goes after the interior entry it ties with.
        for rows, delta in (([[1], ["b"], [3]], ["3", "1"]),
                            ([["1"], ["b"], [4.5]], [1, "4.5"])):
            base = Relation.from_rows(rows, ["a"], [AttributeType.STRING])
            modes = _extend_and_compare(base, {"a": delta}, backend)
            assert modes == {"a": EXTEND_REMAPPED}

    def test_empty_delta(self, backend):
        base = Relation.from_columns({"a": [3, 1, 2]})
        modes = _extend_and_compare(base, {"a": []}, backend)
        assert modes == {"a": EXTEND_APPENDED}


def _typed(values):
    """Each value as ``(type, repr)``: ``1``, ``True`` and ``1.0`` (or
    ``0.0`` and ``-0.0``) compare equal but must not stand for each other."""
    return [(type(value), repr(value)) for value in values]


_NAN = float("nan")

#: Value pools, each with its column type.  Numeric pools mix ints,
#: floats, NaN (one shared object and fresh ones), ±0.0, ``True`` / ``1.0``
#: beside ``1`` and numeric strings, so keys tie, collide and fail to
#: order.  The mixed pool puts non-``str`` values into a STRING column,
#: where ``1`` and ``"1"`` (or ``4.5`` and ``"4.5"``) key alike and tie.
_POOLS = {
    "int": (AttributeType.INTEGER,
            [None, -3, 0, 1, 2, 5, 7, 11, 20, 20.5, 3.25, True, 1.0, -0.0,
             0.0, "7", "nan"]),
    "float": (AttributeType.FLOAT,
              [None, -1.5, -0.0, 0.0, 0.25, 1.0, 1, True, 2.5, 1e300,
               float("inf"), _NAN]),
    "str": (AttributeType.STRING, [None, "a", "b", "ba", "c", "zz", "", "B"]),
    "bool": (AttributeType.BOOLEAN, [None, True, False, 1, 0, "1", "x"]),
    "mixed": (AttributeType.STRING,
              [None, 1, "1", 2, "03", True, "True", 4.5, "4.5"]),
}


def _draw(rng, pool):
    value = rng.choice(pool)
    # A fresh NaN object is a new distinct value every time.
    return float("nan") if value is _NAN and rng.random() < 0.5 else value


def _deltas(rng, dictionary, pool, attr_type):
    """A delta per shape: repeats, tail values, a mid-domain insert, a new
    minimum, a key tie, ``None`` first, and random draws from ``pool``."""
    present = [value for value in dictionary if value is not None]
    shapes = [[_draw(rng, pool) for _ in range(rng.randint(1, 8))]]
    if present:
        shapes.append([rng.choice(present) for _ in range(3)])
    numeric = [v for v in present
               if type(v) in (int, float) and v == v and abs(v) < 1e200]
    if numeric:
        low, high = min(numeric), max(numeric)
        shapes.append([high + 1, rng.choice(present)])       # tail
        shapes.append([(low + high) / 2 + 0.125])            # mid-domain
        shapes.append([low - 1, rng.choice(present)])        # new minimum
    strings = [v for v in present if type(v) is str]
    if strings:
        shapes.append([min(strings) + "m"])                  # mid-domain
        shapes.append(["", "!" + max(strings)])              # new minimum
    if attr_type is AttributeType.STRING:
        # A new value keyed like an existing non-str entry (its str):
        # inserted after the entries it ties with, by first occurrence.
        others = [v for v in present if type(v) is not str]
        if others:
            shapes.append([str(min(others, key=str)), rng.choice(present)])
    shapes.append([None] + [_draw(rng, pool) for _ in range(3)])
    shapes.append([_NAN, float("nan"), -0.0, 0.0, True, 1.0, 1])
    return shapes


@pytest.mark.parametrize("backend", BACKENDS)
def test_randomized_extend_parity(backend):
    """Property-style sweep: random base columns of every type, extended
    step by step by deltas of every shape (repeats, tail extensions,
    mid-domain inserts, new minima, ``None`` first, NaN, ±0.0,
    ``1`` / ``True`` / ``1.0`` and, in STRING columns, ``1`` beside
    ``"1"``).  After every step the ranks and
    dictionaries equal, element for element in type and repr, those of a
    cold encode of the concatenation, and an appended column kept every
    existing code."""
    rng = random.Random(20260726)
    modes_seen = set()
    for trial in range(40):
        attr_type, pool = _POOLS[rng.choice(sorted(_POOLS))]
        rows = [[_draw(rng, pool)] for _ in range(rng.randint(0, 12))]
        relation = Relation.from_rows(rows, ["v"], [attr_type])
        encoded = EncodedRelation.from_relation(relation, backend)
        for delta in _deltas(rng, encoded.dictionary("v"), pool, attr_type):
            extended, modes = encoded.extend({"v": delta})
            relation = relation.concat(Relation(relation.schema, {"v": delta}))
            cold = EncodedRelation.from_relation(relation, backend)
            assert extended.ranks("v") == cold.ranks("v"), (attr_type, delta)
            assert list(extended.native_ranks("v")) == cold.ranks("v")
            assert _typed(extended.dictionary("v")) == _typed(
                cold.dictionary("v")
            ), (attr_type, delta)
            if modes["v"] == EXTEND_APPENDED:
                # Every existing code kept its value.
                assert encoded.ranks("v") == extended.ranks("v")[
                    :encoded.num_rows
                ]
                assert _typed(encoded.dictionary("v")) == _typed(
                    extended.dictionary("v")[:encoded.cardinality("v")]
                )
            modes_seen.add(modes["v"])
            encoded = extended
    assert modes_seen == {EXTEND_APPENDED, EXTEND_REMAPPED}


def test_extend_rejects_mismatched_columns():
    base = Relation.from_columns({"a": [1, 2], "b": [3, 4]})
    encoded = EncodedRelation.from_relation(base)
    with pytest.raises(ValueError, match="do not match schema"):
        encoded.extend({"a": [1]})
    with pytest.raises(ValueError, match="inconsistent lengths"):
        encoded.extend({"a": [1], "b": []})


@pytest.mark.parametrize("backend", BACKENDS)
def test_extend_carries_row_orders(backend):
    """A row order cached before an append is carried into the extended
    encoding, the appended rows inserted after the old rows of their rank,
    and equals a fresh stable sort of the new ranks, over appended,
    remapped, NaN and mixed-type columns and deltas of every shape.  Only
    a column re-encoded in full (a NaN sort key) builds its order anew."""
    rng = random.Random(20261019)
    carried = rebuilt = 0
    modes_seen = set()
    for trial in range(40):
        attr_type, pool = _POOLS[rng.choice(sorted(_POOLS))]
        rows = [[_draw(rng, pool)] for _ in range(rng.randint(0, 12))]
        relation = Relation.from_rows(rows, ["v"], [attr_type])
        encoded = EncodedRelation.from_relation(relation, backend)
        for delta in _deltas(rng, encoded.dictionary("v"), pool, attr_type):
            encoded.row_order_by_index(0)
            extended, modes = encoded.extend({"v": delta})
            if 0 in extended._orders:
                carried += 1
            else:
                rebuilt += 1
            order = extended.row_order_by_index(0)
            assert order.dtype == np.int32
            assert np.array_equal(
                order, stable_rank_order(extended.native_ranks_by_index(0))
            ), (attr_type, delta)
            modes_seen.add(modes["v"])
            encoded = extended
    assert modes_seen == {EXTEND_APPENDED, EXTEND_REMAPPED}
    assert carried and rebuilt
