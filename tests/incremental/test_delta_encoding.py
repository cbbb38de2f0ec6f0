"""Delta encoding: ``EncodedRelation.extend`` vs a cold re-encode.

The contract is byte-identity: for any append, the extended encoding's rank
columns and dictionaries must equal those of encoding the concatenated
relation from scratch — on every backend.  The append fast path must be
taken exactly when the delta introduces no mid-domain values (existing
codes stay valid); everything else remaps order-preservingly.
"""

import random

import pytest

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

    def test_empty_delta(self, backend):
        base = Relation.from_columns({"a": [3, 1, 2]})
        modes = _extend_and_compare(base, {"a": []}, backend)
        assert modes == {"a": EXTEND_APPENDED}


@pytest.mark.parametrize("backend", BACKENDS)
def test_randomized_extend_parity(backend):
    """Property-style sweep: random base/delta draws over pools that force
    every mode (repeats, tail extensions, mid-domain inserts, nulls)."""
    rng = random.Random(20260726)
    pools = {
        "num": [None, -3, 0, 1, 2, 5, 7, 11, 20, 20.5, 3.25],
        "str": [None, "a", "b", "ba", "c", "zz", ""],
        "mixed": [None, 1, "1", 2, "03", True, 4.5],
    }
    for trial in range(25):
        pool_name = rng.choice(sorted(pools))
        pool = pools[pool_name]
        base_rows = [[rng.choice(pool)] for _ in range(rng.randint(0, 12))]
        delta = [rng.choice(pool) for _ in range(rng.randint(1, 8))]
        base = Relation.from_rows(base_rows, ["v"])
        _extend_and_compare(base, {"v": delta}, backend)


def test_extend_rejects_mismatched_columns():
    base = Relation.from_columns({"a": [1, 2], "b": [3, 4]})
    encoded = EncodedRelation.from_relation(base)
    with pytest.raises(ValueError, match="do not match schema"):
        encoded.extend({"a": [1]})
    with pytest.raises(ValueError, match="inconsistent lengths"):
        encoded.extend({"a": [1], "b": []})
