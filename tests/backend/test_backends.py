"""Unit tests for the compute-backend registry and kernel parity.

The ``"numpy"`` configuration must be observationally identical to the
``"python"`` reference configuration on every kernel: encoding (including
dirty mixed-type columns), exact checks and both removal-count batches,
including early-exit behaviour under a removal budget.  Partition
construction, refinement and products are checked against the
hand-grouping oracle in both configurations.  These tests compare the
implementations directly on randomised inputs; ``test_differential.py``
does the same at the level of whole discovery runs.
"""

import random

import numpy
import pytest
from _partition_oracle import classes_of, group, product, refine
from hypothesis import given, settings, strategies as st

from repro.backend import (
    BACKEND_ENV_VAR,
    default_backend_name,
    get_backend,
    native,
    resolve_backend,
)
from repro.backend import numpy_backend as numpy_backend_module
from repro.backend.numpy_backend import NumpyBackend
from repro.dataset.encoding import (
    EXTEND_APPENDED,
    EXTEND_REMAPPED,
    EncodedRelation,
    encode_column,
)
from repro.dataset.partition import Partition
from repro.dataset.relation import Relation
from repro.dataset.schema import Attribute, AttributeType, Schema
from repro.dependencies.oc import CanonicalOC
from repro.validation.approx_oc_optimal import validate_aoc_optimal
from repro.validation.exact_oc import oc_holds_in_classes
from repro.validation.exact_ofd import ofd_holds_in_classes

python_backend = get_backend("python")
numpy_backend = get_backend("numpy")
BOTH = (python_backend, numpy_backend)


class TestRegistry:
    def test_python_names_the_reference_configuration(self, monkeypatch):
        """Both names select the one backend class; ``python`` turns
        every fast path off, even where the native library loads."""
        assert type(python_backend) is type(numpy_backend) is NumpyBackend
        assert (python_backend.name, numpy_backend.name) == ("python", "numpy")
        assert python_backend.oc_kernel_name == "python"
        expected = "python" if native.kernels() is None else "native"
        assert numpy_backend.oc_kernel_name == expected

        def no_fast_path(*args):
            raise AssertionError("the reference configuration encoded fast")

        for encoder in ("_encode_array", "_encode_distinct"):
            monkeypatch.setattr(numpy_backend_module, encoder, no_fast_path)
        ranks, dictionary, column = python_backend.encode_column(
            [3, 1, 3], AttributeType.INTEGER
        )
        assert ranks == [1, 0, 1] and dictionary == [1, 3]
        assert column.dtype == numpy.int32

    def test_get_backend_is_singleton(self):
        assert get_backend("python") is get_backend("python")
        assert get_backend("numpy") is get_backend("numpy")

    def test_auto_prefers_numpy(self):
        assert get_backend("auto").name == "numpy"

    def test_resolve_instance_passthrough(self):
        backend = NumpyBackend()
        assert resolve_backend(backend) is backend

    def test_resolve_name(self):
        assert resolve_backend("python").name == "python"
        assert resolve_backend("numpy").name == "numpy"

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError):
            get_backend("cuda")

    def test_env_var_controls_default(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "python")
        assert default_backend_name() == "python"
        assert resolve_backend(None).name == "python"
        monkeypatch.setenv(BACKEND_ENV_VAR, "numpy")
        assert resolve_backend(None).name == "numpy"
        monkeypatch.delenv(BACKEND_ENV_VAR)
        assert default_backend_name() == "numpy"  # auto, numpy installed


# -- encoding parity -----------------------------------------------------------


class _Reversed(str):
    """A ``str`` subclass whose ``str()`` differs from its value: the
    reference sorts it by ``str(value)``, so it must take the keyed sort."""

    def __str__(self):
        return self[::-1]


def _same_dictionary(dictionary, reference):
    """Element-wise identity of two decode dictionaries: equal length,
    and per entry the same type and ``repr`` (so ``0.0`` vs ``-0.0`` and
    ``1`` vs ``True`` vs ``1.0`` differ); a NaN must be the reference's
    own object, so distinct NaN objects are not merged or reordered."""
    return len(dictionary) == len(reference) and all(
        type(value) is type(expected)
        and repr(value) == repr(expected)
        and (value == value or value is expected)
        for value, expected in zip(dictionary, reference)
    )


def _assert_encodes_as_reference(values, attr_type):
    reference_ranks, reference_dict = encode_column(values, attr_type)
    ranks, dictionary, native = numpy_backend.encode_column(values, attr_type)
    assert native.dtype == numpy.int32
    assert native.tolist() == reference_ranks
    # ranks may be None (derived lazily from native)
    assert ranks is None or ranks == reference_ranks
    assert _same_dictionary(dictionary, reference_dict), (dictionary, reference_dict)


def _branch(values, attr_type):
    """Which branch of the numpy encoder takes ``values``: ``"array"``
    (one NumPy array), ``"plain"`` (value dictionary, natural sort) or
    ``"keyed"`` (value dictionary, sorted by the reference's sort keys)."""
    numeric = attr_type in (AttributeType.INTEGER, AttributeType.FLOAT)
    if numeric and numpy_backend_module._encode_array(values) is not None:
        return "array"
    distinct = dict.fromkeys(value for value in values if value is not None)
    plain = numpy_backend_module._plainly_sorted(distinct, numeric)
    return "plain" if plain else "keyed"


mixed_values = st.lists(
    st.one_of(
        st.none(),
        st.integers(min_value=-(10 ** 6), max_value=10 ** 6),
        st.integers(min_value=-(2 ** 70), max_value=2 ** 70),
        st.integers(min_value=2 ** 53 - 2, max_value=2 ** 53 + 2),
        st.floats(allow_nan=True, allow_infinity=True),
        st.sampled_from([0.0, -0.0, 1, 1.0, True, False, 0, "1", "-0"]),
        st.text(max_size=8),
        st.builds(_Reversed, st.text(max_size=4)),
        st.booleans(),
    ),
    max_size=60,
)

#: Columns of one value type each, the ones the ``array`` and ``plain``
#: branches take.
homogeneous_values = st.one_of(
    st.lists(st.integers(min_value=-40, max_value=40), max_size=60),
    st.lists(st.integers(min_value=-(2 ** 62), max_value=2 ** 62), max_size=60),
    st.lists(
        st.one_of(st.none(), st.integers(-(2 ** 53), 2 ** 53)), max_size=60
    ),
    st.lists(st.one_of(st.none(), st.floats(allow_nan=False)), max_size=60),
    st.lists(st.one_of(st.none(), st.text(max_size=4)), max_size=60),
)


class TestEncodingParity:
    @pytest.mark.parametrize("attr_type", list(AttributeType))
    @given(values=mixed_values)
    @settings(max_examples=60, deadline=None)
    def test_ranks_match_reference(self, attr_type, values):
        _assert_encodes_as_reference(values, attr_type)

    @pytest.mark.parametrize("attr_type", list(AttributeType))
    @given(values=homogeneous_values)
    @settings(max_examples=60, deadline=None)
    def test_homogeneous_columns_match_reference(self, attr_type, values):
        _assert_encodes_as_reference(values, attr_type)

    @pytest.mark.parametrize(
        "values, attr_type",
        [
            ([3, 1, 2, 1, None, 3], AttributeType.INTEGER),
            ([1.5, -2.25, 1.5, 0.0], AttributeType.FLOAT),
            (["b", "a", "", "b"], AttributeType.STRING),
            ([10, "9", 11], AttributeType.INTEGER),
            ([True, False, True], AttributeType.BOOLEAN),
            ([None, None], AttributeType.STRING),
            # ints at and beyond float precision, and beyond int64
            ([(1 << 53) + 1, 1 << 53, 3, (1 << 53) + 1], AttributeType.INTEGER),
            ([1 << 63, -(1 << 63), 1 << 64, 0], AttributeType.INTEGER),
            ([(1 << 63) - 1, 1 << 63, None], AttributeType.FLOAT),
            # NUL-bearing strings
            (["a\0", "a", "a\0\0", None, "\0"], AttributeType.STRING),
            # str subclasses
            ([_Reversed("ab"), "b", "ac", "ab"], AttributeType.STRING),
            (["b", _Reversed("b"), "a"], AttributeType.STRING),
            # numeric strings in numeric columns
            (["10", 9, "9", "x", 9.5, "-1e3"], AttributeType.INTEGER),
            (["2.5", "nan", 1.0, "a"], AttributeType.FLOAT),
            # zero signs and the 1 / True / 1.0 merge keep first occurrences
            ([-0.0, 0.0, 1.5, 0.0], AttributeType.FLOAT),
            ([0.0, -0.0], AttributeType.FLOAT),
            ([0.0, -3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0, -3.0, -2.0, -0.0],
             AttributeType.FLOAT),
            ([True, 1, 1.0, 0, False], AttributeType.INTEGER),
            ([1.0, True, 1], AttributeType.FLOAT),
            # all-None and empty columns
            ([None, None, None], AttributeType.INTEGER),
            ([], AttributeType.INTEGER),
            ([], AttributeType.STRING),
        ],
    )
    def test_dictionaries_match_reference(self, values, attr_type):
        _assert_encodes_as_reference(values, attr_type)

    def test_nul_strings_fall_back_to_reference(self):
        """NUL-bearing strings stay distinct ('a' and 'a\\0' are two
        values), as in the reference encoder."""
        values = ["a", "a\0", "b", "a"]
        _assert_encodes_as_reference(values, AttributeType.STRING)
        _, dictionary, native = numpy_backend.encode_column(
            values, AttributeType.STRING
        )
        assert dictionary == ["a", "a\0", "b"]
        assert native.tolist() == [0, 1, 2, 0]

    def test_distinct_nan_objects_stay_distinct(self):
        first, second = float("nan"), float("nan")
        values = [second, 1.0, first, second, None]
        _assert_encodes_as_reference(values, AttributeType.FLOAT)
        _, dictionary, native = numpy_backend.encode_column(
            values, AttributeType.FLOAT
        )
        assert [id(value) for value in dictionary].count(id(first)) == 1
        assert [id(value) for value in dictionary].count(id(second)) == 1
        assert len(set(native.tolist())) == 4

    @pytest.mark.parametrize(
        "values, attr_type, branch",
        [
            ([], AttributeType.INTEGER, "plain"),
            ([None, None, None], AttributeType.STRING, "plain"),
            ([None, None], AttributeType.INTEGER, "plain"),
            ([1, "a", 2], AttributeType.STRING, "keyed"),
            ([1, 2.5, None, 3], AttributeType.FLOAT, "plain"),
            ([True, False, None, True], AttributeType.BOOLEAN, "keyed"),
            ([1, True, 0], AttributeType.INTEGER, "plain"),
            ([1.0, float("nan"), None, 0.5], AttributeType.FLOAT, "keyed"),
            (["a", None, "a\0", "b"], AttributeType.STRING, "plain"),
            (["\0", "a"], AttributeType.STRING, "plain"),
            ([1 << 53, 1, None], AttributeType.INTEGER, "keyed"),
            ([-(1 << 53), 3], AttributeType.FLOAT, "keyed"),
            ([1 << 70, 1], AttributeType.INTEGER, "keyed"),
            ([3, 1, 2], AttributeType.STRING, "keyed"),
            (["1", "2"], AttributeType.INTEGER, "keyed"),
            ([(1 << 53) - 1, None, -((1 << 53) - 1), 0], AttributeType.INTEGER, "array"),
            ([3, None, 1, 3], AttributeType.FLOAT, "array"),
            ([0.5, None, -1.0, 0.5], AttributeType.FLOAT, "array"),
            (["b", None, "a", "b"], AttributeType.STRING, "plain"),
            (["b", "a", ""], AttributeType.BOOLEAN, "plain"),
            ([5, 3, 5, 4], AttributeType.FLOAT, "array"),
            ([None, -0.0, 2.5, 0.0, float("inf")], AttributeType.FLOAT, "array"),
            ([1 << 63, 1], AttributeType.INTEGER, "keyed"),
            ([_Reversed("b"), "a"], AttributeType.STRING, "keyed"),
            ([float("nan"), 1.0], AttributeType.FLOAT, "keyed"),
            ([float("inf"), 1], AttributeType.FLOAT, "keyed"),
        ],
    )
    def test_fast_path_decisions_match_reference(
        self, values, attr_type, branch
    ):
        """Which branch each column takes: in a numeric column, present
        values that are all plain ints inside ±2^53, or all floats other
        than NaN, rank as one NumPy array; every other column goes through
        the value dictionary, sorted plainly when all values are exact
        ``str`` (non-numeric column) or ints and floats inside ±2^53
        (numeric column), else by the reference sort keys.  Every column
        encodes exactly as the reference does."""
        assert _branch(values, attr_type) == branch
        _assert_encodes_as_reference(values, attr_type)

    def test_fast_path_produces_int32_native(self):
        _, _, native = numpy_backend.encode_column(
            list(range(100, 0, -1)), AttributeType.INTEGER
        )
        assert native.dtype == numpy.int32

    def test_dense_and_sparse_int_columns(self):
        """The presence table and ``np.unique`` rank alike."""
        dense = [7, -3, 7, 0, 12]
        sparse = [7 * 10 ** 9, -3, 7 * 10 ** 9, 0]
        for values in (dense, sparse, [None, *dense], [*sparse, None]):
            assert _branch(values, AttributeType.INTEGER) == "array"
            _assert_encodes_as_reference(values, AttributeType.INTEGER)

    def test_random_extends_match_cold_encoding(self):
        """Chained appends, some that extend the dictionaries and some
        that remap a column, leave ``EncodedRelation.extend`` equal to
        the reference encoding of the concatenated table."""
        rng = random.Random(29)
        pools = {
            "i": [None] + list(range(-20, 60, 3)) + [1 << 53, (1 << 53) + 1],
            "f": [None, -0.0, 0.0, 0.5, 1.0, 2.25, -7.5, float("inf"), 1],
            "s": [None, "", "a", "a\0", "ab", "b", "zz", _Reversed("ba")],
            "m": [None, 1, "1", 2, True, 4.5, "x"],
        }
        types = {"i": AttributeType.INTEGER, "f": AttributeType.FLOAT,
                 "s": AttributeType.STRING, "m": AttributeType.INTEGER}
        schema = Schema([Attribute(name, types[name]) for name in sorted(pools)])
        modes_seen = set()
        for _ in range(12):
            # The base draws from the low half of each pool, so appends
            # both extend the dictionaries and insert mid-domain values.
            size = rng.randint(0, 10)
            relation = Relation(schema, {
                name: [rng.choice(pool[: len(pool) // 2]) for _ in range(size)]
                for name, pool in pools.items()
            })
            encoded = EncodedRelation.from_relation(relation, numpy_backend)
            for _ in range(rng.randint(1, 5)):
                count = rng.randint(0, 6)
                delta = {name: [rng.choice(pool) for _ in range(count)]
                         for name, pool in pools.items()}
                encoded, modes = encoded.extend(delta)
                modes_seen.update(modes.values())
                relation = relation.concat(Relation(schema, delta))
                for name in schema.names:
                    reference_ranks, reference_dict = encode_column(
                        relation.column(name), types[name]
                    )
                    assert encoded.ranks(name) == reference_ranks, name
                    assert encoded.native_ranks(name).tolist() == reference_ranks
                    assert _same_dictionary(
                        encoded.dictionary(name), reference_dict
                    ), name
        assert modes_seen == {EXTEND_APPENDED, EXTEND_REMAPPED}


# -- partition parity ----------------------------------------------------------

small_column = st.lists(st.integers(min_value=0, max_value=5), min_size=0, max_size=50)


class TestPartitionParity:
    @given(column=small_column)
    @settings(max_examples=60, deadline=None)
    def test_single(self, column):
        for backend in BOTH:
            built = backend.partition_single(
                backend.to_native(column), len(column)
            )
            assert classes_of(built) == group(column)
            assert built.classes == group(column)  # identical lists of ints

    @given(base=small_column, refiner=small_column)
    @settings(max_examples=60, deadline=None)
    def test_refine(self, base, refiner):
        size = min(len(base), len(refiner))
        base, refiner = base[:size], refiner[:size]
        partition = Partition.single(base)
        for backend in BOTH:
            refined = backend.partition_refine(
                partition, backend.to_native(refiner)
            )
            assert classes_of(refined) == refine(group(base), refiner)

    @given(left=small_column, right=small_column)
    @settings(max_examples=60, deadline=None)
    def test_product(self, left, right):
        size = min(len(left), len(right))
        left, right = left[:size], right[:size]
        for backend in BOTH:
            result = backend.partition_product(
                Partition.single(left), Partition.single(right)
            )
            assert classes_of(result) == product(group(left), group(right))

    def test_product_size_mismatch(self):
        for backend in BOTH:
            with pytest.raises(ValueError):
                backend.partition_product(
                    Partition.single([0, 0]), Partition.single([0, 0, 0])
                )


# -- validation kernel parity --------------------------------------------------

def _random_kernel_input(draw, max_rows=60, max_rank=6):
    num_rows = draw(st.integers(min_value=0, max_value=max_rows))
    ranks = st.lists(
        st.integers(min_value=0, max_value=max_rank),
        min_size=num_rows, max_size=num_rows,
    )
    a = draw(ranks)
    b = draw(ranks)
    context = draw(ranks)
    classes = Partition.single(context).classes
    return classes, a, b


class TestKernelParity:
    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_all_kernels_match(self, data):
        classes, a, b = _random_kernel_input(data.draw)
        native_a = numpy_backend.to_native(a)
        native_b = numpy_backend.to_native(b)
        limit = data.draw(st.one_of(st.none(), st.integers(min_value=0, max_value=8)))

        # Exact checks are counts at limit 0.
        for backend, oc_pair, ofd_column in (
            (numpy_backend, (native_a, native_b), native_b),
            (python_backend, (a, b), b),
        ):
            [(_, oc_broken)] = backend.oc_optimal_removal_count_batch(
                classes, [oc_pair], 0
            )
            assert oc_broken == (not oc_holds_in_classes(classes, a, b))
            [(_, ofd_broken)] = backend.ofd_removal_batch(
                classes, [ofd_column], 0
            )
            assert ofd_broken == (not ofd_holds_in_classes(classes, b))
        assert numpy_backend.oc_optimal_removal_count_batch(
            classes, [(native_a, native_b)], limit
        ) == python_backend.oc_optimal_removal_count_batch(
            classes, [(a, b)], limit
        )
        assert numpy_backend.ofd_removal_batch(
            classes, [native_b], limit
        ) == python_backend.ofd_removal_batch(classes, [b], limit)

    def test_empty_classes(self):
        assert numpy_backend.oc_optimal_removal_count_batch(
            [], [([], [])], 0
        ) == [(0, False)]
        assert numpy_backend.ofd_removal_batch([], [[]], 0) == [(0, False)]

    def test_removal_rows_are_python_ints(self):
        # frozenset members of ValidationResult must compare and hash like
        # the reference's plain ints
        relation = Relation.from_columns(
            {"c": [0, 0, 0, 0], "a": [0, 1, 2, 3], "b": [3, 2, 1, 0]}
        )
        for backend in BOTH:
            result = validate_aoc_optimal(
                relation, CanonicalOC(["c"], "a", "b"), backend=backend
            )
            assert result.removal_size == 3
            assert all(type(row) is int for row in result.removal_rows)
