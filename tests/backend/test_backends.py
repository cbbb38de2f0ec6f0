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
from repro.backend.numpy_backend import NumpyBackend
from repro.dataset.encoding import encode_column
from repro.dataset.partition import Partition
from repro.dataset.relation import Relation
from repro.dataset.schema import AttributeType
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

        monkeypatch.setattr(NumpyBackend, "_encode_fast", no_fast_path)
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

mixed_values = st.lists(
    st.one_of(
        st.none(),
        st.integers(min_value=-(10 ** 6), max_value=10 ** 6),
        st.integers(min_value=-(2 ** 70), max_value=2 ** 70),
        st.floats(allow_nan=True, allow_infinity=True),
        st.text(max_size=8),
        st.booleans(),
    ),
    max_size=60,
)


class TestEncodingParity:
    @pytest.mark.parametrize("attr_type", list(AttributeType))
    @given(values=mixed_values)
    @settings(max_examples=60, deadline=None)
    def test_ranks_match_reference(self, attr_type, values):
        reference_ranks, reference_dict = encode_column(values, attr_type)
        ranks, dictionary, native = numpy_backend.encode_column(values, attr_type)
        assert native is not None
        assert native.tolist() == reference_ranks
        # ranks may be None on the fast path (derived lazily from native)
        assert ranks is None or ranks == reference_ranks
        assert len(dictionary) == len(reference_dict)

    @pytest.mark.parametrize(
        "values, attr_type",
        [
            ([3, 1, 2, 1, None, 3], AttributeType.INTEGER),
            ([1.5, -2.25, 1.5, 0.0], AttributeType.FLOAT),
            (["b", "a", "", "b"], AttributeType.STRING),
            ([10, "9", 11], AttributeType.INTEGER),  # dirty: falls back
            ([True, False, True], AttributeType.BOOLEAN),  # falls back
            ([None, None], AttributeType.STRING),
        ],
    )
    def test_dictionaries_match_reference(self, values, attr_type):
        reference_ranks, reference_dict = encode_column(values, attr_type)
        _, dictionary, native = numpy_backend.encode_column(values, attr_type)
        assert native.tolist() == reference_ranks
        assert dictionary == reference_dict

    def test_nul_strings_fall_back_to_reference(self):
        # NumPy's fixed-width unicode comparisons ignore trailing NULs, so
        # these columns must take the reference path to stay byte-identical.
        values = ["a", "a\0", "b", "a"]
        reference_ranks, reference_dict = encode_column(values, AttributeType.STRING)
        _, dictionary, native = numpy_backend.encode_column(
            values, AttributeType.STRING
        )
        assert native.tolist() == reference_ranks
        assert dictionary == reference_dict
        assert len(set(reference_ranks)) == 3  # 'a' and 'a\0' stay distinct

    @pytest.mark.parametrize(
        "values, attr_type, fast",
        [
            ([], AttributeType.INTEGER, False),
            ([None, None, None], AttributeType.STRING, False),
            ([None, None], AttributeType.INTEGER, False),
            ([1, "a", 2], AttributeType.STRING, False),
            ([1, 2.5, None, 3], AttributeType.FLOAT, False),
            ([True, False, None, True], AttributeType.BOOLEAN, False),
            ([1, True, 0], AttributeType.INTEGER, False),
            ([1.0, float("nan"), None, 0.5], AttributeType.FLOAT, False),
            (["a", None, "a\0", "b"], AttributeType.STRING, False),
            (["\0", "a"], AttributeType.STRING, False),
            ([1 << 53, 1, None], AttributeType.INTEGER, False),
            ([-(1 << 53), 3], AttributeType.FLOAT, False),
            ([1 << 70, 1], AttributeType.INTEGER, False),
            ([3, 1, 2], AttributeType.STRING, False),
            (["1", "2"], AttributeType.INTEGER, False),
            ([(1 << 53) - 1, None, -((1 << 53) - 1), 0], AttributeType.INTEGER, True),
            ([3, None, 1, 3], AttributeType.FLOAT, True),
            ([0.5, None, -1.0, 0.5], AttributeType.FLOAT, True),
            (["b", None, "a", "b"], AttributeType.STRING, True),
            (["b", "a", ""], AttributeType.BOOLEAN, True),
        ],
    )
    def test_fast_path_decisions_match_reference(self, values, attr_type, fast):
        """Which columns take the vectorised path, and which fall back to
        the reference encoder: all-None, mixed, bool, NaN, NUL-bearing and
        beyond-2^53 columns fall back, and every column encodes exactly as
        the reference does."""
        encoded = numpy_backend._encode_fast(values, attr_type)
        assert (encoded is not None) == fast
        reference_ranks, reference_dict = encode_column(values, attr_type)
        _, dictionary, native = numpy_backend.encode_column(values, attr_type)
        assert native.tolist() == reference_ranks
        assert dictionary == reference_dict

    def test_fast_path_produces_int32_native(self):
        _, _, native = numpy_backend.encode_column(
            list(range(100, 0, -1)), AttributeType.INTEGER
        )
        assert native.dtype == numpy.int32


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
