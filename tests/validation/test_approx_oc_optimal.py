"""Tests for Algorithm 2 (optimal LNDS-based AOC validation).

The key properties are those of Theorems 3.3 and 3.4's setting:

* the returned set is a removal set (the OC holds after dropping it), and
* it is minimal (checked against a brute-force oracle on small inputs via
  hypothesis), and so is every kernel's count: python, native numpy and
  numpy without the native library.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.backend import get_backend, native
from repro.dataset.examples import employee_salary_table, tuple_ids_to_rows
from repro.dataset.generators import generate_planted_oc_table
from repro.dataset.partition import PartitionCache
from repro.dataset.relation import Relation
from repro.dependencies.oc import CanonicalOC
from repro.dependencies.violations import (
    minimal_removal_size_bruteforce,
    removal_set_is_valid,
)
from repro.validation.approx_oc_optimal import (
    class_removal_count,
    class_removal_rows,
    optimal_removal_count,
    optimal_removal_rows,
    validate_aoc_optimal,
)


class TestPaperExamples:
    def test_example_3_2_sal_tax(self):
        """Example 3.2: the minimal removal set for sal ~ tax is
        {t1, t2, t4, t6} and the approximation factor is 4/9."""
        table = employee_salary_table()
        result = validate_aoc_optimal(table, CanonicalOC([], "sal", "tax"))
        assert result.removal_rows == frozenset(tuple_ids_to_rows({"t1", "t2", "t4", "t6"}))
        assert result.removal_size == 4
        assert abs(result.approximation_factor - 4 / 9) < 1e-9

    def test_intro_example_pos_exp_sal(self):
        """Section 1.1: for pos,exp ~ pos,sal the minimal removal set is {t8}
        and the approximation factor 1/9."""
        table = employee_salary_table()
        result = validate_aoc_optimal(table, CanonicalOC({"pos"}, "exp", "sal"))
        assert result.removal_rows == frozenset(tuple_ids_to_rows({"t8"}))
        assert abs(result.approximation_factor - 1 / 9) < 1e-9

    def test_exact_oc_has_empty_removal(self):
        table = employee_salary_table()
        result = validate_aoc_optimal(table, CanonicalOC([], "sal", "taxGrp"))
        assert result.holds_exactly
        assert result.removal_rows == frozenset()

    def test_threshold_semantics(self):
        table = employee_salary_table()
        oc = CanonicalOC([], "sal", "tax")  # factor 0.44
        assert validate_aoc_optimal(table, oc, threshold=0.5).is_valid
        assert not validate_aoc_optimal(table, oc, threshold=0.4).is_valid
        assert validate_aoc_optimal(table, oc, threshold=0.4).exceeded_threshold

    def test_symmetry_of_oc(self):
        table = employee_salary_table()
        forward = validate_aoc_optimal(table, CanonicalOC([], "sal", "tax"))
        backward = validate_aoc_optimal(table, CanonicalOC([], "tax", "sal"))
        assert forward.removal_size == backward.removal_size


class TestPlantedGroundTruth:
    @pytest.mark.parametrize("factor", [0.0, 0.05, 0.2])
    def test_planted_factor_recovered_exactly(self, factor):
        workload = generate_planted_oc_table(200, approximation_factor=factor, seed=5)
        (planted,) = workload.planted_ocs
        oc = CanonicalOC(planted.context, planted.a, planted.b)
        result = validate_aoc_optimal(workload.relation, oc)
        assert result.removal_size == round(factor * 200)

    def test_with_context_groups(self):
        workload = generate_planted_oc_table(
            200, approximation_factor=0.1, num_context_groups=5, seed=2
        )
        (planted,) = workload.planted_ocs
        oc = CanonicalOC(planted.context, planted.a, planted.b)
        result = validate_aoc_optimal(workload.relation, oc)
        assert result.removal_size == 20

    def test_partition_cache_gives_same_answer(self):
        workload = generate_planted_oc_table(
            150, approximation_factor=0.1, num_context_groups=3, seed=7
        )
        (planted,) = workload.planted_ocs
        oc = CanonicalOC(planted.context, planted.a, planted.b)
        cache = PartitionCache(workload.relation.encoded())
        with_cache = validate_aoc_optimal(workload.relation, oc, partition_cache=cache)
        without_cache = validate_aoc_optimal(workload.relation, oc)
        assert with_cache.removal_rows == without_cache.removal_rows


small_tables = st.lists(
    st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 2)),
    min_size=0,
    max_size=9,
)


def _batch_counts(relation, oc, limit):
    """``oc_optimal_removal_count_batch`` for ``oc`` under ``limit`` on
    every kernel, by label: the python backend, numpy on whichever kernels
    this host loaded, and numpy with the native library forced to
    ``None``."""
    counts = {}

    def count(label, backend):
        encoded = relation.encoded(backend)
        classes = PartitionCache(encoded, backend=backend).get_by_names(oc.context)
        [counts[label]] = backend.oc_optimal_removal_count_batch(
            classes, [(encoded.native_ranks(oc.a), encoded.native_ranks(oc.b))],
            limit,
        )

    count("python", get_backend("python"))
    count("numpy", get_backend("numpy"))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(native, "kernels", lambda: None)
        count("numpy-no-compiler", get_backend("numpy"))
    return counts


def _assert_minimal(relation, oc, limit):
    """Algorithm 2's removal set is valid and minimal, and every count
    kernel agrees with the swap-based exhaustive search, which shares no
    code with them: the exact size with no budget, the exact ``exceeded``
    flag under ``limit``."""
    minimal = minimal_removal_size_bruteforce(relation, oc)
    result = validate_aoc_optimal(relation, oc)
    assert removal_set_is_valid(relation, oc, result.removal_rows)
    assert result.removal_size == minimal
    for label, (size, over) in _batch_counts(relation, oc, None).items():
        assert (size, over) == (minimal, False), label
    for label, (size, over) in _batch_counts(relation, oc, limit).items():
        assert over == (minimal > limit), label
        assert size == minimal if not over else size > limit, label


class TestMinimalityProperty:
    """Theorem 3.3, checked against exhaustive search on small tables."""

    @settings(max_examples=60, deadline=None)
    @given(small_tables, st.integers(0, 9))
    def test_removal_set_is_valid_and_minimal_empty_context(self, rows, limit):
        relation = Relation.from_rows(rows, ["a", "b", "c"])
        _assert_minimal(relation, CanonicalOC([], "a", "b"), limit)

    @settings(max_examples=40, deadline=None)
    @given(small_tables, st.integers(0, 9))
    def test_removal_set_is_valid_and_minimal_with_context(self, rows, limit):
        relation = Relation.from_rows(rows, ["a", "b", "c"])
        _assert_minimal(relation, CanonicalOC(["c"], "a", "b"), limit)


class TestKernelFunctions:
    def test_class_removal_rows_vs_count(self):
        a = [0, 1, 2, 3, 4]
        b = [5, 1, 2, 0, 3]
        rows = [0, 1, 2, 3, 4]
        removed = class_removal_rows(rows, a, b)
        assert len(removed) == class_removal_count(rows, a, b)

    def test_optimal_removal_rows_early_exit(self):
        # Two classes, each forcing one removal; limit 0 must abort after the
        # first class and report exceeded.
        a = [0, 1, 0, 1]
        b = [1, 0, 1, 0]
        classes = [[0, 1], [2, 3]]
        removal, exceeded = optimal_removal_rows(classes, a, b, limit=0)
        assert exceeded
        assert len(removal) == 1  # stopped early

    def test_optimal_removal_count_no_limit(self):
        a = [0, 1, 0, 1]
        b = [1, 0, 1, 0]
        classes = [[0, 1], [2, 3]]
        count, exceeded = optimal_removal_count(classes, a, b)
        assert (count, exceeded) == (2, False)

    def test_empty_relation(self):
        relation = Relation.from_rows([], ["a", "b"])
        result = validate_aoc_optimal(relation, CanonicalOC([], "a", "b"))
        assert result.holds_exactly
        assert result.approximation_factor == 0.0

    def test_invalid_threshold_rejected(self):
        table = employee_salary_table()
        with pytest.raises(ValueError):
            validate_aoc_optimal(table, CanonicalOC([], "sal", "tax"), threshold=1.5)
