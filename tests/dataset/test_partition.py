"""Tests for repro.dataset.partition (stripped partitions and the cache)."""

import pytest
from _partition_oracle import classes_of, group, refine, refines
from hypothesis import given, strategies as st

from repro.backend import resolve_backend
from repro.dataset.examples import employee_salary_table
from repro.dataset.partition import Partition, PartitionCache
from repro.dataset.relation import Relation


def _refine(partition, column):
    """``partition`` refined by ``column`` on the default backend."""
    return resolve_backend(None).partition_refine(partition, column)


class TestPartitionBasics:
    def test_single_column_partition(self):
        partition = Partition.single([0, 1, 0, 2, 1])
        assert partition.num_rows == 5
        assert sorted(map(tuple, partition.classes)) == [(0, 2), (1, 4)]

    def test_singletons_are_stripped(self):
        partition = Partition.single([0, 1, 2, 3])
        assert partition.num_classes == 0
        assert partition.num_singleton_rows == 4

    def test_unit_partition(self):
        partition = Partition.unit(4)
        assert partition.classes == [[0, 1, 2, 3]]

    def test_unit_partition_single_row(self):
        assert Partition.unit(1).classes == []

    def test_from_row_keys(self):
        keys = [(0, 1), (0, 1), (1, 0), (0, 2)]
        relation = Relation.from_columns({
            "x": [key[0] for key in keys], "y": [key[1] for key in keys],
        })
        partition = PartitionCache(relation.encoded()).get([0, 1])
        assert partition.classes == group(keys) == [[0, 1]]

    def test_counts(self):
        partition = Partition.single([0, 0, 1, 1, 1, 2])
        assert partition.num_grouped_rows == 5
        assert partition.num_singleton_rows == 1
        assert partition.total_class_count() == 3
        assert partition.error_rows() == 3  # 6 rows - 3 classes

    def test_equality(self):
        assert Partition.single([0, 0, 1]) == Partition.single([5, 5, 7])

    def test_iteration_and_len(self):
        partition = Partition.single([0, 0, 1, 1])
        assert len(partition) == 2
        assert sum(len(c) for c in partition) == 4


class TestPartitionProducts:
    def test_product_with_column(self):
        base = Partition.single([0, 0, 0, 1, 1])
        column = [0, 0, 1, 0, 0]
        refined = _refine(base, column)
        assert classes_of(refined) == refine(classes_of(base), column)
        assert sorted(map(tuple, refined.classes)) == [(0, 1), (3, 4)]

    def test_product_partition_matches_from_keys(self):
        a = [0, 0, 1, 1, 0, 1]
        b = [0, 1, 0, 1, 0, 0]
        via_product = resolve_backend(None).partition_product(
            Partition.single(a), Partition.single(b)
        )
        assert classes_of(via_product) == group(zip(a, b))

    def test_product_partition_size_mismatch(self):
        with pytest.raises(ValueError):
            resolve_backend(None).partition_product(
                Partition.single([0, 0]), Partition.single([0, 0, 0])
            )

    def test_refines(self):
        coarse = Partition.single([0, 0, 0, 1, 1])
        fine = _refine(coarse, [0, 1, 1, 0, 0])
        assert refines(classes_of(fine), classes_of(coarse))
        assert not refines(classes_of(coarse), classes_of(fine))

    @given(
        st.lists(st.integers(min_value=0, max_value=3), min_size=2, max_size=30),
        st.lists(st.integers(min_value=0, max_value=3), min_size=2, max_size=30),
    )
    def test_product_commutes(self, a, b):
        size = min(len(a), len(b))
        a, b = a[:size], b[:size]
        left = _refine(Partition.single(a), b)
        right = _refine(Partition.single(b), a)
        assert left == right
        assert classes_of(left) == group(zip(a, b))

    @given(st.lists(st.integers(min_value=0, max_value=4), min_size=2, max_size=40))
    def test_product_with_self_is_identity(self, column):
        partition = Partition.single(column)
        assert _refine(partition, column) == partition


class TestPartitionCache:
    @pytest.fixture
    def cache(self):
        return PartitionCache(employee_salary_table().encoded())

    def test_empty_set_is_unit(self, cache):
        partition = cache.get([])
        assert partition.classes == [list(range(9))]

    def test_singleton_matches_direct(self, cache):
        encoded = employee_salary_table().encoded()
        index = encoded.schema.index_of("pos")
        assert cache.get([index]) == Partition.single(encoded.ranks("pos"))

    def test_get_by_names_matches_example_2_9(self, cache):
        # Example 2.9: Pi_pos = {{t1,t2,t4}, {t3,t5,t6,t7,t8}, {t9}} (t9 stripped).
        partition = cache.get_by_names(["pos"])
        classes = sorted(map(tuple, partition.classes))
        assert classes == [(0, 1, 3), (2, 4, 5, 6, 7)]

    def test_multi_attribute_matches_brute_force(self, cache):
        table = employee_salary_table()
        encoded = table.encoded()
        keys = [
            (encoded.ranks("pos")[row], encoded.ranks("exp")[row])
            for row in range(table.num_rows)
        ]
        assert classes_of(cache.get_by_names(["pos", "exp"])) == group(keys)

    def test_cache_hits(self, cache):
        cache.get_by_names(["pos"])
        cache.get_by_names(["pos"])
        assert cache.stats["hits"] >= 1
        assert cache.stats["entries"] >= 1

    def test_order_insensitive(self, cache):
        assert cache.get_by_names(["pos", "sal"]) == cache.get_by_names(["sal", "pos"])

    def test_evict_level(self, cache):
        cache.get_by_names(["pos"])
        cache.get_by_names(["pos", "sal"])
        before = cache.stats["entries"]
        cache.evict_level(2)
        assert cache.stats["entries"] < before
        # Evicted entries are transparently rebuilt.
        assert cache.get_by_names(["pos"]).num_classes == 2
