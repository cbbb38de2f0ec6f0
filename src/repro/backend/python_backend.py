"""The pure-Python reference backend.

Wraps the original row-at-a-time implementations — which remain in their
home modules (``dataset.encoding``, ``dataset.partition``, the validation
kernels) so they can keep being used and tested directly — behind the
:class:`~repro.backend.base.ComputeBackend` interface.  This backend *is*
the semantics the NumPy backend must reproduce byte-for-byte.

The kernel imports are deferred to call time: the validation modules import
``repro.backend`` for backend resolution, so importing them here at module
load would create a cycle.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.backend.base import ComputeBackend, EncodedColumn
from repro.dataset.partition import Partition
from repro.dataset.schema import AttributeType


class PythonBackend(ComputeBackend):
    """Reference backend: the original pure-Python hot paths."""

    name = "python"

    # -- columns ---------------------------------------------------------------

    def encode_column(
        self, values: Sequence[object], attr_type: AttributeType = AttributeType.STRING
    ) -> EncodedColumn:
        from repro.dataset.encoding import encode_column

        ranks, dictionary = encode_column(values, attr_type)
        return ranks, dictionary, None

    def to_native(self, ranks: Sequence[int]):
        return ranks if isinstance(ranks, list) else list(ranks)

    # -- partitions ------------------------------------------------------------

    def partition_single(self, native_ranks, num_rows: int) -> Partition:
        # The module-level builder, not Partition.single: the classmethod
        # routes through the *default* backend, which may not be this one.
        from repro.dataset.partition import build_partition_single

        return build_partition_single(native_ranks, num_rows)

    def partition_refine(
        self, partition: Partition, native_ranks, row_order=None
    ) -> Partition:
        return partition.product(native_ranks)

    def partition_product(self, left: Partition, right: Partition) -> Partition:
        return left.product_partition(right)

    # -- removal-set kernels ---------------------------------------------------

    def oc_optimal_removal_rows(
        self, classes, a_ranks, b_ranks, limit: Optional[int] = None
    ) -> Tuple[List[int], bool]:
        from repro.validation.approx_oc_optimal import optimal_removal_rows

        return optimal_removal_rows(classes, a_ranks, b_ranks, limit)

    def oc_greedy_removal_rows(
        self, classes, a_ranks, b_ranks, limit: Optional[int] = None
    ) -> Tuple[List[int], bool]:
        from repro.validation.approx_oc_iterative import iterative_removal_rows

        return iterative_removal_rows(classes, a_ranks, b_ranks, limit)

    def od_removal_rows(
        self, classes, a_ranks, b_ranks, limit: Optional[int] = None
    ) -> Tuple[List[int], bool]:
        from repro.validation.approx_od import od_removal_rows

        return od_removal_rows(classes, a_ranks, b_ranks, limit)

    def ofd_removal_rows(
        self, classes, value_ranks, limit: Optional[int] = None
    ) -> Tuple[List[int], bool]:
        from repro.validation.approx_ofd import aofd_removal_rows

        return aofd_removal_rows(classes, value_ranks, limit)

    # -- batched removal kernels ------------------------------------------------

    def oc_optimal_removal_count_batch(
        self, classes, rank_pairs, limit: Optional[int] = None,
        pair_orders=None,
    ) -> List[Tuple[int, bool]]:
        # Reference semantics: the batch is exactly a loop of sequential
        # kernels, so each entry carries the sequential early-exit partials.
        from repro.validation.approx_oc_optimal import optimal_removal_count

        return [
            optimal_removal_count(classes, a_ranks, b_ranks, limit)
            for a_ranks, b_ranks in rank_pairs
        ]

