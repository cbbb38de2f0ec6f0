"""The pure-Python reference backend.

Wraps the original row-at-a-time encoding and partition code — which
remains in its home modules (``dataset.encoding``, ``dataset.partition``)
so it can keep being used and tested directly — behind the
:class:`~repro.backend.base.ComputeBackend` interface.  The removal
kernels are the base class's reference loops, inherited unchanged.  This
backend *is* the semantics the NumPy backend must reproduce byte-for-byte.
"""

from __future__ import annotations

from typing import Sequence

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

    def partition_single(
        self, native_ranks, num_rows: int, row_order=None
    ) -> Partition:
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
