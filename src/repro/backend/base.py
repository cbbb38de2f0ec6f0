"""The :class:`ComputeBackend` interface.

The discovery framework spends essentially all of its time in three hot
paths: order-preserving dictionary encoding, stripped-partition
construction/refinement (the TANE-style PLI machinery) and the per-class
LNDS removal-set kernels.  Each of those admits two interchangeable
implementations:

* :class:`~repro.backend.python_backend.PythonBackend` wraps the original
  pure-Python row-at-a-time code and serves as the reference semantics;
* :class:`~repro.backend.numpy_backend.NumpyBackend` keeps rank columns as
  dense ``int32`` arrays and replaces the per-row loops with vectorised
  sorts, groupings and batched kernels.

Both implementations must be observationally identical: the same
:class:`~repro.dataset.partition.Partition` classes, the same removal rows
in the same order, the same early-exit points under a removal budget.  The
differential tests in ``tests/backend`` enforce this on full discovery
runs, so downstream layers may pick a backend purely on speed.

There is no separate exact-check kernel.  An exact OC or OFD holds iff
its minimal removal count is 0 (the paper's ``ε = 0`` special case), so
exact checks call the count kernels with ``limit=0`` and read the
``exceeded`` flag: ``not exceeded`` means "holds".

A backend also defines the *native* representation of a rank column (a
plain ``list`` for Python, an ``int32`` ``ndarray`` for NumPy).  Kernels
accept native columns; :meth:`ComputeBackend.to_native` converts on the
boundary for callers that hold canonical lists.
"""

from __future__ import annotations

import abc
from typing import List, Optional, Sequence, Tuple

from repro.dataset.partition import Partition
from repro.dataset.schema import AttributeType

#: ``(ranks, dictionary, native_column)`` as returned by ``encode_column``.
#: ``ranks`` is the canonical plain-list representation used by
#: backend-agnostic code; ``native_column`` is the backend's columnar form
#: of the same data, or ``None`` when the canonical list *is* native.  A
#: backend may return ``ranks=None`` together with a native column, in
#: which case :class:`~repro.dataset.encoding.EncodedRelation` derives the
#: canonical list lazily on first access.
EncodedColumn = Tuple[Optional[List[int]], List[object], object]


class ComputeBackend(abc.ABC):
    """Columnar compute kernels behind the discovery framework's hot paths."""

    #: Registry name (``"python"`` / ``"numpy"``).
    name: str = "abstract"

    @property
    def oc_kernel_name(self) -> str:
        """Which implementation runs the count-only OC and OFD removal
        kernels (reported as ``oc_kernel`` on ``/healthz``)."""
        return self.name

    # -- columns ---------------------------------------------------------------

    @abc.abstractmethod
    def encode_column(
        self, values: Sequence[object], attr_type: AttributeType = AttributeType.STRING
    ) -> EncodedColumn:
        """Dictionary-encode one raw column into dense order-preserving ranks.

        Must reproduce :func:`repro.dataset.encoding.encode_column` exactly,
        including ``NULLS FIRST`` and the handling of dirty mixed-type data.
        """

    @abc.abstractmethod
    def to_native(self, ranks: Sequence[int]):
        """Convert a rank column to this backend's native representation."""

    # -- partitions ------------------------------------------------------------

    def partition_unit(self, num_rows: int) -> Partition:
        """Partition of the empty attribute set (one class with every row).

        Backends may override to build the CSR arrays in their native
        representation so cached partitions stay representation-uniform.
        """
        return Partition.unit(num_rows)

    @abc.abstractmethod
    def partition_single(
        self, native_ranks, num_rows: int, row_order=None
    ) -> Partition:
        """Build the stripped partition of a single encoded column.

        ``row_order`` is as in :meth:`partition_refine`.
        """

    def partition_from_row_keys(
        self, keys: Sequence[Tuple[int, ...]], num_rows: int
    ) -> Partition:
        """Group rows with equal key tuples into a stripped partition."""
        from repro.dataset.partition import build_partition_from_row_keys

        return build_partition_from_row_keys(keys, num_rows)

    @abc.abstractmethod
    def partition_refine(
        self, partition: Partition, native_ranks, row_order=None
    ) -> Partition:
        """Refine ``Pi_X`` by an encoded column: ``Pi_{X ∪ {A}}``.

        ``row_order``, when given, is a zero-argument callable returning the
        column's cached row order
        (:meth:`~repro.dataset.encoding.EncodedRelation.row_order_by_index`).
        A backend may call it to refine without sorting, or ignore it.
        """

    @abc.abstractmethod
    def partition_product(self, left: Partition, right: Partition) -> Partition:
        """Compute ``Pi_{X ∪ Y}`` from two stripped partitions."""

    # -- removal-set kernels ---------------------------------------------------

    @abc.abstractmethod
    def oc_optimal_removal_rows(
        self,
        classes: Sequence[Sequence[int]],
        a_ranks,
        b_ranks,
        limit: Optional[int] = None,
    ) -> Tuple[List[int], bool]:
        """Algorithm 2's minimal AOC removal rows over all context classes."""

    @abc.abstractmethod
    def oc_greedy_removal_rows(
        self,
        classes: Sequence[Sequence[int]],
        a_ranks,
        b_ranks,
        limit: Optional[int] = None,
    ) -> Tuple[List[int], bool]:
        """Algorithm 1's greedy (non-minimal) AOC removal rows.

        The greedy baseline is row-at-a-time on every backend; callers
        should pass canonical rank lists (native arrays are accepted but
        converted).
        """

    @abc.abstractmethod
    def od_removal_rows(
        self,
        classes: Sequence[Sequence[int]],
        a_ranks,
        b_ranks,
        limit: Optional[int] = None,
    ) -> Tuple[List[int], bool]:
        """Minimal removal rows for a canonical AOD ``X: A ↦→ B``."""

    @abc.abstractmethod
    def ofd_removal_rows(
        self,
        classes: Sequence[Sequence[int]],
        value_ranks,
        limit: Optional[int] = None,
    ) -> Tuple[List[int], bool]:
        """Minimal removal rows for an approximate OFD."""

    # -- batched removal kernels -------------------------------------------------
    #
    # The level-synchronous scheduler groups all surviving candidates of a
    # lattice level by context and dispatches each group through one call, so
    # the context's partition, columnar view and sort infrastructure are paid
    # once per group instead of once per candidate.  A single candidate is a
    # batch of one.  The OFD default loops over the rows kernel; backends
    # override it with a genuinely batched implementation.
    #
    # Parity contract for both batch kernels: each returns one ``(count,
    # exceeded)`` per candidate, and entry ``i`` aligns with input ``i``.
    # The ``exceeded`` flag must be *exact* (``True`` iff the candidate's
    # full removal set is larger than ``limit``), and whenever ``exceeded``
    # is ``False`` the count must equal ``len`` of the matching rows
    # kernel's removal set.
    # ``ofd_removal_batch`` goes further: an exceeded entry carries the
    # class-by-class partial, ``len`` of the rows ``ofd_removal_rows``
    # returns under the same ``limit``.  The OC batch may abandon an
    # exceeded candidate mid-kernel (or before its LNDS pass, once its
    # dirty classes alone outnumber ``limit``), so its partial is only
    # guaranteed to be *some* value above ``limit``.  Discovery only
    # consumes ``(valid, size-if-valid)``, which is identical either way.
    # At ``limit=0`` the exact ``exceeded`` flag is the exact check:
    # ``not exceeded`` iff the dependency holds with no removals.

    @abc.abstractmethod
    def oc_optimal_removal_count_batch(
        self,
        classes: Sequence[Sequence[int]],
        rank_pairs: Sequence[Tuple[object, object]],
        limit: Optional[int] = None,
    ) -> List[Tuple[int, bool]]:
        """Minimal AOC removal counts for many ``(A, B)`` rank-column pairs
        sharing one context (Algorithm 2, batched across candidates)."""

    def ofd_removal_batch(
        self,
        classes: Sequence[Sequence[int]],
        rhs_ranks: Sequence[object],
        limit: Optional[int] = None,
    ) -> List[Tuple[int, bool]]:
        """Minimal AOFD removal counts for many RHS rank columns sharing one
        context (the TANE ``g3`` kernel, batched across candidates)."""
        return [
            (len(rows), exceeded)
            for rows, exceeded in (
                self.ofd_removal_rows(classes, ranks, limit) for ranks in rhs_ranks
            )
        ]

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"{type(self).__name__}()"
