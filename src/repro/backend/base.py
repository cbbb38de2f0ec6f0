"""The :class:`ComputeBackend` interface.

The discovery framework spends essentially all of its time in three hot
paths: order-preserving dictionary encoding, stripped-partition
construction/refinement (the TANE-style PLI machinery) and the per-class
removal-count kernels (Algorithm 2's LNDS count for OCs, the ``g3`` count
for OFDs).  Encoding and partitions have two interchangeable
implementations:

* :class:`~repro.backend.python_backend.PythonBackend` wraps the original
  pure-Python row-at-a-time code and serves as the reference semantics;
* :class:`~repro.backend.numpy_backend.NumpyBackend` keeps rank columns as
  dense ``int32`` arrays and replaces the per-row loops with vectorised
  sorts and groupings, or native refinements.

The removal kernels have one reference implementation, the row-at-a-time
loops defined here on the base class.  The python backend runs them as
they are; the NumPy backend replaces the two count batches with the
native kernels of :mod:`repro.backend.native` when that library is
loaded, and runs the reference loops otherwise.

Both backends must be observationally identical: the same
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
boundary for callers that hold canonical lists, and the reference loops
convert native columns back to lists on entry.
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
        kernels (reported as ``oc_kernel`` on ``/healthz``): ``"python"``
        for the reference loops, ``"native"`` for the native library."""
        return "python"

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
    #
    # The reference loops, the one concrete implementation of every removal
    # kernel: the python backend always runs them, the NumPy backend runs
    # them for the rows kernels (off the discovery path, which only counts)
    # and for the count batches whenever the native library is not loaded.
    # Algorithm 1's per-removal update loop is sequential by nature, so the
    # greedy kernel stays row-at-a-time everywhere.  The kernel imports are
    # deferred to call time: the validation modules import ``repro.backend``
    # for backend resolution, so importing them at module load would create
    # a cycle.

    def oc_optimal_removal_rows(
        self,
        classes: Sequence[Sequence[int]],
        a_ranks,
        b_ranks,
        limit: Optional[int] = None,
    ) -> Tuple[List[int], bool]:
        """Algorithm 2's minimal AOC removal rows over all context classes."""
        from repro.validation.approx_oc_optimal import optimal_removal_rows

        return optimal_removal_rows(
            classes, _as_list(a_ranks), _as_list(b_ranks), limit
        )

    def oc_greedy_removal_rows(
        self,
        classes: Sequence[Sequence[int]],
        a_ranks,
        b_ranks,
        limit: Optional[int] = None,
    ) -> Tuple[List[int], bool]:
        """Algorithm 1's greedy (non-minimal) AOC removal rows."""
        from repro.validation.approx_oc_iterative import iterative_removal_rows

        return iterative_removal_rows(
            classes, _as_list(a_ranks), _as_list(b_ranks), limit
        )

    def od_removal_rows(
        self,
        classes: Sequence[Sequence[int]],
        a_ranks,
        b_ranks,
        limit: Optional[int] = None,
    ) -> Tuple[List[int], bool]:
        """Minimal removal rows for a canonical AOD ``X: A ↦→ B``."""
        from repro.validation.approx_od import od_removal_rows

        return od_removal_rows(
            classes, _as_list(a_ranks), _as_list(b_ranks), limit
        )

    def ofd_removal_rows(
        self,
        classes: Sequence[Sequence[int]],
        value_ranks,
        limit: Optional[int] = None,
    ) -> Tuple[List[int], bool]:
        """Minimal removal rows for an approximate OFD."""
        from repro.validation.approx_ofd import aofd_removal_rows

        return aofd_removal_rows(classes, _as_list(value_ranks), limit)

    # -- batched removal kernels -------------------------------------------------
    #
    # The level-synchronous scheduler groups all surviving candidates of a
    # lattice level by context and dispatches each group through one call, so
    # the context's partition is paid once per group instead of once per
    # candidate.  A single candidate is a batch of one.  The reference batch
    # is exactly a loop of sequential kernels; the NumPy backend overrides
    # both with one native call when its library is loaded.
    #
    # Parity contract for both batch kernels: each returns one ``(count,
    # exceeded)`` per candidate, and entry ``i`` aligns with input ``i``.
    # The ``exceeded`` flag must be *exact* (``True`` iff the candidate's
    # full removal set is larger than ``limit``), and an exceeded entry
    # carries the class-by-class partial: the count up to and including the
    # first class that takes it above ``limit``, as the reference loop stops
    # there.  Whenever ``exceeded`` is ``False`` the count equals ``len`` of
    # the matching rows kernel's removal set.  Discovery only consumes
    # ``(valid, size-if-valid)``.  At ``limit=0`` the exact ``exceeded``
    # flag is the exact check: ``not exceeded`` iff the dependency holds
    # with no removals.

    def oc_optimal_removal_count_batch(
        self,
        classes: Sequence[Sequence[int]],
        rank_pairs: Sequence[Tuple[object, object]],
        limit: Optional[int] = None,
    ) -> List[Tuple[int, bool]]:
        """Minimal AOC removal counts for many ``(A, B)`` rank-column pairs
        sharing one context (Algorithm 2, batched across candidates)."""
        from repro.validation.approx_oc_optimal import optimal_removal_count

        return [
            optimal_removal_count(
                classes, _as_list(a_ranks), _as_list(b_ranks), limit
            )
            for a_ranks, b_ranks in rank_pairs
        ]

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


def _as_list(ranks) -> List[int]:
    """A rank column as the plain list the reference loops index: identity
    on lists, ``tolist()`` on arrays (scalar indexing into an array is
    several times slower and yields NumPy scalars)."""
    if isinstance(ranks, list):
        return ranks
    tolist = getattr(ranks, "tolist", None)
    return tolist() if tolist is not None else list(ranks)
