"""The :class:`ComputeBackend` base class: the reference removal kernels.

The discovery framework spends essentially all of its time in three hot
paths: order-preserving dictionary encoding, stripped-partition
construction/refinement (the TANE-style PLI machinery) and the per-class
removal-count kernels (Algorithm 2's LNDS count for OCs, the ``g3`` count
for OFDs).  Encoding and partitions live on the one concrete backend,
:class:`~repro.backend.numpy_backend.NumpyBackend`, which keeps rank
columns as dense ``int32`` arrays and partitions as ``int64`` CSR arrays.

The removal kernels have one reference implementation, the row-at-a-time
loops defined here: Algorithms 1 and 2 as the paper writes them.  The
``"python"`` configuration always counts with them; the ``"numpy"``
configuration replaces the two count batches with the native kernels of
:mod:`repro.backend.native` when that library is loaded, and runs the
reference loops otherwise.

Both configurations must be observationally identical: the same
:class:`~repro.dataset.partition.Partition` classes, the same removal rows
in the same order, the same early-exit points under a removal budget.  The
differential tests in ``tests/backend`` enforce this on full discovery
runs, so downstream layers may pick a configuration purely on speed.

There is no separate exact-check kernel.  An exact OC or OFD holds iff
its minimal removal count is 0 (the paper's ``ε = 0`` special case), so
exact checks call the count kernels with ``limit=0`` and read the
``exceeded`` flag: ``not exceeded`` means "holds".

Kernels accept rank columns as lists or arrays; the reference loops
convert arrays to lists on entry.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple


class ComputeBackend:
    """The reference removal kernels, inherited by the one concrete
    backend class, :class:`~repro.backend.numpy_backend.NumpyBackend`."""

    # -- removal-set kernels ---------------------------------------------------
    #
    # The reference loops, the one implementation of every rows kernel (off
    # the discovery path, which only counts) and of the count batches in the
    # "python" configuration or whenever the native library is not loaded.
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
    # is exactly a loop of sequential kernels; the "numpy" configuration
    # overrides both with one native call when its library is loaded.
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
        sharing one context (Algorithm 2, batched across candidates).

        A column that several pairs share is converted to a list once per
        batch, not once per pair."""
        from repro.validation.approx_oc_optimal import optimal_removal_count

        lists = {}

        def as_list(ranks):
            key = id(ranks)  # the pairs hold every column for the call
            if key not in lists:
                lists[key] = _as_list(ranks)
            return lists[key]

        return [
            optimal_removal_count(
                classes, as_list(a_ranks), as_list(b_ranks), limit
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
