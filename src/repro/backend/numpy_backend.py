"""The NumPy columnar backend.

Rank columns are dense ``int32`` arrays; the hot loops become vectorised
array operations:

* encoding via ``np.unique(return_inverse=True)`` on clean homogeneous
  columns, found by one scan of the value types (dirty mixed-type columns
  fall back to the reference encoder, so the semantics — including
  first-appearance tie-breaks for values whose sort keys collide — are
  preserved exactly);
* partition construction/refinement via stable argsort / lexsort over rank
  columns, splitting on group boundaries.  With the native kernels of
  :mod:`repro.backend.native`, a refinement whose classes group enough of
  the rows is instead one native call that walks the new attribute's
  cached row order (sorted partitions) and writes the child partition in
  canonical form, in O(n) and without a sort; a single-column partition is
  the unit partition refined the same way;
* the count-only OC kernels hand a whole context batch to one native call
  when it loaded, which sorts each class of each pair on demand, screens
  and counts it, and stops at the class that crosses the removal budget.
  Otherwise they sort every class by one fused-key sort, screen clean
  classes with array passes and run a padded multi-lane patience DP over
  the dirty ones;
* the count-only ``g3`` kernel hands a batch's RHS columns to one native
  frequency pass, and otherwise counts runs of one sort over every RHS.

Parity contract: every method returns the same values, in the same order,
with the same early-exit points as :class:`PythonBackend`.  One documented
exception: for float columns containing both ``-0.0`` and ``0.0`` the
*representative* stored in the decode dictionary may differ (the ranks are
still identical); such columns behave identically in all discovery and
validation code, which only ever touches ranks.
"""

from __future__ import annotations

from itertools import chain
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.backend import native
from repro.backend.base import ComputeBackend, EncodedColumn
from repro.dataset.partition import Partition
from repro.dataset.schema import AttributeType

#: Largest magnitude at which ``float(int)`` is still injective; beyond it
#: the reference encoder's float sort keys collide and break ties by first
#: appearance, which a numeric sort cannot reproduce — so we fall back.
_FLOAT_SAFE_INT = 1 << 53

_NUMERIC_TYPES = (AttributeType.INTEGER, AttributeType.FLOAT)


def stable_rank_order(ranks: np.ndarray) -> np.ndarray:
    """``np.argsort(ranks, kind="stable")`` for non-negative ``int32`` ranks.

    NumPy's stable sort is a radix sort on 16-bit integers but a timsort
    on wider ones, ~10x slower at 16k rows.  Ranks are dense codes, so they
    sort as one or two 16-bit digits, least significant first.
    """
    if int(ranks.max(initial=0)) < 1 << 16:
        return np.argsort(ranks.astype(np.uint16), kind="stable")
    order = np.argsort((ranks & 0xFFFF).astype(np.uint16), kind="stable")
    high = (ranks[order] >> 16).astype(np.uint16)
    return order[np.argsort(high, kind="stable")]


def _empty_partition(num_rows: int) -> Partition:
    """A classless partition with array-typed CSR storage."""
    return Partition.from_csr(
        np.empty(0, dtype=np.int64), np.zeros(1, dtype=np.int64), num_rows
    )


class NumpyBackend(ComputeBackend):
    """Vectorised backend over ``int32`` rank arrays."""

    name = "numpy"

    @property
    def oc_kernel_name(self) -> str:
        return "native" if native.kernels() is not None else "numpy"

    # -- columns ---------------------------------------------------------------

    def to_native(self, ranks: Sequence[int]):
        if isinstance(ranks, np.ndarray):
            return ranks
        return np.asarray(ranks, dtype=np.int32)

    def encode_column(
        self, values: Sequence[object], attr_type: AttributeType = AttributeType.STRING
    ) -> EncodedColumn:
        encoded = self._encode_fast(values, attr_type)
        if encoded is not None:
            return encoded
        from repro.dataset.encoding import encode_column

        ranks, dictionary = encode_column(values, attr_type)
        return ranks, dictionary, np.asarray(ranks, dtype=np.int32)

    def _encode_fast(self, values: Sequence[object], attr_type) -> Optional[EncodedColumn]:
        """Vectorised encoding for homogeneous columns; ``None`` → fall back.

        The reference encoder sorts by per-type sort keys with equality
        dedup and first-appearance tie-breaks.  Those semantics reduce to a
        plain value sort exactly when the column is homogeneously typed
        (all ``int``, all ``float`` or all ``str`` — ``bool`` excluded
        because ``True == 1`` merges across types) and the sort key is
        injective on the values (no NaN, ints within float precision).
        """
        # One C-level scan for the column's value types; None is filtered
        # out only when it occurs.
        kinds = set(map(type, values))
        present = values
        if type(None) in kinds:
            kinds.discard(type(None))
            present = [value for value in values if value is not None]
        if len(kinds) != 1:
            return None  # empty, all-None or mixed: the reference handles it
        (kind,) = kinds
        numeric = attr_type in _NUMERIC_TYPES
        if kind is int and numeric:
            try:
                array = np.array(present, dtype=np.int64)
            except OverflowError:
                return None
            if int(np.abs(array).max()) >= _FLOAT_SAFE_INT:
                return None
        elif kind is float and numeric:
            array = np.array(present, dtype=np.float64)
            if np.isnan(array).any():
                return None
        elif kind is str and not numeric:
            # NumPy's fixed-width unicode dtype ignores trailing NUL
            # characters in comparisons, which would merge strings the
            # reference encoder keeps distinct.
            if "\0" in "".join(present):
                return None
            array = np.array(present, dtype=np.str_)
        else:
            # bool (True == 1 merges across types), any other type, or a
            # type/declared-type mismatch: reference coercion rules apply.
            return None
        uniques, inverse = np.unique(array, return_inverse=True)
        inverse = inverse.astype(np.int32).reshape(-1)
        if len(present) == len(values):
            native = inverse
            dictionary = uniques.tolist()
        else:
            mask = np.fromiter(
                (v is not None for v in values), dtype=bool, count=len(values)
            )
            native = np.zeros(len(values), dtype=np.int32)
            native[mask] = inverse + 1
            dictionary = [None] + uniques.tolist()
        # ranks=None: the canonical list is derived lazily from `native` by
        # EncodedRelation on first access, so hot paths that only touch the
        # columnar form never pay for a Python list.
        return None, dictionary, native

    # -- partitions ------------------------------------------------------------

    def partition_unit(self, num_rows: int) -> Partition:
        if num_rows <= 1:
            return _empty_partition(num_rows)
        return Partition.from_csr(
            np.arange(num_rows, dtype=np.int64),
            np.array([0, num_rows], dtype=np.int64),
            num_rows,
        )

    def partition_single(
        self, native_ranks, num_rows: int, row_order=None
    ) -> Partition:
        ranks = self.to_native(native_ranks)
        if ranks.size == 0:
            return _empty_partition(num_rows)
        library = self._refine_kernels(row_order, ranks.size, ranks.size)
        if library is None:
            order = stable_rank_order(ranks)
            return self._csr_partition(
                order, (ranks[order].astype(np.int64),), num_rows
            )
        # The unit partition refined by the column, through the same call
        # as every refinement: the row order built here is the one later
        # refinements by the column reuse.
        return self._native_refine(
            library, self.partition_unit(num_rows), ranks, row_order()
        )

    def partition_from_row_keys(self, keys, num_rows: int) -> Partition:
        try:
            key_matrix = np.asarray(keys, dtype=np.int64)
        except (TypeError, ValueError, OverflowError):
            key_matrix = None
        if key_matrix is None or key_matrix.ndim != 2:
            # Ragged / non-integer keys: reference dict grouping.
            return super().partition_from_row_keys(keys, num_rows)
        if key_matrix.shape[0] == 0:
            return _empty_partition(num_rows)
        if key_matrix.shape[1] == 0:
            return self.partition_unit(num_rows)
        # lexsort keys last-first: reverse so the first tuple element is the
        # most significant (any consistent total order groups equal tuples,
        # but this keeps the sort deterministic and cache-friendly).
        columns = tuple(key_matrix[:, i] for i in range(key_matrix.shape[1]))
        order = np.lexsort(columns[::-1])
        return self._csr_partition(
            order, tuple(column[order] for column in columns), num_rows
        )

    def partition_refine(
        self, partition: Partition, native_ranks, row_order=None
    ) -> Partition:
        ranks = self.to_native(native_ranks)
        if partition.num_classes == 0:
            return _empty_partition(partition.num_rows)
        library = self._refine_kernels(
            row_order, len(partition.row_indices), ranks.size
        )
        if library is not None:
            return self._native_refine(library, partition, ranks, row_order())
        rows, class_ids, _ = self._columnar_classes(partition)
        values = ranks[rows].astype(np.int64)
        order = np.lexsort((values, class_ids))
        return self._csr_partition(
            rows[order], (class_ids[order], values[order]), partition.num_rows
        )

    def partition_product(self, left: Partition, right: Partition) -> Partition:
        if left.num_rows != right.num_rows:
            raise ValueError("partitions are over relations of different sizes")
        if left.num_classes == 0 or right.num_classes == 0:
            return _empty_partition(left.num_rows)
        class_of = np.full(left.num_rows, -1, dtype=np.int64)
        right_rows, right_ids, _ = self._columnar_classes(right)
        class_of[right_rows] = right_ids
        rows, class_ids, _ = self._columnar_classes(left)
        other = class_of[rows]
        grouped = other >= 0  # singletons of `right` stay singletons in the product
        rows, class_ids, other = rows[grouped], class_ids[grouped], other[grouped]
        if rows.size == 0:
            return _empty_partition(left.num_rows)
        order = np.lexsort((other, class_ids))
        return self._csr_partition(
            rows[order], (class_ids[order], other[order]), left.num_rows
        )

    @classmethod
    def _refine_kernels(cls, row_order, num_grouped: int, num_rows: int):
        """The native kernels when a refinement of ``num_grouped`` of
        ``num_rows`` rows is offered a ``row_order`` and should take them,
        else ``None``."""
        if (row_order is None
                or num_grouped < cls._REFINE_SCATTER_FRACTION * num_rows):
            return None
        return native.kernels()

    def _native_refine(
        self, library, partition: Partition, ranks, order
    ) -> Partition:
        """``partition`` refined by ``ranks`` in one native call that
        walks the column's ``(rank, row)`` ``order``: each class bucketed
        in that order is exactly the ``(class, rank, row)`` sort of the
        lexsort path, without sorting, and the call writes the child
        partition in canonical form."""
        rows, offsets = self._csr(partition)
        out_rows = np.empty(rows.size, dtype=np.int64)
        out_offsets = np.empty(rows.size // 2 + 1, dtype=np.int64)
        num_classes = library.refine_partition(
            rows, offsets, np.ascontiguousarray(ranks, dtype=np.int32), order,
            np.empty(ranks.size, dtype=np.int32), out_rows, out_offsets,
        )
        total = int(out_offsets[num_classes])
        return Partition.from_csr(
            out_rows if total == rows.size else out_rows[:total].copy(),
            out_offsets[:num_classes + 1].copy(), partition.num_rows,
        )

    @staticmethod
    def _csr(classes) -> Tuple[np.ndarray, np.ndarray]:
        """``(rows, offsets)``: a class container as the ``int64`` CSR
        arrays the native kernels read, ``offsets`` cutting ``rows`` into
        one class each.

        A :class:`Partition` hands over its own ``row_indices`` and
        ``class_offsets`` (already ``int64`` arrays under this backend, so
        nothing is built); a pool worker's
        :class:`~repro.validation.distributed.ClassShard` its cached
        :meth:`~repro.validation.distributed.ClassShard.csr`; raw lists of
        row lists (incremental repair) are concatenated.
        """
        if isinstance(classes, Partition):
            return (
                np.ascontiguousarray(classes.row_indices, dtype=np.int64),
                np.ascontiguousarray(classes.class_offsets, dtype=np.int64),
            )
        if hasattr(classes, "csr"):
            return classes.csr()
        class_lists = list(classes)
        lengths = np.fromiter(
            (len(c) for c in class_lists), dtype=np.int64, count=len(class_lists)
        )
        rows = np.fromiter(
            chain.from_iterable(class_lists), dtype=np.int64,
            count=int(lengths.sum()),
        )
        return rows, np.concatenate(([0], np.cumsum(lengths)))

    @staticmethod
    def _columnar_classes(classes) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Flatten a class container into ``(rows, class_ids, lengths)``
        arrays, the layout of the lexsort refinement, of products and of
        the pure-NumPy kernels that run without the native library.

        :class:`Partition` objects already hold the flat CSR layout, so the
        columnar view is derived from the offset arrays with no per-class
        Python objects; the result is cached on the partition because
        candidates share contexts heavily during the level-wise search.
        Objects exposing a ``columnar_view()`` (e.g. the worker-side
        :class:`~repro.validation.distributed.ClassShard`) hand over their
        pre-flattened arrays directly; raw lists of row lists (kernel inputs
        from the repair path) are concatenated.
        """
        if isinstance(classes, Partition):
            cached = classes._columnar
            if cached is not None:
                return cached
            rows = classes.row_indices
            offsets = classes.class_offsets
            rows = (
                rows.astype(np.int64, copy=False)
                if isinstance(rows, np.ndarray)
                else np.asarray(rows, dtype=np.int64)
            )
            offsets = (
                offsets
                if isinstance(offsets, np.ndarray)
                else np.asarray(offsets, dtype=np.int64)
            )
            lengths = np.diff(offsets)
            class_ids = np.repeat(
                np.arange(lengths.size, dtype=np.int64), lengths
            )
            columnar = (rows, class_ids, lengths)
            classes._columnar = columnar
            return columnar
        if hasattr(classes, "columnar_view"):
            return classes.columnar_view()
        class_lists = list(classes)
        lengths = np.fromiter(
            (len(c) for c in class_lists), dtype=np.int64, count=len(class_lists)
        )
        total = int(lengths.sum())
        rows = np.fromiter(chain.from_iterable(class_lists), dtype=np.int64, count=total)
        class_ids = np.repeat(np.arange(len(class_lists), dtype=np.int64), lengths)
        return rows, class_ids, lengths

    @staticmethod
    def _csr_partition(
        sorted_rows: np.ndarray, key_arrays, num_rows: int
    ) -> Partition:
        """Partition from key-sorted rows: split at key changes, keep
        segments of size ≥ 2, reorder by first row, lay out flat CSR.

        Never materialises per-class Python lists: segments are selected
        and reordered with one gather over the flat row array.
        """
        n = sorted_rows.size
        change = np.zeros(n - 1, dtype=bool)
        for key in key_arrays:
            change |= np.diff(key) != 0
        boundaries = np.concatenate(([0], np.nonzero(change)[0] + 1, [n]))
        lengths = np.diff(boundaries)
        keep = lengths >= 2
        lengths = lengths[keep]
        if lengths.size == 0:
            return _empty_partition(num_rows)
        starts = boundaries[:-1][keep]
        # Segments come out in key order; the canonical layout orders
        # classes by their (unique) first row.
        order = np.argsort(sorted_rows[starts], kind="stable")
        starts, lengths = starts[order], lengths[order]
        offsets = np.concatenate(([0], np.cumsum(lengths)))
        flat = np.repeat(starts - offsets[:-1], lengths) + np.arange(
            int(offsets[-1])
        )
        return Partition.from_csr(
            sorted_rows[flat].astype(np.int64, copy=False), offsets, num_rows
        )

    # -- shared kernel plumbing ------------------------------------------------

    #: The native refinement walks a cached order over all n rows, the
    #: lexsort it replaces only the m grouped ones: below m / n ~ 0.075 the
    #: lexsort is cheaper (the crossover is ~0.05 at 16k rows, ~0.075 at
    #: 64k).  The ``refine`` record of
    #: ``benchmarks/bench_partition_micro.py`` times both sides.
    _REFINE_SCATTER_FRACTION = 0.075

    @staticmethod
    def _interior_mask(lengths: np.ndarray) -> np.ndarray:
        """Adjacent-pair mask that is ``False`` across class boundaries.

        Classes are concatenated contiguously, so the pair at flat position
        ``cumsum(lengths) - 1`` straddles two classes.
        """
        total = int(lengths.sum())
        interior = np.ones(max(total - 1, 0), dtype=bool)
        if lengths.size > 1:
            interior[np.cumsum(lengths)[:-1] - 1] = False
        return interior

    @staticmethod
    def _fused_b_sorted(
        num_classes: int, class_ids: np.ndarray,
        a_values: np.ndarray, b_values: np.ndarray,
    ) -> np.ndarray:
        """The ``B`` projection of every class ordered by ``[class, A ASC,
        B ASC]``.

        Counts never need row identities, so the
        ``(class, A, B)`` triple is fused into one int64 key and
        value-sorted — cheaper than a two-pass lexsort followed by a
        gather.  Falls back to the lexsort when the fused key would
        overflow."""
        a_base = int(a_values.max(initial=0)) + 1
        b_base = int(b_values.max(initial=0)) + 1
        if num_classes * a_base * b_base < 1 << 62:
            key = (class_ids * a_base + a_values) * b_base + b_values
            key.sort()
            return key % b_base
        combined = class_ids * a_base + a_values  # pragma: no cover - needs ~2^62 keys
        order = np.lexsort((b_values, combined))
        return b_values[order]

    # -- removal-set kernels ---------------------------------------------------

    # The single-candidate OC/OD rows kernels are off the discovery path,
    # which only counts, so they run the reference implementations on
    # materialised lists.  A vectorised sort in front of the per-class
    # patience step paid off only on one huge class (2x on the empty
    # context at 16k rows) and tied or lost on real contexts; Algorithm 1's
    # per-removal update loop is sequential by nature.

    def oc_optimal_removal_rows(
        self, classes, a_ranks, b_ranks, limit: Optional[int] = None
    ) -> Tuple[List[int], bool]:
        from repro.validation.approx_oc_optimal import optimal_removal_rows

        return optimal_removal_rows(
            classes, self._as_list(a_ranks), self._as_list(b_ranks), limit
        )

    def oc_greedy_removal_rows(
        self, classes, a_ranks, b_ranks, limit: Optional[int] = None
    ) -> Tuple[List[int], bool]:
        from repro.validation.approx_oc_iterative import iterative_removal_rows

        return iterative_removal_rows(
            classes, self._as_list(a_ranks), self._as_list(b_ranks), limit
        )

    def od_removal_rows(
        self, classes, a_ranks, b_ranks, limit: Optional[int] = None
    ) -> Tuple[List[int], bool]:
        from repro.validation.approx_od import od_removal_rows

        return od_removal_rows(
            classes, self._as_list(a_ranks), self._as_list(b_ranks), limit
        )

    # -- batched removal kernels ------------------------------------------------

    #: Dirty segments longer than this bypass the padded patience DP: on one
    #: huge class the vectorised per-element binary search cannot beat the
    #: scalar C-level ``bisect`` loop, and the DP's step count is the longest
    #: segment, so one skewed class would stall every other lane.
    _DP_MAX_SEGMENT = 2048
    #: Minimum lanes per padded-DP call; below this the setup cost dominates.
    _DP_MIN_SEGMENTS = 32

    def oc_optimal_removal_count_batch(
        self, classes, rank_pairs, limit: Optional[int] = None
    ) -> List[Tuple[int, bool]]:
        """Batched Algorithm 2 counts: one shared context, many rank pairs.

        With the native kernels loaded, one native call sorts each class of
        each pair on demand and counts it, stopping at the class that
        crosses ``limit`` (:meth:`_native_counts`).  Without them,
        per pair, one sort orders every class and a single vectorised
        pass finds the *dirty* classes (those whose ``B`` projection is not
        already non-decreasing — during discovery the vast majority are
        clean and contribute nothing).  Every dirty class removes at least
        one row, so a pair with more dirty classes than ``limit`` is
        exceeded without any LNDS work; at ``limit=0`` (exact checks) that
        is every pair that does not hold.  The dirty segments of the other
        pairs are then pushed through the segmented multi-class LNDS kernel
        together, so the patience step advances every class of every
        candidate simultaneously instead of looping per class in Python.
        """
        num_pairs = len(rank_pairs)
        if num_pairs == 0:
            return []
        library = native.kernels()
        if library is not None:
            return self._native_counts(library, classes, rank_pairs, limit)
        if not len(classes):
            return [(0, False)] * num_pairs
        rows, class_ids, lengths = self._columnar_classes(classes)
        if rows.size == 0:
            return [(0, False)] * num_pairs
        starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
        interior = self._interior_mask(lengths)
        counts = np.zeros(num_pairs, dtype=np.int64)
        exceeded = np.zeros(num_pairs, dtype=bool)
        seg_chunks: List[np.ndarray] = []
        len_chunks: List[np.ndarray] = []
        owner_chunks: List[np.ndarray] = []
        for pair_id, (a_ranks, b_ranks) in enumerate(rank_pairs):
            a_values = self.to_native(a_ranks)[rows].astype(np.int64)
            b_values = self.to_native(b_ranks)[rows].astype(np.int64)
            b_sorted = self._fused_b_sorted(
                lengths.size, class_ids, a_values, b_values
            )
            # One pass over all classes: a class is dirty iff it has an
            # in-class descent (boundary pairs are masked by `interior`).
            viol = np.zeros(b_sorted.size, dtype=bool)
            viol[:-1] = (np.diff(b_sorted) < 0) & interior
            dirty = np.add.reduceat(viol, starts) > 0
            num_dirty = int(np.count_nonzero(dirty))
            if num_dirty == 0:
                continue
            if limit is not None and num_dirty > limit:
                counts[pair_id] = limit + 1
                exceeded[pair_id] = True
                continue
            seg_chunks.append(b_sorted[np.repeat(dirty, lengths)])
            dirty_lengths = lengths[dirty]
            len_chunks.append(dirty_lengths)
            owner_chunks.append(np.full(dirty_lengths.size, pair_id, dtype=np.int64))
        if seg_chunks:
            self._segmented_lnds_counts(
                np.concatenate(seg_chunks),
                np.concatenate(len_chunks),
                np.concatenate(owner_chunks),
                counts,
                exceeded,
                limit,
            )
        return [(int(c), bool(e)) for c, e in zip(counts, exceeded)]

    def _native_counts(
        self, library, classes, rank_pairs, limit: Optional[int]
    ) -> List[Tuple[int, bool]]:
        """One native call for the whole batch: per pair, each class is
        gathered, sorted by ``[A ASC, B ASC]`` and counted with the screen
        and patience LNDS, in order, until the class that takes the count
        above ``limit``.  Every entry, the partial count of an exceeded
        pair included, equals the reference kernel's class-by-class result,
        and the classes after the crossing one are never touched.  The same
        call serves in-process contexts, pool workers' ``ClassShard``s and
        incremental repair's class lists.
        """
        if not len(classes):
            return [(0, False)] * len(rank_pairs)
        rows, offsets = self._csr(classes)
        pairs = [
            tuple(
                np.ascontiguousarray(self.to_native(ranks), dtype=np.int32)
                for ranks in pair
            )
            for pair in rank_pairs
        ]
        counts = library.oc_removal_batch(
            rows, offsets, pairs,
            np.empty(2 * int(np.diff(offsets).max()), dtype=np.int64), limit,
        )
        return [(count, limit is not None and count > limit) for count in counts]

    def _segmented_lnds_counts(
        self,
        seg_values: np.ndarray,
        seg_lengths: np.ndarray,
        seg_owners: np.ndarray,
        counts: np.ndarray,
        exceeded: np.ndarray,
        limit: Optional[int],
    ) -> None:
        """Removal counts for many dirty segments, accumulated per owner.

        ``seg_values`` concatenates the ``[A ASC, B ASC]``-sorted ``B``
        projections of every dirty segment; ``seg_lengths`` / ``seg_owners``
        describe them.  ``length - LNDS(length)`` is added into ``counts``
        indexed by owner.  Once an owner provably exceeds ``limit`` its
        ``exceeded`` flag is set, its count is pinned to ``limit + 1`` and
        its remaining segments are abandoned (see the contract in base.py).

        Segments are bucketed by length magnitude: short, numerous buckets
        run through the padded multi-lane patience DP; long or lonely ones
        fall back to the scalar ``bisect`` loop, which wins on big classes.
        Ascending bucket order lets cheap segments trigger the early exit
        before any expensive lane starts.
        """
        from repro.validation.lnds import lnds_length

        offsets = np.concatenate(([0], np.cumsum(seg_lengths)))
        # frexp's exponent is the bit length, i.e. the power-of-two bucket;
        # within a bucket max/min length differ by at most 2x, so no lane
        # idles through a long tail of steps sized by one skewed segment.
        buckets = np.frexp(seg_lengths.astype(np.float64))[1]
        for bucket in np.unique(buckets):
            members = np.nonzero(buckets == bucket)[0]
            members = members[~exceeded[seg_owners[members]]]
            if members.size == 0:
                continue
            max_len = int(seg_lengths[members].max())
            if members.size >= self._DP_MIN_SEGMENTS and max_len <= self._DP_MAX_SEGMENT:
                self._padded_patience_counts(
                    seg_values, offsets, members, seg_lengths, seg_owners,
                    counts, exceeded, limit,
                )
            else:
                for i in members:
                    owner = seg_owners[i]
                    if exceeded[owner]:
                        continue
                    values = seg_values[offsets[i]:offsets[i + 1]].tolist()
                    counts[owner] += len(values) - lnds_length(values)
                    if limit is not None and counts[owner] > limit:
                        exceeded[owner] = True
        if limit is not None:
            exceeded |= counts > limit

    def _padded_patience_counts(
        self,
        seg_values: np.ndarray,
        offsets: np.ndarray,
        members: np.ndarray,
        seg_lengths: np.ndarray,
        seg_owners: np.ndarray,
        counts: np.ndarray,
        exceeded: np.ndarray,
        limit: Optional[int],
    ) -> None:
        """One patience pass advancing all member segments simultaneously.

        Lane ``i`` holds one segment; at step ``t`` every active lane
        inserts its ``t``-th value into its tails row via a vectorised
        right-bisect, so the Python-level iteration count is the longest
        segment length instead of the total element count.
        """
        lengths = seg_lengths[members].astype(np.int64)
        owners = seg_owners[members]
        num = members.size
        max_len = int(lengths.max())
        total = int(lengths.sum())
        lane_idx = np.repeat(np.arange(num, dtype=np.int64), lengths)
        first = np.cumsum(lengths) - lengths
        col_idx = np.arange(total, dtype=np.int64) - np.repeat(first, lengths)
        flat = np.repeat(offsets[members], lengths) + col_idx
        padded = np.zeros((num, max_len), dtype=np.int64)
        padded[lane_idx, col_idx] = seg_values[flat]
        sentinel = np.iinfo(np.int64).max
        tails = np.full((num, max_len), sentinel, dtype=np.int64)
        tail_len = np.zeros(num, dtype=np.int64)
        alive = np.ones(num, dtype=bool)
        for t in range(max_len):
            act = np.nonzero(alive & (lengths > t))[0]
            if act.size == 0:
                break
            v = padded[act, t]
            # Vectorised bisect_right over each lane's tails[0:tail_len):
            # first position whose tail is strictly greater than v.
            lo = np.zeros(act.size, dtype=np.int64)
            hi = tail_len[act].copy()
            while True:
                open_ = lo < hi
                if not open_.any():
                    break
                mid = (lo + hi) >> 1
                right = open_ & (tails[act, np.minimum(mid, max_len - 1)] <= v)
                lo = np.where(right, mid + 1, lo)
                hi = np.where(open_ & ~right, mid, hi)
            tails[act, lo] = v
            tail_len[act] = np.maximum(tail_len[act], lo + 1)
            if limit is not None:
                # Lower bound on each lane's final removals: of the t+1
                # values consumed, at most tail_len are on any LNDS.  Owners
                # whose accumulated bound crosses the budget are certainly
                # invalid — retire all their lanes now.
                bound = np.minimum(lengths, t + 1) - tail_len
                pending = np.bincount(
                    owners[alive], weights=bound[alive], minlength=counts.size
                ).astype(np.int64)
                over = (counts + pending > limit) & ~exceeded
                if over.any():
                    exceeded |= over
                    counts[over] = limit + 1
                    alive &= ~exceeded[owners]
        if alive.any():
            removals = (lengths - tail_len)[alive]
            counts += np.bincount(
                owners[alive], weights=removals, minlength=counts.size
            ).astype(np.int64)

    def ofd_removal_batch(
        self, classes, rhs_ranks, limit: Optional[int] = None
    ) -> List[Tuple[int, bool]]:
        """Batched count-only ``g3`` kernel: one shared context, many RHS
        columns.

        With the native kernels loaded, one native call makes a frequency
        pass per column over the context's classes, all sharing one zeroed
        scratch.  Without them, one sort over every column's ``(rhs, class,
        value)`` keys gives each value's frequency as a run length and each
        class's keep count as its longest run.  Either way every entry, the partial
        count of an exceeded column included, equals the reference kernel's
        class-by-class result.
        """
        num_rhs = len(rhs_ranks)
        if num_rhs == 0:
            return []
        if not len(classes):
            return [(0, False)] * num_rhs
        columns = [self.to_native(ranks) for ranks in rhs_ranks]
        library = native.kernels()
        if library is not None:
            rows, offsets = self._csr(classes)
            columns = [np.ascontiguousarray(c, dtype=np.int32) for c in columns]
            # One counter per rank; the kernel leaves them zeroed for reuse.
            freq = np.zeros(
                max(int(c.max(initial=0)) for c in columns) + 1, dtype=np.int64
            )
            counts = library.ofd_removal_count(
                columns, rows, offsets, freq, limit
            )
        else:
            rows, class_ids, lengths = self._columnar_classes(classes)
            if rows.size == 0:
                return [(0, False)] * num_rhs
            # Distinct (rhs, class, value) triples get distinct keys, ordered
            # rhs-major: after one sort each value's frequency is a run
            # length, and each class keeps its longest run.
            num_classes = lengths.size
            values = np.stack(columns)[:, rows].astype(np.int64)
            base = int(values.max()) + 1
            groups = class_ids + np.arange(num_rhs)[:, None] * num_classes
            keys = np.sort((groups * base + values).ravel())
            run_starts = np.flatnonzero(np.diff(keys, prepend=-1))
            keep = np.zeros(num_rhs * num_classes, dtype=np.int64)
            np.maximum.at(keep, keys[run_starts] // base,
                          np.diff(run_starts, append=keys.size))
            cumulative = np.cumsum(
                lengths - keep.reshape(num_rhs, num_classes), axis=1
            )
            # An exceeded column stops after the class that crosses the limit.
            over = cumulative > (np.inf if limit is None else limit)
            ends = np.where(over.any(axis=1), over.argmax(axis=1), num_classes - 1)
            counts = cumulative[np.arange(num_rhs), ends]
        return [(int(c), limit is not None and c > limit) for c in counts]

    def ofd_removal_rows(
        self, classes, value_ranks, limit: Optional[int] = None
    ) -> Tuple[List[int], bool]:
        if not len(classes):
            return [], False
        ranks = self.to_native(value_ranks)
        rows, class_ids, lengths = self._columnar_classes(classes)
        values = ranks[rows].astype(np.int64)
        starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
        # Per-row frequency of (class, value), then per class keep the value
        # with the highest frequency, ties broken by first occurrence within
        # the class — exactly Counter.most_common(1)'s insertion-order rule.
        keys = class_ids * (int(values.max()) + 1 if values.size else 1) + values
        _, inverse, counts = np.unique(keys, return_inverse=True, return_counts=True)
        row_counts = counts[inverse.reshape(-1)]
        class_max = np.maximum.reduceat(row_counts, starts)
        positions = np.arange(rows.size, dtype=np.int64)
        candidates = np.where(row_counts == np.repeat(class_max, lengths),
                              positions, rows.size)
        first_best = np.minimum.reduceat(candidates, starts)
        keep_values = values[first_best]
        removal_mask = values != np.repeat(keep_values, lengths)
        removed_per_class = np.add.reduceat(removal_mask.astype(np.int64), starts)
        cumulative = np.cumsum(removed_per_class)
        if limit is not None and cumulative[-1] > int(limit):
            crossing = int(np.argmax(cumulative > int(limit)))
            cut = int(starts[crossing] + lengths[crossing])
            return rows[:cut][removal_mask[:cut]].tolist(), True
        return rows[removal_mask].tolist(), False

    # -- helpers ---------------------------------------------------------------

    @staticmethod
    def _as_list(ranks) -> List[int]:
        if isinstance(ranks, np.ndarray):
            return ranks.tolist()
        return ranks if isinstance(ranks, list) else list(ranks)
