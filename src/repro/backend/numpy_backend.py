"""The compute backend: NumPy columns, CSR partitions, native kernels.

Rank columns are dense ``int32`` arrays and partitions ``int64`` CSR
arrays.  One class serves two configurations, picked by registry name:

* ``"numpy"`` (and ``"auto"``) is the fast one.  It encodes a column by
  the reference encoder's own algorithm, so it never falls back to it:
  numeric columns of plain ints inside ±2^53, or of floats other than
  NaN, rank as one NumPy array; every other column goes through a
  first-occurrence value dictionary whose distinct values are sorted
  plainly where that is the reference's order, else by its sort keys.
  With the native kernels of :mod:`repro.backend.native`, a refinement
  offered the new attribute's cached row order (sorted partitions) is
  one native call that walks it and writes the child partition in
  canonical form, in O(n) and without a sort; a single-column partition
  is the unit partition refined the same way.  Offered no row order, and
  on hosts without the library, partitions refine by a stable lexsort
  over rank columns, split on group boundaries.  The count-only OC and
  ``g3`` kernels hand a whole batch to one native call, each job over its
  own range of the CSR's classes (a discovery batch: all of one
  context's; incremental repair: one context's slice of every affected
  context's patch classes): per pair,
  the OC call sorts each class on demand, screens and counts it, and
  stops at the class that crosses the removal budget; the ``g3`` call
  makes one frequency pass per RHS column.  Without the library both
  batches run the reference loops of :mod:`repro.validation`
  (Algorithm 2's count and the ``g3`` rows loop) on the columns as lists,
  over the same class ranges.  An append's touched groups split by one
  native call per attribute and lattice level, or by a dict-bucketing
  reference loop (:meth:`NumpyBackend.split_groups`).
* ``"python"`` is the reference configuration: every fast path is off.
  It encodes with the reference encoder
  (:func:`repro.dataset.encoding.encode_column`), refines by lexsort and
  counts and splits with the reference loops, even where the native
  library loads.

The removal-*rows* loops (Algorithms 1 and 2, the §3.3 OD variant and
``g3``) have no backend form: the validators call them directly on the
cached rank lists.

Parity contract: both configurations return the same values, in the
same order, with the same early-exit points; encoded columns have equal
ranks and dictionaries of equal values of equal types.
"""

from __future__ import annotations

from itertools import chain
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.backend import native
from repro.dataset.encoding import _sort_key, encode_column
from repro.dataset.partition import ClassCSR, Partition
from repro.dataset.schema import AttributeType

#: ``(ranks, dictionary, native_column)`` as returned by ``encode_column``:
#: ``ranks`` is the plain-list form of ``native_column`` (an ``int32``
#: array), or ``None``, in which case
#: :class:`~repro.dataset.encoding.EncodedRelation` derives the list lazily
#: on first access.
EncodedColumn = Tuple[Optional[List[int]], List[object], object]

#: Largest magnitude at which ``float(int)`` is still injective; beyond it
#: the reference encoder's float sort keys collide and break ties by first
#: appearance, so such values take the keyed sort.
_FLOAT_SAFE_INT = 1 << 53

#: Widest value span, per row, that ``_encode_array`` ranks through a
#: presence table instead of ``np.unique``.
_DENSE_SPAN_PER_ROW = 4

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
    """A classless partition over ``num_rows`` rows."""
    return Partition.from_csr([], [0], num_rows)


def _as_list(ranks) -> List[int]:
    """A rank column as the plain list the reference loops index: identity
    on lists, ``tolist()`` otherwise (scalar indexing into an array is
    several times slower and yields NumPy scalars)."""
    return ranks if isinstance(ranks, list) else np.asarray(ranks).tolist()


def _class_subsets(classes, ranges, num_jobs: int):
    """Per job, the classes the reference loops count: all of ``classes``
    when ``ranges`` is ``None``, else classes ``lo .. hi - 1`` of each
    job's ``(lo, hi)``.  A range outside the classes raises
    ``ValueError``, as the native kernels do."""
    if ranges is None:
        return [classes] * num_jobs
    class_list = list(classes)
    if len(ranges) != num_jobs:
        raise ValueError("expected one (lo, hi) class range per job")
    subsets = []
    for lo, hi in ranges:
        if not 0 <= lo <= hi <= len(class_list):
            raise ValueError(
                f"class range [{lo}, {hi}) outside {len(class_list)} classes"
            )
        subsets.append(class_list[lo:hi])
    return subsets


def _encode_array(
    values: Sequence[object],
) -> Optional[Tuple[List[object], np.ndarray]]:
    """``(dictionary, ranks)`` of a numeric column whose present values are
    all plain ``int`` inside ±2^53 or all ``float`` other than NaN, or
    ``None`` for any other column.

    On such values the reference's ``float`` sort keys are injective, so
    its order is the values' own and the column ranks as one NumPy array;
    ``None`` takes rank 0, as in the reference.
    """
    kinds = set(map(type, values))
    present = values
    if type(None) in kinds:
        kinds.discard(type(None))
        present = [value for value in values if value is not None]
    if kinds == {int}:
        try:
            array = np.array(present, dtype=np.int64)
        except OverflowError:
            return None
        lo, hi = int(array.min()), int(array.max())
        if lo <= -_FLOAT_SAFE_INT or hi >= _FLOAT_SAFE_INT:
            return None
        if hi - lo <= _DENSE_SPAN_PER_ROW * array.size:
            # A table of the values present ranks them without a sort.
            offsets = array - lo
            seen = np.zeros(hi - lo + 1, dtype=bool)
            seen[offsets] = True
            ranks = (np.cumsum(seen, dtype=np.int32) - 1)[offsets]
            uniques = np.flatnonzero(seen) + lo
        else:
            uniques, ranks = np.unique(array, return_inverse=True)
    elif kinds == {float}:
        array = np.array(present, dtype=np.float64)
        if np.isnan(array).any():
            return None
        uniques, ranks = np.unique(array, return_inverse=True)
        zeros = np.flatnonzero(array == 0)
        if zeros.size:
            # -0.0 == 0.0: the reference keeps the first one's sign.
            uniques[uniques == 0] = array[zeros[0]]
    else:
        return None
    ranks = ranks.astype(np.int32, copy=False).reshape(-1)
    if present is values:
        return uniques.tolist(), ranks
    mask = np.fromiter(
        (value is not None for value in values), dtype=bool, count=len(values)
    )
    native = np.zeros(len(values), dtype=np.int32)
    native[mask] = ranks + 1
    return [None, *uniques.tolist()], native


def _encode_distinct(
    values: Sequence[object], attr_type: AttributeType, numeric: bool
) -> Tuple[List[object], np.ndarray]:
    """``(dictionary, ranks)`` of any column, by the reference encoder's
    own algorithm: distinct values in first-occurrence order (so each
    keeps its first representative), ``None`` first, the rest sorted
    stably by :func:`~repro.dataset.encoding._sort_key`.  Where that sort
    is the values' natural order (see :func:`_plainly_sorted`) the keys
    are never built."""
    distinct = dict.fromkeys(values)
    dictionary: List[object] = [None] if None in distinct else []
    distinct.pop(None, None)
    if _plainly_sorted(distinct, numeric):
        dictionary += sorted(distinct)
    else:
        dictionary += sorted(
            distinct, key=lambda value: _sort_key(value, attr_type)
        )
    # The distinct-value dict becomes the value -> rank map in place.
    distinct.update(zip(dictionary, range(len(dictionary))))
    return dictionary, np.fromiter(
        map(distinct.__getitem__, values), dtype=np.int32, count=len(values)
    )


def _plainly_sorted(distinct, numeric: bool) -> bool:
    """Do the distinct values sort like their reference sort keys?

    In a non-numeric column every ``str`` keys as ``(1, value)``; in a
    numeric one every ``int`` or ``float`` as ``(0, float(value))``, which
    is injective and order-preserving for ints inside ±2^53 and floats
    other than NaN.  Distinct values never compare equal, so no tie is
    left for the reference's first-appearance order to break.  Subclasses
    (``bool``, ``str`` subclasses) take the keyed sort.
    """
    kinds = set(map(type, distinct))
    if not numeric:
        return kinds <= {str}
    return kinds <= {int, float} and all(
        -_FLOAT_SAFE_INT < value < _FLOAT_SAFE_INT for value in distinct
    )


class NumpyBackend:
    """The compute backend over ``int32`` rank arrays; ``reference``
    selects the ``"python"`` configuration (see the module docstring)."""

    def __init__(self, reference: bool = False) -> None:
        self.reference = reference
        #: Registry name (``"python"`` / ``"numpy"``).
        self.name = "python" if reference else "numpy"

    def _kernels(self):
        """The native library, or ``None`` where the reference code runs."""
        return None if self.reference else native.kernels()

    @property
    def oc_kernel_name(self) -> str:
        """Which implementation runs the count-only OC and OFD removal
        kernels (reported as ``oc_kernel`` on ``/healthz``): ``"native"``
        for the native library, ``"python"`` for the reference loops."""
        return "python" if self._kernels() is None else "native"

    # -- columns ---------------------------------------------------------------

    def to_native(self, ranks: Sequence[int]):
        if isinstance(ranks, np.ndarray):
            return ranks
        return np.asarray(ranks, dtype=np.int32)

    def encode_column(
        self, values: Sequence[object], attr_type: AttributeType = AttributeType.STRING
    ) -> EncodedColumn:
        if self.reference:
            ranks, dictionary = encode_column(values, attr_type)
            return ranks, dictionary, np.asarray(ranks, dtype=np.int32)
        numeric = attr_type in _NUMERIC_TYPES
        encoded = _encode_array(values) if numeric else None
        if encoded is None:
            encoded = _encode_distinct(values, attr_type, numeric)
        # ranks=None: the canonical list is derived lazily from the native
        # column by EncodedRelation on first access, so hot paths that only
        # touch the columnar form never pay for a Python list.
        return None, encoded[0], encoded[1]

    # -- partitions ------------------------------------------------------------

    def partition_single(
        self, native_ranks, num_rows: int, row_order=None
    ) -> Partition:
        ranks = self.to_native(native_ranks)
        if ranks.size == 0:
            return _empty_partition(num_rows)
        library = self._refine_kernels(row_order)
        if library is None:
            order = stable_rank_order(ranks)
            return self._csr_partition(
                order, (ranks[order].astype(np.int64),), num_rows
            )
        # The unit partition refined by the column, through the same call
        # as every refinement: the row order built here is the one later
        # refinements by the column reuse.
        return self._native_refine(
            library, Partition.unit(num_rows), ranks, row_order()
        )

    def partition_refine(
        self, partition: Partition, native_ranks, row_order=None
    ) -> Partition:
        ranks = self.to_native(native_ranks)
        if partition.num_classes == 0:
            return _empty_partition(partition.num_rows)
        library = self._refine_kernels(row_order)
        if library is not None:
            return self._native_refine(library, partition, ranks, row_order())
        rows, class_ids = self._columnar_classes(partition)
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
        right_rows, right_ids = self._columnar_classes(right)
        class_of[right_rows] = right_ids
        rows, class_ids = self._columnar_classes(left)
        other = class_of[rows]
        grouped = other >= 0  # singletons of `right` stay singletons in the product
        rows, class_ids, other = rows[grouped], class_ids[grouped], other[grouped]
        if rows.size == 0:
            return _empty_partition(left.num_rows)
        order = np.lexsort((other, class_ids))
        return self._csr_partition(
            rows[order], (class_ids[order], other[order]), left.num_rows
        )

    def split_groups(self, rows, offsets, ranges, ranks, old: int, slot):
        """Split groups of the ``int32`` ``rows`` (group ``g`` is
        ``rows[offsets[g]:offsets[g + 1]]``, ascending) by the rank column
        ``ranks``, job ``j`` splitting groups ``ranges[j][0]`` to
        ``ranges[j][1] - 1``: an append's touched groups of a context split
        by one more attribute.  Returns ``(rows, groups)``: the subgroups
        of two rows or more that hold a row ``>= old``, each group's by
        first row, as ``int32`` rows and an ``int64`` ``(size, rows below
        old, job)`` triple per subgroup.  ``slot`` is ``int32`` scratch of
        ``-1``, one per rank, left so.

        One native call, or the reference loop without the library.
        """
        library = self._kernels()
        if library is not None:
            return library.split_groups(rows, offsets, ranges, ranks, old,
                                        slot)
        rows, offsets, ranks = rows.tolist(), offsets.tolist(), ranks.tolist()
        out_rows, groups = [], []
        for job, (lo, hi) in enumerate(ranges.tolist()):
            for group in range(lo, hi):
                buckets = {}
                for row in rows[offsets[group]:offsets[group + 1]]:
                    buckets.setdefault(ranks[row], []).append(row)
                for bucket in buckets.values():
                    if len(bucket) >= 2 and bucket[-1] >= old:
                        out_rows += bucket
                        groups.append((len(bucket),
                                       sum(row < old for row in bucket), job))
        return (np.array(out_rows, dtype=np.int32),
                np.array(groups, dtype=np.int64).reshape(-1, 3))

    def _refine_kernels(self, row_order):
        """The native kernels when a refinement is offered a ``row_order``,
        else ``None`` (the lexsort refines)."""
        return None if row_order is None else self._kernels()

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

        A :class:`Partition` or :class:`ClassCSR` hands over its own
        ``row_indices`` and ``class_offsets``, so nothing is built; raw
        lists of row lists (one-off validations, tests) are concatenated.
        """
        if isinstance(classes, (Partition, ClassCSR)):
            return classes.row_indices, classes.class_offsets
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
    def _columnar_classes(partition: Partition) -> Tuple[np.ndarray, np.ndarray]:
        """A partition's classes as flat ``(rows, class_ids)`` arrays, the
        layout of the lexsort refinement and of products.

        Derived from the CSR offset arrays with no per-class Python
        objects, and cached on the partition because the level-wise search
        refines one partition by many attributes.
        """
        cached = partition._columnar
        if cached is not None:
            return cached
        rows = partition.row_indices
        lengths = np.diff(partition.class_offsets)
        class_ids = np.repeat(np.arange(lengths.size, dtype=np.int64), lengths)
        partition._columnar = (rows, class_ids)
        return partition._columnar

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

    # -- batched removal kernels ------------------------------------------------
    #
    # The level-synchronous scheduler groups all surviving candidates of a
    # lattice level by context and dispatches each group through one call, so
    # the context's partition is paid once per group instead of once per
    # candidate.  A single candidate is a batch of one.  Without the native
    # library a batch is exactly a loop of the reference kernels, which are
    # looked up at call time (the validation modules import
    # ``repro.backend``, so importing them at module load would be a cycle).
    #
    # Parity contract for both batch kernels: each returns one ``(count,
    # exceeded)`` per candidate, and entry ``i`` aligns with input ``i``.
    # The ``exceeded`` flag must be *exact* (``True`` iff the candidate's
    # full removal set is larger than ``limit``), and an exceeded entry
    # carries the class-by-class partial: the count up to and including the
    # first class that takes it above ``limit``, as the reference loop stops
    # there.  Whenever ``exceeded`` is ``False`` the count equals ``len`` of
    # the removal set of the matching rows loop (``optimal_removal_rows``,
    # ``aofd_removal_rows``).  Discovery only consumes
    # ``(valid, size-if-valid)``.  At ``limit=0`` the exact ``exceeded``
    # flag is the exact check: ``not exceeded`` iff the dependency holds
    # with no removals.  Columns may be arrays or lists.

    def _distinct_natives(self, columns):
        """``id(column) -> int32 array`` for each distinct column: jobs
        share columns, so each is converted (and scanned) once a batch."""
        natives = {}
        for ranks in columns:
            if id(ranks) not in natives:
                natives[id(ranks)] = np.ascontiguousarray(
                    self.to_native(ranks), dtype=np.int32
                )
        return natives

    def oc_optimal_removal_count_batch(
        self, classes, rank_pairs, limit: Optional[int] = None, ranges=None
    ) -> List[Tuple[int, bool]]:
        """Batched Algorithm 2 counts: one shared CSR, many rank pairs.

        One native call for the whole batch: per pair, each class of its
        range is gathered, sorted by ``[A ASC, B ASC]`` and counted with the
        screen and patience LNDS, in order, until the class that takes the
        count above ``limit``.  Every entry, the partial count of an
        exceeded pair included, equals the reference loop's class-by-class
        result over the same classes, and the classes after the crossing one
        are never touched.  ``ranges`` holds one ``(lo, hi)`` per pair, the
        classes ``lo .. hi - 1`` it is counted over; ``None`` (a discovery
        batch: one context) means every class.  The same call serves
        discovery's context partitions and incremental repair, which
        concatenates many contexts' patch classes into one CSR.
        """
        library = self._kernels()
        if library is None:
            from repro.validation.approx_oc_optimal import optimal_removal_count

            # Pairs share columns: convert each once per batch, not per pair.
            lists = {id(ranks): ranks for pair in rank_pairs for ranks in pair}
            lists = {key: _as_list(ranks) for key, ranks in lists.items()}
            return [
                optimal_removal_count(
                    subset, lists[id(a_ranks)], lists[id(b_ranks)], limit
                )
                for (a_ranks, b_ranks), subset in zip(
                    rank_pairs, _class_subsets(classes, ranges, len(rank_pairs))
                )
            ]
        if not rank_pairs:
            return []
        if not len(classes):
            _class_subsets(classes, ranges, len(rank_pairs))  # checks them
            return [(0, False)] * len(rank_pairs)
        rows, offsets = self._csr(classes)
        natives = self._distinct_natives(chain.from_iterable(rank_pairs))
        pairs = [(natives[id(a)], natives[id(b)]) for a, b in rank_pairs]
        counts = library.oc_removal_batch(
            rows, offsets, pairs,
            np.empty(2 * int(np.diff(offsets).max()), dtype=np.int64), limit,
            ranges,
        )
        return [(count, limit is not None and count > limit) for count in counts]

    def ofd_removal_batch(
        self, classes, rhs_ranks, limit: Optional[int] = None, ranges=None
    ) -> List[Tuple[int, bool]]:
        """Batched count-only ``g3`` kernel: one shared CSR, many RHS
        columns, each over its class range (``ranges`` as in
        :meth:`oc_optimal_removal_count_batch`).

        One native call makes a frequency pass per column over its classes,
        all sharing one zeroed scratch.  Every entry, the partial count of
        an exceeded column included, equals the reference loop's
        class-by-class result over the same classes.
        """
        library = self._kernels()
        if library is None:
            from repro.validation.approx_ofd import aofd_removal_rows

            return [
                (len(rows), exceeded)
                for rows, exceeded in (
                    aofd_removal_rows(subset, _as_list(ranks), limit)
                    for ranks, subset in zip(
                        rhs_ranks,
                        _class_subsets(classes, ranges, len(rhs_ranks)),
                    )
                )
            ]
        if not rhs_ranks:
            return []
        if not len(classes):
            _class_subsets(classes, ranges, len(rhs_ranks))  # checks them
            return [(0, False)] * len(rhs_ranks)
        rows, offsets = self._csr(classes)
        natives = self._distinct_natives(rhs_ranks)
        columns = [natives[id(ranks)] for ranks in rhs_ranks]
        # One counter per rank; the kernel leaves them zeroed for reuse.
        freq = np.zeros(max(
            int(column.max(initial=0)) for column in natives.values()
        ) + 1, dtype=np.int64)
        counts = library.ofd_removal_count(
            columns, rows, offsets, freq, limit, ranges
        )
        return [(count, limit is not None and count > limit) for count in counts]

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"{type(self).__name__}()"
