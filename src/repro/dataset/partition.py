"""Equivalence-class partitions (position list indexes).

Definition 2.8 of the paper: an attribute set ``X`` partitions the tuples of
a table into equivalence classes ``E(t_X) = {s | s_X = t_X}``; the partition
``Pi_X`` is the set of all such classes.  The canonical OD framework
validates every candidate *within* the equivalence classes of its context,
so partitions are the central data structure of the discovery framework.

Following TANE and FASTOD, partitions are stored *stripped*: singleton
classes are dropped because a class with a single tuple can contain neither
a swap nor a split.  The compute backend builds them (single columns and
refinements ``Pi_{X ∪ {A}}`` by one more rank column).

Layout
------
A partition is stored flat, in CSR (compressed sparse row) form, as two
``int64`` NumPy arrays:

* ``row_indices`` — the concatenation of every stripped class's row ids;
* ``class_offsets`` — ``num_classes + 1`` offsets into ``row_indices``
  (``class_offsets[0] == 0``), so class ``i`` is the half-open slice
  ``row_indices[class_offsets[i]:class_offsets[i + 1]]``.

Invariants: rows are ascending within a class, every class has >= 2 rows,
and classes are ordered by their first row (firsts are unique because
classes are disjoint).  This is the exact layout the native kernels read,
so kernel dispatch never materialises per-class Python lists.  The
list-of-lists view survives as the lazy :attr:`Partition.classes` property
for tests, baselines and other cold consumers.
"""

from __future__ import annotations

from itertools import accumulate, chain
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.caching import BoundedLRU
from repro.obs import get_tracer

# NumPy is imported where it is used, not here: `import repro` then stays
# ~90 ms and ~13 MiB lighter until the first partition is built.


class Partition:
    """A stripped partition of row indices into equivalence classes.

    Attributes
    ----------
    row_indices:
        Concatenated row ids of every stripped class (an ``int64`` array;
        see the module docstring for the layout invariants).
    class_offsets:
        ``num_classes + 1`` ``int64`` offsets delimiting each class's slice
        of ``row_indices``.
    num_rows:
        Total number of rows in the underlying relation (including rows in
        stripped singleton classes).
    """

    __slots__ = ("row_indices", "class_offsets", "num_rows", "_classes",
                 "_columnar")

    def __init__(self, classes: Sequence[Sequence[int]], num_rows: int) -> None:
        kept = sorted((sorted(c) for c in classes if len(c) >= 2),
                      key=lambda c: c[0])
        self._adopt(list(chain.from_iterable(kept)),
                    [0, *accumulate(map(len, kept))], num_rows)

    def _adopt(self, row_indices, class_offsets, num_rows: int) -> None:
        import numpy as np

        self.row_indices = np.ascontiguousarray(row_indices, dtype=np.int64)
        self.class_offsets = np.ascontiguousarray(class_offsets, dtype=np.int64)
        self.num_rows = num_rows
        self._classes: Optional[List[List[int]]] = None
        # Backend-owned columnar view (concatenated row/class-id arrays),
        # built lazily by the lexsort refinement or a partition product
        # (the native kernels read the CSR arrays themselves) and reused by
        # all later refinements of the same partition.  Not part of
        # equality/repr.
        self._columnar = None

    # -- construction ----------------------------------------------------------

    @classmethod
    def from_csr(cls, row_indices, class_offsets, num_rows: int) -> "Partition":
        """Adopt CSR arrays (trusted constructor).

        Contiguous ``int64`` arrays are adopted as they are; anything else
        (lists, other dtypes) is converted.  The caller guarantees the
        layout invariants: ascending rows within each class, every class of
        size >= 2, classes ordered by first row, ``class_offsets[0] == 0``.
        """
        partition = cls.__new__(cls)
        partition._adopt(row_indices, class_offsets, num_rows)
        return partition

    @classmethod
    def single(cls, ranks: Sequence[int]) -> "Partition":
        """Build the partition of a single encoded column through the
        default compute backend."""
        from repro.backend import resolve_backend

        return resolve_backend(None).partition_single(ranks, len(ranks))

    @classmethod
    def unit(cls, num_rows: int) -> "Partition":
        """Partition of the empty attribute set: one class with every row.

        This is the context of level-2 OC candidates such as ``{}: A ~ B``
        and of level-1 OFD candidates such as ``{}: [] -> A``.
        """
        import numpy as np

        if num_rows <= 1:
            return cls.from_csr([], [0], num_rows)
        return cls.from_csr(np.arange(num_rows), [0, num_rows], num_rows)

    # -- properties ------------------------------------------------------------

    @property
    def classes(self) -> List[List[int]]:
        """List-of-lists view of the classes (lazy).

        Hot paths never touch this: construction, refinement, append repair
        and the kernels all work on the flat CSR arrays.  The materialised
        lists are cached for repeat consumers.
        """
        if self._classes is None:
            rows = self.row_indices.tolist()
            offsets = self.class_offsets.tolist()
            self._classes = [
                rows[offsets[i]:offsets[i + 1]]
                for i in range(len(offsets) - 1)
            ]
        return self._classes

    @property
    def num_classes(self) -> int:
        """Number of (non-singleton) equivalence classes."""
        return len(self.class_offsets) - 1

    @property
    def num_grouped_rows(self) -> int:
        """Number of rows contained in non-singleton classes (O(1))."""
        return len(self.row_indices)

    @property
    def num_singleton_rows(self) -> int:
        """Number of rows that form singleton classes (stripped away)."""
        return self.num_rows - self.num_grouped_rows

    def total_class_count(self) -> int:
        """Number of equivalence classes *including* singletons (``|Pi_X|``)."""
        return self.num_classes + self.num_singleton_rows

    def error_rows(self) -> int:
        """TANE's ``||Pi_X||`` error numerator: rows minus classes.

        This equals the minimal number of tuples to remove so that ``X``
        becomes a key.
        """
        return self.num_rows - self.total_class_count()

    def __iter__(self):
        return iter(self.classes)

    def __len__(self) -> int:
        return self.num_classes

    def __eq__(self, other: object) -> bool:
        import numpy as np

        if not isinstance(other, Partition):
            return NotImplemented
        return (
            self.num_rows == other.num_rows
            and np.array_equal(self.class_offsets, other.class_offsets)
            and np.array_equal(self.row_indices, other.row_indices)
        )

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"Partition({self.num_classes} stripped classes over "
            f"{self.num_rows} rows)"
        )


class ClassCSR:
    """Classes as CSR arrays, ``class_offsets`` cutting the ``int64``
    ``row_indices`` into one class each, with none of :class:`Partition`'s
    layout invariants: classes may share rows and come in any order.

    The count kernels (and their reference loops) read it as they read a
    partition's classes; it has no partition statistics to get wrong.
    """

    __slots__ = ("row_indices", "class_offsets")

    def __init__(self, row_indices, class_offsets) -> None:
        self.row_indices = row_indices
        self.class_offsets = class_offsets

    def __len__(self) -> int:
        return len(self.class_offsets) - 1

    def __iter__(self):
        rows = self.row_indices.tolist()
        offsets = self.class_offsets.tolist()
        return (rows[lo:hi] for lo, hi in zip(offsets, offsets[1:]))


def _select_classes(partition: Partition, ids) -> Partition:
    """The sub-partition of ``partition`` holding its classes at the
    ascending indices ``ids``.

    Pure index arithmetic: ``starts - out_offsets`` repeated per element
    plus a flat ``arange`` turns the per-class slices into one gather.
    """
    import numpy as np

    offsets = partition.class_offsets
    lengths = np.diff(offsets)[ids]
    out_offsets = np.zeros(lengths.size + 1, dtype=np.int64)
    np.cumsum(lengths, out=out_offsets[1:])
    flat = np.repeat(offsets[:-1][ids] - out_offsets[:-1], lengths) \
        + np.arange(out_offsets[-1])
    return Partition.from_csr(
        partition.row_indices[flat], out_offsets, partition.num_rows
    )


#: The ``(removed, added)`` classes an append replaced in one context, each
#: side a sub-partition of the old / new partition.
ClassPatch = Tuple[Partition, Partition]


def _appended_classes(
    old: Partition, new: Partition, old_num_rows: int
) -> ClassPatch:
    """The classes an append replaced: ``(removed, added)``.

    ``new`` is ``old``'s context over the relation with rows appended past
    ``old_num_rows``.  Appending never splits a class, so every class of
    ``old`` lies inside one class of ``new``: a class of ``new`` changed
    iff it holds an appended row (rows ascend, so its last row decides),
    and a class of ``old`` changed iff its first row lies in such a class.
    Each side keeps its partition's selected classes in order, so it is a
    canonical partition the batch kernels read directly.
    """
    import numpy as np

    o_rows, o_offsets = old.row_indices, old.class_offsets
    n_rows, n_offsets = new.row_indices, new.class_offsets
    added = _select_classes(
        new, np.nonzero(n_rows[n_offsets[1:] - 1] >= old_num_rows)[0]
    )
    grown = added.row_indices
    member = np.zeros(old_num_rows, dtype=bool)
    member[grown[grown < old_num_rows]] = True
    removed_ids = np.nonzero(member[o_rows[o_offsets[:-1]]])[0]
    return _select_classes(old, removed_ids), added


class PartitionCache:
    """Cache of partitions keyed by attribute-index sets.

    The level-wise lattice traversal requests the partition of many
    overlapping attribute sets; each partition is built once by refining a
    cached partition of a subset with one more single-attribute partition,
    as in the TANE / FASTOD implementations.

    Construction and refinement go through the compute backend (defaulting
    to the encoded relation's); both of its configurations produce
    identical :class:`Partition` objects (``int64`` CSR arrays), so cache
    contents do not depend on the configuration.

    ``max_entries`` bounds the number of retained partitions with LRU
    eviction (``None`` — the default — retains everything): long-lived
    sessions over wide schemas use it to cap the cache's O(rows)-per-context
    memory.  Evicted partitions are rebuilt on demand, so results never
    change; an append (:meth:`apply_delta`) rebuilds exactly the entries
    still cached.
    """

    def __init__(
        self, encoded_relation, backend=None, max_entries: Optional[int] = None
    ) -> None:
        from repro.backend import resolve_backend

        self._encoded = encoded_relation
        self._backend = resolve_backend(
            backend if backend is not None
            else getattr(encoded_relation, "backend", None)
        )
        self._cache: BoundedLRU = BoundedLRU(max_entries)
        self._hits = 0
        self._misses = 0

    @property
    def backend(self):
        """The compute backend used to build partitions."""
        return self._backend

    @property
    def num_rows(self) -> int:
        return self._encoded.num_rows

    @property
    def stats(self) -> Dict[str, int]:
        """Cache statistics (``hits``, ``misses``, ``entries``, ``evictions``)."""
        return {
            "hits": self._hits,
            "misses": self._misses,
            "entries": len(self._cache),
            "evictions": self._cache.evictions,
        }

    def cached_keys(self) -> Iterator[FrozenSet[int]]:
        """Iterate over the attribute-index sets currently cached."""
        return iter(list(self._cache))

    def get(self, attribute_indices: Iterable[int]) -> Partition:
        """Return ``Pi_X`` for the attribute-index set ``attribute_indices``."""
        key = frozenset(attribute_indices)
        cached = self._cache.get(key)
        if cached is not None:
            self._hits += 1
            return cached
        self._misses += 1
        partition = self._build(key)
        self._cache[key] = partition
        return partition

    def get_by_names(self, names: Iterable[str]) -> Partition:
        """Return ``Pi_X`` for attribute *names*."""
        indices = [self._encoded.schema.index_of(n) for n in names]
        return self.get(indices)

    def _build(self, key: FrozenSet[int]) -> Partition:
        if not key:
            return Partition.unit(self._encoded.num_rows)
        if len(key) == 1:
            (index,) = key
            return self._single(index, self._encoded.num_rows)
        # Prefer extending the largest cached proper subset; fall back to
        # refining attribute by attribute.
        best_subset: Optional[FrozenSet[int]] = None
        for cached_key in self._cache:
            if cached_key < key and (
                best_subset is None or len(cached_key) > len(best_subset)
            ):
                best_subset = cached_key
        if best_subset is None:
            ordered = sorted(key)
            partition = self.get(ordered[:1])
            remaining = ordered[1:]
        else:
            partition = self._cache[best_subset]
            remaining = sorted(key - best_subset)
        for index in remaining:
            partition = self._refine(partition, index)
        return partition

    def _single(self, index: int, num_rows: int) -> Partition:
        """The partition of attribute ``index`` alone, offering the
        backend the column's cached row order."""
        encoded = self._encoded
        return self._backend.partition_single(
            encoded.native_ranks_by_index(index), num_rows,
            lambda: encoded.row_order_by_index(index),
        )

    def _refine(self, partition: Partition, index: int) -> Partition:
        """``partition`` refined by attribute ``index``, offering the
        backend the column's cached row order."""
        encoded = self._encoded
        return self._backend.partition_refine(
            partition, encoded.native_ranks_by_index(index),
            lambda: encoded.row_order_by_index(index),
        )

    def evict_level(self, level: int) -> None:
        """Drop cached partitions of attribute sets smaller than ``level``.

        The level-wise traversal only ever needs partitions from the two
        most recent levels; evicting older entries bounds memory on wide
        schemas, matching the original implementations.
        """
        for key in [k for k in self._cache if 0 < len(k) < level]:
            del self._cache[key]

    # -- incremental maintenance -------------------------------------------------

    def apply_delta(
        self, encoded_relation, old_num_rows: int
    ) -> Dict[FrozenSet[int], ClassPatch]:
        """Rebind to an extended encoding and rebuild every cached partition.

        ``encoded_relation`` is the delta-encoded relation produced by
        :meth:`~repro.dataset.encoding.EncodedRelation.extend` (same schema,
        ``num_rows >= old_num_rows``).  Cached keys are rebuilt in place,
        smallest first, through :meth:`_build` — the code a cache miss runs
        — so each key refines the largest cached proper subset, which is
        already rebuilt because it is smaller.  No second copy of the cache
        is held.  Under ``max_entries`` a key a rebuild evicts is skipped,
        and a rebuild with no cached subset caches a single-attribute key
        afresh, which nothing compares with its old classes.

        Returns ``{key: (removed, added)}`` for the rebuilt keys whose
        *stripped classes* changed: the classes the delta replaced and
        those that replaced them, each side a :class:`Partition` of just
        those classes.  Every kernel is class-additive, so
        memoised counts for those contexts can be *adjusted* by re-running
        kernels on just these classes (see :mod:`repro.incremental.repair`).
        Rebuilt keys absent from the mapping kept identical class lists, so
        memoised removal counts for them remain exact; the re-encoded rank
        columns only ever differ from the old ones by an order-preserving
        bijection, which no kernel can observe.  The call records an
        ``apply-delta`` span with the number of rebuilt ``keys`` and of
        ``patched`` ones (those in the mapping).
        """
        new_num_rows = encoded_relation.num_rows
        if new_num_rows < old_num_rows:
            raise ValueError(
                f"apply_delta only supports appends: {old_num_rows} rows "
                f"cannot shrink to {new_num_rows}"
            )
        self._encoded = encoded_relation
        patches: Dict[FrozenSet[int], ClassPatch] = {}
        if new_num_rows == old_num_rows:
            return patches
        rebuilt = 0
        with get_tracer().span("apply-delta") as span:
            for key in sorted(self._cache, key=len):
                old = self._cache.get(key)
                if old is None:
                    continue  # evicted by an earlier rebuild under the bound
                new = self._build(key)
                self._cache[key] = new
                rebuilt += 1
                removed, added = _appended_classes(old, new, old_num_rows)
                if removed or added:
                    patches[key] = (removed, added)
            if span is not None:
                span.attrs.update(keys=rebuilt, patched=len(patches))
        return patches
