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
    NamedTuple,
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


class ClassPatch(NamedTuple):
    """The classes an append replaced in one context.

    ``removed`` holds the context's old classes that gained rows, ``added``
    the classes that replaced them plus those that appeared (an old
    singleton gaining a partner, or appended rows alone), each side a
    :class:`ClassCSR` of just those classes, rows ascending within a class.
    A patch of as many rows as the grown relation (the unit context's
    always is) is *oversized*: only its sizes are known and both sides are
    ``None``.
    """

    removed: Optional[ClassCSR]
    added: Optional[ClassCSR]
    #: Rows in the removed classes.
    removed_rows: int
    #: Rows in the added classes.
    added_rows: int

    @property
    def oversized(self) -> bool:
        return self.removed is None


def _spans(starts, lengths):
    """The indices of the spans ``starts[i] .. starts[i] + lengths[i] - 1``,
    concatenated."""
    import numpy as np

    ends = np.cumsum(lengths)
    return np.repeat(starts - (ends - lengths), lengths) \
        + np.arange(ends[-1] if ends.size else 0)


class _Touched(NamedTuple):
    """One level of :func:`_delta_patches`: per chain of attributes, its
    touched groups of two rows or more.

    Groups lie contiguously in ``rows``, each chain's after the previous
    chain's, rows ascending within a group; chain ``j`` owns groups
    ``bounds[j]`` to ``bounds[j + 1] - 1``, of ``sizes`` rows each, of
    which ``old_sizes`` are old rows."""

    chains: List[Tuple[int, ...]]
    rows: object
    sizes: object
    old_sizes: object
    bounds: object


def _delta_patches(
    encoded, old: int, keys: Iterable[FrozenSet[int]], backend
) -> Dict[FrozenSet[int], ClassPatch]:
    """The class patch of each of ``keys`` whose stripped classes the
    append of rows ``old ..`` of ``encoded`` changed.

    The append changed exactly a context's groups of rows that share their
    values with an appended row: its *touched* groups.  For one attribute
    they are the appended values' ranges in its ``(rank, row)`` order.  A
    context is reached as a chain of its attributes, narrowest (fewest
    touched rows) first, whose touched groups are its prefix's split by the
    last attribute's ranks, keeping the groups that hold an appended row.
    Chains of one length are split together, so an append costs a few
    calls per lattice level and the touched rows, not the relation.
    """
    import numpy as np

    num_rows = encoded.num_rows
    patches: Dict[FrozenSet[int], ClassPatch] = {}
    keys = set(keys)
    if frozenset() in keys and num_rows >= 2:
        # One class of every row: it always grows, and is oversized.
        patches[frozenset()] = ClassPatch(
            None, None, old if old >= 2 else 0, num_rows
        )
    keys.discard(frozenset())
    if not keys:
        return patches
    columns = {index: encoded.native_ranks_by_index(index)
               for index in frozenset().union(*keys)}
    # Per attribute, the ranges of the appended values of two rows or more
    # in its row order: starts, lengths and old rows in each.
    ranges = {}
    num_ranks = 0
    for index, ranks in columns.items():
        counts = np.bincount(ranks)
        num_ranks = max(num_ranks, counts.size)
        values, appended = np.unique(ranks[old:], return_counts=True)
        grouped = counts[values] >= 2
        values = values[grouped]
        ranges[index] = ((np.cumsum(counts) - counts)[values], counts[values],
                         counts[values] - appended[grouped])
    width = {index: int(lengths.sum())
             for index, (_, lengths, _) in ranges.items()}
    targets = {
        tuple(sorted(key, key=lambda i: (width[i], i))): key for key in keys
    }
    needed: List[set] = [set() for _ in range(max(map(len, targets)) + 1)]
    for chain in targets:
        for length in range(1, len(chain) + 1):
            needed[length].add(chain[:length])
    chains = sorted(needed[1])
    firsts = [ranges[index] for (index,) in chains]
    level = _Touched(
        chains,
        np.concatenate([
            encoded.row_order_by_index(index)[_spans(starts, lengths)]
            for (index,), (starts, lengths, _) in zip(chains, firsts)
        ]),
        np.concatenate([lengths for _, lengths, _ in firsts]),
        np.concatenate([old_lengths for _, _, old_lengths in firsts]),
        np.cumsum([0] + [lengths.size for _, lengths, _ in firsts]),
    )
    # Rank-indexed scratch of the splits, -1 between calls.
    slot = np.full(num_ranks, -1, dtype=np.int32)
    for length in range(1, len(needed)):
        if not level.rows.size:
            break  # no group of two rows holds an appended row
        if length > 1:
            level = _split(level, sorted(
                needed[length], key=lambda chain: (chain[-1], chain)
            ), columns, old, backend, slot)
        _settle(level, targets, patches, old, num_rows)
    return patches


def _split(level: _Touched, chains, columns, old: int, backend,
           slot) -> _Touched:
    """The touched groups of ``chains`` (sorted by last attribute), each
    its prefix's in ``level`` split by the last attribute's ranks, in one
    :meth:`~repro.backend.numpy_backend.NumpyBackend.split_groups` call
    per last attribute."""
    import numpy as np

    index_of = {chain: j for j, chain in enumerate(level.chains)}
    parents = np.array([index_of[chain[:-1]] for chain in chains],
                       dtype=np.int64)
    ranges = np.stack((level.bounds[parents], level.bounds[parents + 1]), 1)
    offsets = np.concatenate(([0], np.cumsum(level.sizes)))
    rows, groups = [], []
    start = 0
    for j in range(1, len(chains) + 1):
        if j < len(chains) and chains[j][-1] == chains[start][-1]:
            continue
        part_rows, part_groups = backend.split_groups(
            level.rows, offsets, ranges[start:j], columns[chains[start][-1]],
            old, slot,
        )
        part_groups[:, 2] += start
        rows.append(part_rows)
        groups.append(part_groups)
        start = j
    groups = np.concatenate(groups)
    return _Touched(
        chains, np.concatenate(rows), groups[:, 0], groups[:, 1],
        np.concatenate(([0], np.cumsum(np.bincount(
            groups[:, 2], minlength=len(chains)
        )))),
    )


def _settle(level: _Touched, targets, patches, old: int, num_rows: int) -> None:
    """Record the patches of the target chains of ``level``: a touched
    group is an added class, its old rows, when two or more, a removed
    one."""
    import numpy as np

    rows, sizes, bounds = level.rows, level.sizes, level.bounds
    shrunk = np.where(level.old_sizes >= 2, level.old_sizes, 0)
    ends = np.concatenate(([0], np.cumsum(sizes)))
    removed_ends = np.concatenate(([0], np.cumsum(shrunk)))
    added_rows = np.diff(ends[bounds]).tolist()
    removed_rows = np.diff(removed_ends[bounds]).tolist()
    kept = []
    for j, chain in enumerate(level.chains):
        key = targets.get(chain)
        if key is None:
            continue
        if removed_rows[j] + added_rows[j] >= num_rows:
            patches[key] = ClassPatch(
                None, None, removed_rows[j], added_rows[j]
            )
        elif added_rows[j]:
            kept.append(j)
    if not kept:
        return
    wanted = np.zeros(len(level.chains), dtype=bool)
    wanted[kept] = True
    # The old rows lead each group.
    picked = np.flatnonzero(
        shrunk * np.repeat(wanted, np.diff(bounds))
    )
    removed = rows[_spans(ends[picked], shrunk[picked])].astype(np.int64)
    offsets = np.concatenate(([0], np.cumsum(shrunk[picked])))
    first = np.searchsorted(picked, bounds).tolist()
    bounds = bounds.tolist()
    for j in kept:
        lo, hi = first[j], first[j + 1]
        start, stop = ends[bounds[j]], ends[bounds[j + 1]]
        patches[targets[level.chains[j]]] = ClassPatch(
            ClassCSR(removed[offsets[lo]:offsets[hi]],
                     offsets[lo:hi + 1] - offsets[lo]),
            ClassCSR(rows[start:stop].astype(np.int64),
                     ends[bounds[j]:bounds[j + 1] + 1] - start),
            removed_rows[j], added_rows[j],
        )


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
    change.

    Beside the partitions the cache keeps one int per context it ever
    built: the context's grouped-row count (:meth:`grouped_rows`), which
    is all a coverage score reads.  Neither the bound nor an append drops
    it; an append (:meth:`apply_delta`) adjusts it and drops the
    partitions, which the next read rebuilds.
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
        #: key -> grouped-row count of every context ever built.
        self._grouped: Dict[FrozenSet[int], int] = {}
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

    def counted_keys(self) -> Iterator[FrozenSet[int]]:
        """Iterate over the attribute-index sets with a recorded
        grouped-row count: every context the cache ever built."""
        return iter(list(self._grouped))

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
        self._grouped[key] = partition.num_grouped_rows
        return partition

    def get_by_names(self, names: Iterable[str]) -> Partition:
        """Return ``Pi_X`` for attribute *names*."""
        indices = [self._encoded.schema.index_of(n) for n in names]
        return self.get(indices)

    def grouped_rows(self, attribute_indices: Iterable[int]) -> int:
        """``Pi_X``'s :attr:`~Partition.num_grouped_rows`, from the count
        recorded when the context was built; a context never built is
        built.  The unit context groups every row (none of fewer than
        two)."""
        key = frozenset(attribute_indices)
        if not key:
            return self.num_rows if self.num_rows > 1 else 0
        grouped = self._grouped.get(key)
        if grouped is None:
            grouped = self.get(key).num_grouped_rows
        return grouped

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
        self, encoded_relation, old_num_rows: int,
        keys: Iterable[FrozenSet[int]] = (),
    ) -> Dict[FrozenSet[int], ClassPatch]:
        """Rebind to an extended encoding and patch the counted contexts.

        ``encoded_relation`` is the delta-encoded relation produced by
        :meth:`~repro.dataset.encoding.EncodedRelation.extend` (same schema,
        ``num_rows >= old_num_rows``).  A class patch is computed from the
        appended rows (see :class:`ClassPatch`) for each of ``keys`` and
        each context with a recorded grouped-row count, whose count it
        adjusts.  Cached partitions are dropped, not rebuilt: a later
        :meth:`get` rebuilds the keys a kernel reads.

        Returns ``{key: patch}`` for the keys whose *stripped classes*
        changed.  Every kernel is class-additive, so memoised counts for
        those contexts can be *adjusted* by re-running kernels on just the
        patch classes (see :mod:`repro.incremental.repair`).  Keys absent
        from the mapping kept identical class lists, so memoised removal
        counts for them remain exact; the re-encoded rank columns only ever
        differ from the old ones by an order-preserving bijection, which no
        kernel can observe.  The call records an ``apply-delta`` span with
        the number of patched ``keys`` and of ``patched`` ones (those in
        the mapping).
        """
        new_num_rows = encoded_relation.num_rows
        if new_num_rows < old_num_rows:
            raise ValueError(
                f"apply_delta only supports appends: {old_num_rows} rows "
                f"cannot shrink to {new_num_rows}"
            )
        self._encoded = encoded_relation
        if new_num_rows == old_num_rows:
            return {}
        self._cache.clear()
        targets = set(self._grouped).union(keys)
        with get_tracer().span("apply-delta") as span:
            patches = _delta_patches(
                encoded_relation, old_num_rows, targets, self._backend
            )
            for key, patch in patches.items():
                if key in self._grouped:
                    self._grouped[key] += patch.added_rows - patch.removed_rows
            if span is not None:
                span.attrs.update(keys=len(targets), patched=len(patches))
        return patches
