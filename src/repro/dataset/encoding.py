"""Order-preserving dictionary encoding of relations.

All validation and discovery algorithms operate on integer *ranks* rather
than raw values: each column is mapped to dense integers ``0..k-1`` such that
``rank(u) < rank(v)`` iff ``u`` sorts before ``v`` in the column's domain
order.  ``None`` (missing) values receive the smallest rank (``NULLS
FIRST``).  The encoding is computed once per relation and cached, mirroring
how the original Java implementation pre-sorts and dictionary-encodes its
input.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from repro.dataset.schema import AttributeType, Schema
from repro.obs import get_tracer

#: Per-column outcome of :meth:`EncodedRelation.extend`: ``"appended"`` when
#: every delta value reused an existing code or extended the dictionary past
#: its current maximum (existing codes untouched), ``"remapped"`` when a
#: delta value sorts into the middle of the dictionary and the existing
#: codes were mapped to new ones (codes change, but only by an
#: order-preserving bijection, so partitions and validation outcomes are
#: unaffected).
EXTEND_APPENDED = "appended"
EXTEND_REMAPPED = "remapped"


def _sort_key(value: object, attr_type: AttributeType):
    """Return a sortable key for ``value`` under ``attr_type``.

    ``None`` is handled by the caller; this function only deals with present
    values.  Values that do not match the declared type are coerced where it
    is unambiguous (e.g. numeric strings for numeric columns) and otherwise
    compared via their string representation, so that dirty real-world CSV
    data never crashes the encoder.
    """
    if attr_type in (AttributeType.INTEGER, AttributeType.FLOAT):
        if isinstance(value, bool):
            return (0, float(value))
        if isinstance(value, (int, float)):
            return (0, float(value))
        try:
            return (0, float(str(value)))
        except ValueError:
            return (1, str(value))
    if attr_type is AttributeType.BOOLEAN:
        if isinstance(value, bool):
            return (0, float(value))
        return (1, str(value))
    return (1, str(value))


def _keys_ordered(values: Sequence[object], attr_type: AttributeType) -> bool:
    """Whether the sort keys of the present ``values`` order consistently:
    none is NaN, which compares neither below, above nor equal to any
    key.  Only a numeric column's ``(0, float)`` keys can be NaN."""
    if attr_type not in (AttributeType.INTEGER, AttributeType.FLOAT):
        return True
    for value in values:
        key = _sort_key(value, attr_type)
        if key[1] != key[1]:
            return False
    return True


def _insertion_point(
    dictionary: Sequence[object], key, lo: int, attr_type: AttributeType
) -> int:
    """``bisect_right`` of ``key`` among the sort keys of ``dictionary[lo:]``
    (sorted by key): the index before which a value keyed ``key`` goes,
    after every entry whose key ties with it."""
    hi = len(dictionary)
    while lo < hi:
        mid = (lo + hi) // 2
        if key < _sort_key(dictionary[mid], attr_type):
            hi = mid
        else:
            lo = mid + 1
    return lo


def encode_column(
    values: Sequence[object], attr_type: AttributeType = AttributeType.STRING
) -> Tuple[List[int], List[object]]:
    """Dictionary-encode one column into dense, order-preserving ranks.

    Returns ``(ranks, dictionary)`` where ``ranks[i]`` is the rank of
    ``values[i]`` and ``dictionary[rank]`` is a representative raw value for
    that rank (useful for decoding / reporting).  Equal values always map to
    equal ranks; ``None`` maps to rank 0 when present.
    """
    distinct: Dict[object, object] = {}
    has_null = False
    for value in values:
        if value is None:
            has_null = True
        elif value not in distinct:
            distinct[value] = _sort_key(value, attr_type)
    ordered = sorted(distinct, key=distinct.__getitem__)
    dictionary: List[object] = ([None] if has_null else []) + ordered
    rank_of = {value: i for i, value in enumerate(dictionary)}
    ranks = [rank_of[value] for value in values]
    return ranks, dictionary


class _ExtendedColumn(NamedTuple):
    """One column of :meth:`EncodedRelation.extend`'s result: the rank
    list (``None``: derived on first access), dictionary, ``int32`` codes,
    mode, whether its keys order consistently (``None``: not known; see
    :func:`_keys_ordered`) and its row order (``None``: built on first
    use)."""

    ranks: Optional[List[int]]
    dictionary: List[object]
    native: object
    mode: str
    ordered: Optional[bool]
    order: object = None


def _appendable(
    dictionary: Sequence[object], new_distinct: Sequence[object],
    attr_type: AttributeType,
) -> bool:
    """Whether the new distinct values all sort at or after the
    dictionary's maximum, so every existing code stays valid."""
    if not new_distinct:
        return True
    if any(value is None for value in new_distinct) or not dictionary:
        return False
    last = dictionary[-1]
    if last is None:
        return True  # dictionary is [None]: anything appends
    max_key = _sort_key(last, attr_type)
    return all(
        _sort_key(value, attr_type) >= max_key for value in new_distinct
    )


def _append_codes(codes, delta, num_new: int):
    """The ``int32`` column of ``codes`` followed by the ``num_new`` codes
    ``delta`` yields."""
    import numpy as np

    return np.concatenate(
        (codes, np.fromiter(delta, dtype=np.int32, count=num_new))
    )


class EncodedRelation:
    """A relation encoded to per-column dense integer ranks.

    Each rank column is held as an ``int32`` NumPy array (its *native*
    form, which the kernels read) and as a plain list of ints; whichever
    the encoder did not produce is derived on first access.

    Attributes
    ----------
    schema:
        The originating relation's schema.
    num_rows:
        Number of tuples.
    backend:
        The :class:`~repro.backend.numpy_backend.NumpyBackend` that
        produced (and serves the native columns of) this encoding.
    """

    def __init__(
        self,
        schema: Schema,
        rank_columns: Sequence[Sequence[int]],
        dictionaries: Sequence[Sequence[object]],
        num_rows: int,
        backend=None,
        native_columns: Optional[Sequence[object]] = None,
    ) -> None:
        from repro.backend import resolve_backend

        self.schema = schema
        self.backend = resolve_backend(backend)
        # A column may be handed over as None when the backend supplied a
        # native form instead; the canonical list is materialised on first
        # `ranks()` access.
        self._ranks: List[Optional[List[int]]] = [
            None if col is None else list(col) for col in rank_columns
        ]
        self._dictionaries: List[List[object]] = [list(d) for d in dictionaries]
        self.num_rows = num_rows
        self._native: Dict[int, object] = {}
        # Row orders, built on first use: attribute index -> every row in
        # (rank, row) order, int32, 4 bytes a row.  `extend` carries them
        # into the encoding it returns.  See `row_order_by_index`.
        self._orders: Dict[int, object] = {}
        # Per column, for `extend`: whether the dictionary's keys order
        # consistently (see `_keys_ordered`), found on first use and handed
        # on to the extended encoding.
        self._keys_ordered: Dict[int, bool] = {}
        if native_columns is not None:
            for index, native in enumerate(native_columns):
                if native is not None:
                    self._native[index] = native
        for index, ranks in enumerate(self._ranks):
            if ranks is None and index not in self._native:
                raise ValueError(
                    f"rank column {index} is None but no native column was given"
                )

    @classmethod
    def from_relation(cls, relation, backend=None) -> "EncodedRelation":
        """Encode every column of ``relation`` with the given backend."""
        from repro.backend import resolve_backend

        backend = resolve_backend(backend)
        rank_columns = []
        dictionaries = []
        natives = []
        for attribute in relation.schema:
            ranks, dictionary, native = backend.encode_column(
                relation.column(attribute.name), attribute.type
            )
            rank_columns.append(ranks)
            dictionaries.append(dictionary)
            natives.append(native)
        return cls(
            relation.schema,
            rank_columns,
            dictionaries,
            relation.num_rows,
            backend=backend,
            native_columns=natives,
        )

    # -- delta encoding ---------------------------------------------------------

    def extend(
        self, columns: Mapping[str, Sequence[object]]
    ) -> Tuple["EncodedRelation", Dict[str, str]]:
        """Delta-encode appended rows into a new, larger encoding.

        ``columns`` maps every schema attribute to the list of appended cell
        values (all the same length).  Returns ``(extended, modes)`` where
        ``extended`` is a fresh :class:`EncodedRelation` over the
        concatenated rows and ``modes`` maps each attribute to
        :data:`EXTEND_APPENDED` or :data:`EXTEND_REMAPPED`.

        The fast path appends: a delta value that already has a code reuses
        it, and genuinely new values whose sort keys are >= the current
        dictionary maximum are appended to the dictionary with fresh codes,
        so every existing code stays valid; the column is the old ``int32``
        codes concatenated with the delta's.  A new value that sorts into
        the middle of the dictionary forces a remap of that one column: each
        new value is inserted at the ``bisect_right`` of its sort key, after
        every entry it ties with (the reference's stable sort puts a later
        first occurrence there too), and the old codes go through the
        resulting order-preserving old -> new code map.  A column with a
        NaN sort key has no consistent order to insert into; it is
        re-encoded in full from values reconstructed through the dictionary,
        which stores each distinct value's first occurrence.  Either way the
        result is byte-identical, rank for rank, to encoding the
        concatenated relation from scratch.  No rank list is built: the
        extended encoding derives one on first :meth:`ranks` access.

        ``self`` is left untouched; callers swap in the returned encoding.
        The call records an ``encode-delta`` span.
        """
        missing = [a.name for a in self.schema if a.name not in columns]
        extra = sorted(set(columns) - set(self.schema.names))
        if missing or extra:
            raise ValueError(
                f"delta columns do not match schema "
                f"(missing={missing}, unexpected={extra})"
            )
        lengths = {len(columns[name]) for name in self.schema.names}
        if len(lengths) > 1:
            raise ValueError(
                f"delta columns have inconsistent lengths: {sorted(lengths)}"
            )
        num_new = lengths.pop() if lengths else 0
        rank_columns: List[Optional[List[int]]] = []
        dictionaries: List[List[object]] = []
        natives: List[object] = []
        modes: Dict[str, str] = {}
        ordered: Dict[int, bool] = {}
        orders: Dict[int, object] = {}
        with get_tracer().span(
            "encode-delta", rows=num_new, columns=len(self.schema)
        ):
            for index, attribute in enumerate(self.schema):
                column = self._extend_column(
                    index, columns[attribute.name], attribute.type
                )
                rank_columns.append(column.ranks)
                dictionaries.append(column.dictionary)
                natives.append(column.native)
                modes[attribute.name] = column.mode
                if column.ordered is not None:
                    ordered[index] = column.ordered
                if column.order is not None:
                    orders[index] = column.order
        extended = EncodedRelation(
            self.schema,
            rank_columns,
            dictionaries,
            self.num_rows + num_new,
            backend=self.backend,
            native_columns=natives,
        )
        extended._keys_ordered = ordered
        extended._orders = orders
        return extended, modes

    def _extend_column(
        self, index: int, new_values: Sequence[object], attr_type: AttributeType
    ) -> "_ExtendedColumn":
        """Delta-encode one column; see :meth:`extend` for the contract."""
        import numpy as np

        dictionary = self._dictionaries[index]
        # Dict membership gives the same dedup semantics as the reference
        # encoder's `distinct` dict (1 and True are one value).
        codes = dict(zip(dictionary, range(len(dictionary))))
        old = self.native_ranks_by_index(index)
        new_distinct = list(dict.fromkeys(
            value for value in new_values if value not in codes
        ))
        present = [value for value in new_distinct if value is not None]
        ordered = self._keys_ordered.get(index)
        if ordered and present:
            ordered = _keys_ordered(present, attr_type)
        if _appendable(dictionary, new_distinct, attr_type):
            if new_distinct:
                tail = sorted(
                    new_distinct, key=lambda v: _sort_key(v, attr_type)
                )
                codes.update(zip(tail, range(len(codes), len(codes)
                                             + len(tail))))
                dictionary = dictionary + tail
            delta = map(codes.__getitem__, new_values)
            native = _append_codes(old, delta, len(new_values))
            return _ExtendedColumn(
                None, dictionary, native, EXTEND_APPENDED, ordered,
                self._carried_order(index, native),
            )
        if ordered is None:
            ordered = (self._dictionary_ordered(index, attr_type)
                       and _keys_ordered(present, attr_type))
        if not ordered:
            reconstructed = [dictionary[code] for code in old.tolist()]
            ranks, dictionary, native = self.backend.encode_column(
                reconstructed + list(new_values), attr_type
            )
            return _ExtendedColumn(
                ranks, dictionary, native, EXTEND_REMAPPED, ordered
            )
        # Remap: insert each new value after the entries its key ties with
        # (None, if new, goes first), then map the old codes through the
        # order-preserving old -> new code map.
        lo = 1 if dictionary and dictionary[0] is None else 0
        inserts = [(0, None)] if len(present) < len(new_distinct) else []
        keys = {value: _sort_key(value, attr_type) for value in present}
        position = lo
        for value in sorted(present, key=keys.__getitem__):
            # Keys ascend, so each insertion point is at or after the last.
            position = _insertion_point(
                dictionary, keys[value], position, attr_type
            )
            inserts.append((position, value))
        merged: List[object] = []
        start = 0
        for position, value in inserts:
            merged += dictionary[start:position]
            merged.append(value)
            start = position
        merged += dictionary[start:]
        # Old code c moves up by the number of values inserted before it.
        positions = [position for position, _ in inserts]
        old_codes = np.arange(len(dictionary))
        code_map = (
            old_codes + np.searchsorted(positions, old_codes, side="right")
        ).astype(np.int32)
        inserted = {
            value: position + shift
            for shift, (position, value) in enumerate(inserts)
        }
        delta = (
            inserted[value] if value in inserted
            else codes[value] + bisect_right(positions, codes[value])
            for value in new_values
        )
        native = _append_codes(code_map[old], delta, len(new_values))
        return _ExtendedColumn(
            None, merged, native, EXTEND_REMAPPED, ordered,
            self._carried_order(index, native),
        )

    def _carried_order(self, index: int, native):
        """The row order of ``native``, the extended codes of the column at
        ``index``, carried over from this encoding's cached one (``None``
        when there is none).

        The extended codes map the old ones order-preservingly, so the old
        rows keep their order; each appended row goes after every old row
        whose rank is at most its own, appended rows in ``(rank, row)``
        order among themselves.
        """
        import numpy as np

        order = self._orders.get(index)
        if order is None or native.size == self.num_rows:
            return order
        old = self.num_rows
        delta = native[old:]
        appended = np.argsort(delta, kind="stable")
        at_most = np.cumsum(
            np.bincount(native[:old], minlength=int(delta.max()) + 1)
        )
        return np.insert(
            order, at_most[delta[appended]], (appended + old).astype(np.int32)
        )

    def _dictionary_ordered(self, index: int, attr_type: AttributeType) -> bool:
        """Whether the keys of the column at ``index``'s dictionary order
        consistently (see :func:`_keys_ordered`; found once)."""
        ordered = self._keys_ordered.get(index)
        if ordered is None:
            dictionary = self._dictionaries[index]
            ordered = _keys_ordered(
                dictionary[1:] if dictionary and dictionary[0] is None
                else dictionary,
                attr_type,
            )
            self._keys_ordered[index] = ordered
        return ordered

    # -- accessors -------------------------------------------------------------

    def ranks(self, attribute: str) -> List[int]:
        """Return the rank column for ``attribute``."""
        return self.ranks_by_index(self.schema.index_of(attribute))

    def ranks_by_index(self, index: int) -> List[int]:
        """Return the rank column for the attribute at schema position ``index``."""
        ranks = self._ranks[index]
        if ranks is None:
            native = self._native[index]
            ranks = native.tolist()
            self._ranks[index] = ranks
        return ranks

    def native_ranks(self, attribute: str):
        """Return the backend-native rank column for ``attribute``."""
        return self.native_ranks_by_index(self.schema.index_of(attribute))

    def native_ranks_by_index(self, index: int):
        """Return the backend-native rank column at schema position ``index``."""
        native = self._native.get(index)
        if native is None:
            native = self.backend.to_native(self._ranks[index])
            self._native[index] = native
        return native

    def kernel_ranks(self, attribute: str):
        """The rank column for ``attribute`` in the form the backend's
        count kernels read: the native array for the native library, the
        cached list for the reference loops, which would otherwise convert
        the array on every batch."""
        if self.backend.oc_kernel_name == "native":
            return self.native_ranks(attribute)
        return self.ranks(attribute)

    def row_order_by_index(self, index: int):
        """Every row in ``(rank, row)`` order of the column at ``index``.

        An ``int32`` NumPy permutation built by one stable radix argsort on
        first use and cached, 4 bytes a row.  The native refinement reads
        row orders (see ``NumpyBackend.partition_refine``), level-1 builds
        included, and so does the class patch of an append
        (:meth:`~repro.dataset.partition.PartitionCache.apply_delta`); the
        OC kernel sorts each class on demand instead.  :meth:`extend`
        carries a cached order into the encoding it returns by inserting
        the appended rows, except for a column it re-encodes in full.
        """
        import numpy as np

        from repro.backend.numpy_backend import stable_rank_order

        order = self._orders.get(index)
        if order is None:
            ranks = self.native_ranks_by_index(index)
            order = stable_rank_order(ranks).astype(np.int32)
            self._orders[index] = order
        return order

    def dictionary(self, attribute: str) -> List[object]:
        """Return the rank-to-value dictionary for ``attribute``."""
        return self._dictionaries[self.schema.index_of(attribute)]

    def decode(self, attribute: str, rank: int) -> object:
        """Return a representative raw value for ``rank`` of ``attribute``."""
        return self.dictionary(attribute)[rank]

    def cardinality(self, attribute: str) -> int:
        """Number of distinct values (including ``None``) in ``attribute``."""
        return len(self.dictionary(attribute))

    def __len__(self) -> int:
        return self.num_rows

    def row_ranks(self, index: int, attributes: Sequence[str]) -> Tuple[int, ...]:
        """Return the rank vector of row ``index`` over ``attributes``."""
        return tuple(self.ranks(a)[index] for a in attributes)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"EncodedRelation({self.num_rows} rows, "
            f"{len(self.schema)} attributes)"
        )
