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

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.dataset.schema import AttributeType, Schema

#: Per-column outcome of :meth:`EncodedRelation.extend`: ``"appended"`` when
#: every delta value reused an existing code or extended the dictionary past
#: its current maximum (existing codes untouched), ``"remapped"`` when a
#: delta value sorts into the middle of the dictionary and the whole column
#: was re-encoded (codes change, but only by an order-preserving bijection,
#: so partitions and validation outcomes are unaffected).
EXTEND_APPENDED = "appended"
EXTEND_REMAPPED = "remapped"

#: Columns shorter than this never benefit from run-length encoding: the
#: run bookkeeping outweighs the dense payload.
RLE_MIN_ROWS = 256
#: A column is run-encoded only when it has at most
#: ``num_rows / RLE_MIN_SHRINK`` runs, i.e. the encoding is at least this
#: many times smaller than the dense form.
RLE_MIN_SHRINK = 4


class RunLengthColumn:
    """A rank column stored as value runs.

    ``starts[i]`` is the first row of run ``i`` (``starts[0] == 0``,
    strictly increasing) and ``values[i]`` its rank; the decoded column has
    ``length`` rows, which is also ``__len__``.  It shrinks low-cardinality
    clustered columns; kernels never see this type (:meth:`decode` gives
    the dense form).
    """

    __slots__ = ("starts", "values", "length")

    def __init__(self, starts, values, length: int) -> None:
        self.starts = starts
        self.values = values
        self.length = length

    def __len__(self) -> int:
        return self.length

    @property
    def num_runs(self) -> int:
        return len(self.values)

    def value_at(self, row: int) -> int:
        """Rank at ``row`` via binary search over the run starts."""
        from bisect import bisect_right

        if not 0 <= row < self.length:
            raise IndexError(row)
        return self.values[bisect_right(self.starts, row) - 1]

    def decode(self):
        """Materialise the dense rank column (same type the encoder ships:
        ndarray when the run values are an ndarray, list otherwise)."""
        if hasattr(self.values, "tolist"):
            import numpy as np

            run_lengths = np.diff(
                np.concatenate((self.starts, [self.length]))
            )
            return np.repeat(self.values, run_lengths)
        dense = []
        starts = list(self.starts) + [self.length]
        for i, value in enumerate(self.values):
            dense.extend([value] * (starts[i + 1] - starts[i]))
        return dense

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"RunLengthColumn({self.num_runs} runs over {self.length} rows)"


def run_length_encode(column) -> Optional[RunLengthColumn]:
    """Run-encode a rank column if that genuinely shrinks it.

    Returns ``None`` when the column is too short or has too many runs to
    be worth encoding (see :data:`RLE_MIN_ROWS` /
    :data:`RLE_MIN_SHRINK`); callers then keep the dense form.
    """
    num_rows = len(column)
    if num_rows < RLE_MIN_ROWS:
        return None
    max_runs = num_rows // RLE_MIN_SHRINK
    if hasattr(column, "tolist") and not isinstance(column, (list, tuple)):
        import numpy as np

        boundaries = np.nonzero(np.diff(column) != 0)[0] + 1
        if boundaries.size + 1 > max_runs:
            return None
        starts = np.concatenate(([0], boundaries)).astype(np.int64)
        return RunLengthColumn(starts, column[starts], num_rows)
    starts = [0]
    values = [column[0]]
    for row in range(1, num_rows):
        value = column[row]
        if value != values[-1]:
            if len(values) >= max_runs:
                return None
            starts.append(row)
            values.append(value)
    return RunLengthColumn(starts, values, num_rows)


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


class EncodedRelation:
    """A relation encoded to per-column dense integer ranks.

    The canonical representation of a rank column is a plain list of ints,
    identical across compute backends; the encoding backend additionally
    caches its *native* columnar form (e.g. ``int32`` NumPy arrays) for the
    vectorised kernels.

    Attributes
    ----------
    schema:
        The originating relation's schema.
    num_rows:
        Number of tuples.
    backend:
        The :class:`~repro.backend.base.ComputeBackend` that produced (and
        serves the native columns of) this encoding.
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
        # Row orders for the native partition refinement, built on first
        # use: attribute index -> every row in (rank, row) order, int32, 4
        # bytes a row.  Keyed per EncodedRelation, so `extend` — which
        # returns a fresh instance — drops them.  See `row_order_by_index`.
        self._orders: Dict[int, object] = {}
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
        so every existing code stays valid.  A new value that sorts into the
        middle of the dictionary forces a remap of that one column — a full
        re-encode of the concatenated values.  Either way the result is
        byte-identical, rank for rank, to encoding the concatenated relation
        from scratch (the remap reconstructs raw values from the dictionary,
        which stores each distinct value's first occurrence).

        ``self`` is left untouched; callers swap in the returned encoding.
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
        for index, attribute in enumerate(self.schema):
            ranks, dictionary, native, mode = self._extend_column(
                index, columns[attribute.name], attribute.type
            )
            rank_columns.append(ranks)
            dictionaries.append(dictionary)
            natives.append(native)
            modes[attribute.name] = mode
        extended = EncodedRelation(
            self.schema,
            rank_columns,
            dictionaries,
            self.num_rows + num_new,
            backend=self.backend,
            native_columns=natives,
        )
        return extended, modes

    def _extend_column(
        self, index: int, new_values: Sequence[object], attr_type: AttributeType
    ):
        """Delta-encode one column; see :meth:`extend` for the contract."""
        old_ranks = self.ranks_by_index(index)
        dictionary = self._dictionaries[index]
        rank_of = {value: code for code, value in enumerate(dictionary)}
        # Dict membership gives the same dedup semantics as the reference
        # encoder's `distinct` dict (1 and True are one value).
        seen_new: Dict[object, None] = {}
        new_distinct: List[object] = []
        for value in new_values:
            if value not in rank_of and value not in seen_new:
                seen_new[value] = None
                new_distinct.append(value)
        appendable = not new_distinct
        if new_distinct:
            if any(value is None for value in new_distinct) or not dictionary:
                appendable = False
            else:
                last = dictionary[-1]
                if last is None:
                    appendable = True  # dictionary is [None]: anything appends
                else:
                    max_key = _sort_key(last, attr_type)
                    appendable = all(
                        _sort_key(value, attr_type) >= max_key
                        for value in new_distinct
                    )
        if appendable:
            if new_distinct:
                ordered = sorted(
                    new_distinct, key=lambda v: _sort_key(v, attr_type)
                )
                dictionary = dictionary + ordered
                for value in ordered:
                    rank_of.setdefault(value, len(rank_of))
            ranks = old_ranks + [rank_of[value] for value in new_values]
            return ranks, dictionary, None, EXTEND_APPENDED
        # Remap: re-encode the whole column.  The dictionary stores each
        # distinct value's first occurrence, so reconstructing old values
        # through it reproduces the exact sequence a cold encoder would see.
        reconstructed = [dictionary[code] for code in old_ranks]
        ranks, new_dictionary, native = self.backend.encode_column(
            reconstructed + list(new_values), attr_type
        )
        return ranks, new_dictionary, native, EXTEND_REMAPPED

    # -- accessors -------------------------------------------------------------

    def ranks(self, attribute: str) -> List[int]:
        """Return the rank column for ``attribute``."""
        return self.ranks_by_index(self.schema.index_of(attribute))

    def ranks_by_index(self, index: int) -> List[int]:
        """Return the rank column for the attribute at schema position ``index``."""
        ranks = self._ranks[index]
        if ranks is None:
            native = self._native[index]
            ranks = native.tolist() if hasattr(native, "tolist") else list(native)
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

    def row_order_by_index(self, index: int):
        """Every row in ``(rank, row)`` order of the column at ``index``.

        An ``int32`` NumPy permutation built by one stable radix argsort on
        first use and cached, 4 bytes a row.  Only the NumPy backend's
        native refinement reads row orders (see
        ``NumpyBackend.partition_refine``), level-1 builds included, so the
        argsort runs once per attribute; the OC kernel sorts each class on
        demand instead.  They are per instance, so the encoding
        :meth:`extend` returns builds its own.
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
