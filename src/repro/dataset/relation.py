"""Columnar relation (table) instances.

A :class:`Relation` stores a table column-wise.  Raw cell values stay as the
Python objects they were constructed with (``int``, ``float``, ``str``,
``bool`` or ``None``); the order-dependency machinery never compares raw
values directly but works on the order-preserving integer encoding produced
by :meth:`Relation.encoded`.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.dataset.schema import Attribute, AttributeType, Schema
from repro.obs import get_tracer


class Relation:
    """An immutable, column-oriented table instance.

    Parameters
    ----------
    schema:
        The relation's schema.  Column order follows the schema.
    columns:
        A mapping from attribute name to the list of cell values of that
        column.  Every column must have the same length.
    """

    def __init__(self, schema: Schema, columns: Mapping[str, Sequence[object]]):
        if set(columns) != set(schema.names):
            missing = set(schema.names) - set(columns)
            extra = set(columns) - set(schema.names)
            raise ValueError(
                f"columns do not match schema (missing={sorted(missing)}, "
                f"unexpected={sorted(extra)})"
            )
        lengths = {len(columns[name]) for name in schema.names}
        if len(lengths) > 1:
            raise ValueError(f"columns have inconsistent lengths: {sorted(lengths)}")
        self._schema = schema
        self._columns: Dict[str, List[object]] = {
            name: list(columns[name]) for name in schema.names
        }
        self._num_rows = lengths.pop() if lengths else 0
        self._encoded: Dict[str, object] = {}  # backend name -> EncodedRelation

    # -- construction ----------------------------------------------------------

    @classmethod
    def from_rows(
        cls,
        rows: Sequence[Sequence[object]],
        attribute_names: Sequence[str],
        types: Optional[Sequence[AttributeType]] = None,
    ) -> "Relation":
        """Build a relation from row tuples and attribute names.

        Types are inferred per column when ``types`` is not given.
        """
        columns: Dict[str, List[object]] = {name: [] for name in attribute_names}
        for row in rows:
            if len(row) != len(attribute_names):
                raise ValueError(
                    f"row has {len(row)} values, expected {len(attribute_names)}"
                )
            for name, value in zip(attribute_names, row):
                columns[name].append(value)
        if types is None:
            types = [AttributeType.infer(columns[name]) for name in attribute_names]
        schema = Schema(
            [Attribute(name, t) for name, t in zip(attribute_names, types)]
        )
        return cls(schema, columns)

    @classmethod
    def from_dicts(
        cls, records: Sequence[Mapping[str, object]], attribute_names: Optional[Sequence[str]] = None
    ) -> "Relation":
        """Build a relation from a sequence of ``{attribute: value}`` records.

        Missing keys become ``None``.  Attribute order defaults to the order
        of first appearance across the records.
        """
        if attribute_names is None:
            seen: List[str] = []
            for record in records:
                for key in record:
                    if key not in seen:
                        seen.append(key)
            attribute_names = seen
        rows = [[record.get(name) for name in attribute_names] for record in records]
        return cls.from_rows(rows, attribute_names)

    @classmethod
    def from_columns(
        cls,
        columns: Mapping[str, Sequence[object]],
        types: Optional[Mapping[str, AttributeType]] = None,
    ) -> "Relation":
        """Build a relation directly from named columns."""
        names = list(columns)
        if types is None:
            inferred = [AttributeType.infer(columns[n]) for n in names]
        else:
            inferred = [types.get(n, AttributeType.infer(columns[n])) for n in names]
        schema = Schema([Attribute(n, t) for n, t in zip(names, inferred)])
        return cls(schema, columns)

    # -- basic accessors -------------------------------------------------------

    @property
    def schema(self) -> Schema:
        """The relation's schema."""
        return self._schema

    @property
    def attribute_names(self) -> List[str]:
        """Attribute names in schema order."""
        return self._schema.names

    @property
    def num_rows(self) -> int:
        """Number of tuples in the relation."""
        return self._num_rows

    @property
    def num_attributes(self) -> int:
        """Number of attributes in the relation."""
        return len(self._schema)

    def __len__(self) -> int:
        return self._num_rows

    def column(self, name: str) -> List[object]:
        """Return the value list of column ``name`` (a defensive copy is *not*
        made; callers must not mutate the result)."""
        if name not in self._columns:
            raise KeyError(f"attribute {name!r} not in relation {self.attribute_names}")
        return self._columns[name]

    def row(self, index: int) -> Tuple[object, ...]:
        """Return the tuple at position ``index`` in schema order."""
        if not 0 <= index < self._num_rows:
            raise IndexError(f"row index {index} out of range [0, {self._num_rows})")
        return tuple(self._columns[name][index] for name in self._schema.names)

    def value(self, index: int, name: str) -> object:
        """Return the value of attribute ``name`` in row ``index``."""
        return self.column(name)[index]

    def iter_rows(self) -> Iterator[Tuple[object, ...]]:
        """Iterate over rows as tuples in schema order."""
        for i in range(self._num_rows):
            yield self.row(i)

    def to_dicts(self) -> List[Dict[str, object]]:
        """Materialise the relation as a list of ``{attribute: value}`` dicts."""
        names = self._schema.names
        return [
            {name: self._columns[name][i] for name in names}
            for i in range(self._num_rows)
        ]

    # -- derived relations -----------------------------------------------------

    def project(self, names: Sequence[str]) -> "Relation":
        """Return a relation restricted to the attributes in ``names``."""
        schema = self._schema.project(names)
        return Relation(schema, {n: self._columns[n] for n in names})

    def take(self, indices: Iterable[int]) -> "Relation":
        """Return a relation containing exactly the rows at ``indices``."""
        idx = list(indices)
        columns = {
            name: [self._columns[name][i] for i in idx] for name in self._schema.names
        }
        return Relation(self._schema, columns)

    def head(self, n: int) -> "Relation":
        """Return the first ``n`` rows."""
        return self.take(range(min(n, self._num_rows)))

    def drop_rows(self, indices: Iterable[int]) -> "Relation":
        """Return a relation with the rows at ``indices`` removed.

        This is the ``r \\ s`` operation used throughout the paper's
        removal-set semantics.
        """
        removed = set(indices)
        keep = [i for i in range(self._num_rows) if i not in removed]
        return self.take(keep)

    def sample(self, n: int, seed: int = 0) -> "Relation":
        """Return a uniform sample (without replacement) of ``n`` rows."""
        if n >= self._num_rows:
            return self
        rng = random.Random(seed)
        idx = sorted(rng.sample(range(self._num_rows), n))
        return self.take(idx)

    def concat(self, other: "Relation") -> "Relation":
        """Append ``other``'s rows; schemas must have identical names."""
        if other.attribute_names != self.attribute_names:
            raise ValueError("cannot concatenate relations with different schemas")
        columns = {
            name: self._columns[name] + list(other.column(name))
            for name in self._schema.names
        }
        return Relation(self._schema, columns)

    def with_column(self, name: str, values: Sequence[object],
                    type: Optional[AttributeType] = None) -> "Relation":
        """Return a relation extended with (or replacing) column ``name``."""
        if len(values) != self._num_rows:
            raise ValueError(
                f"new column has {len(values)} values, expected {self._num_rows}"
            )
        if type is None:
            type = AttributeType.infer(values)
        attrs = [a for a in self._schema.attributes if a.name != name]
        attrs.append(Attribute(name, type))
        columns = {a.name: self._columns.get(a.name, []) for a in attrs}
        columns[name] = list(values)
        return Relation(Schema(attrs), columns)

    # -- encoding --------------------------------------------------------------

    def encoded(self, backend=None):
        """Return (and cache) the order-preserving integer encoding.

        ``backend`` selects the compute backend (an instance, a name such as
        ``"numpy"``, or ``None`` for the environment default); encodings are
        cached per backend.  See
        :class:`repro.dataset.encoding.EncodedRelation`.  Building an
        encoding records an ``encode`` span.
        """
        from repro.backend import resolve_backend

        resolved = resolve_backend(backend)
        cached = self._encoded.get(resolved.name)
        if cached is None:
            from repro.dataset.encoding import EncodedRelation

            with get_tracer().span(
                "encode", rows=self._num_rows, columns=len(self._schema)
            ):
                cached = EncodedRelation.from_relation(self, resolved)
            self._encoded[resolved.name] = cached
        return cached

    def adopt_encoding(self, encoded) -> None:
        """Seed the per-backend encoding cache with a precomputed encoding.

        Used by the incremental-maintenance path: a relation produced by
        :meth:`concat` adopts the delta-extended
        :class:`~repro.dataset.encoding.EncodedRelation` so the appended
        table never pays a cold re-encode.  The encoding must describe this
        relation (same schema, same number of rows).
        """
        if encoded.num_rows != self._num_rows:
            raise ValueError(
                f"encoding has {encoded.num_rows} rows, "
                f"relation has {self._num_rows}"
            )
        if encoded.schema.names != self._schema.names:
            raise ValueError("encoding schema does not match the relation")
        self._encoded[encoded.backend.name] = encoded

    # -- dunder / presentation -------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        return (
            self.attribute_names == other.attribute_names
            and all(
                self._columns[n] == other._columns[n] for n in self.attribute_names
            )
        )

    def __repr__(self) -> str:
        return (
            f"Relation({self._num_rows} rows x {self.num_attributes} attributes: "
            f"{self.attribute_names})"
        )

    def to_pretty_string(self, max_rows: int = 20) -> str:
        """Render the relation as a fixed-width text table (for examples/CLI)."""
        names = self._schema.names
        shown = min(max_rows, self._num_rows)
        cells = [[str(self._columns[n][i]) for n in names] for i in range(shown)]
        widths = [
            max(len(names[j]), *(len(row[j]) for row in cells)) if cells else len(names[j])
            for j in range(len(names))
        ]
        header = " | ".join(n.ljust(w) for n, w in zip(names, widths))
        sep = "-+-".join("-" * w for w in widths)
        lines = [header, sep]
        for row in cells:
            lines.append(" | ".join(v.ljust(w) for v, w in zip(row, widths)))
        if shown < self._num_rows:
            lines.append(f"... ({self._num_rows - shown} more rows)")
        return "\n".join(lines)
