"""Delta descriptions for incremental maintenance.

A :class:`DeltaSummary` records what one append did to a session's warm
state: how the relation grew, how each column's encoding absorbed the new
values, which cached contexts' stripped classes changed (the only contexts
whose validation outcomes the append can have altered), and how the
validation memo was purged.  Summaries are plain data — they serialise for
the service boundary and accumulate in the session's delta log so a later
:meth:`~repro.discovery.session.Profiler.discover_incremental` can repair
exactly what every append since its baseline may have broken.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Mapping, Sequence, Tuple


@dataclass(frozen=True)
class DeltaSummary:
    """What one :meth:`Profiler.extend` call changed.

    ``affected_contexts`` / ``dropped_contexts`` hold attribute-*name* sets:
    contexts whose stripped equivalence classes changed, respectively whose
    cached partitions had to be dropped (effect unknown — treated as
    affected by every consumer).  A context absent from both sets kept
    identical classes, so memoised validation outcomes for it remain exact.
    """

    old_num_rows: int
    new_num_rows: int
    #: The session's dataset version after this append (bumped by every
    #: :meth:`Profiler.extend`).
    dataset_version: int = 0
    #: Attribute name -> ``"appended"`` / ``"remapped"`` (see
    #: :meth:`repro.dataset.encoding.EncodedRelation.extend`).
    column_modes: Dict[str, str] = field(default_factory=dict)
    affected_contexts: Tuple[FrozenSet[str], ...] = ()
    dropped_contexts: Tuple[FrozenSet[str], ...] = ()
    #: Cached partitions brought up to date by per-context merge.
    patched_partitions: int = 0
    #: Validation-memo entries purged because the delta may have changed them.
    invalidated_memo_entries: int = 0
    #: Validation-memo entries repaired in place by re-running kernels on
    #: only the classes the delta changed (see :mod:`repro.incremental.repair`).
    adjusted_memo_entries: int = 0
    #: Validation-memo entries kept untouched: contexts the delta did not
    #: affect, plus verdicts that are final under appends by monotonicity.
    retained_memo_entries: int = 0

    @property
    def num_appended(self) -> int:
        """Number of rows this delta appended."""
        return self.new_num_rows - self.old_num_rows

    def to_dict(self) -> Dict[str, object]:
        """Plain-dict form for the JSON service boundary."""
        return {
            "old_num_rows": self.old_num_rows,
            "new_num_rows": self.new_num_rows,
            "num_appended": self.num_appended,
            "dataset_version": self.dataset_version,
            "column_modes": dict(self.column_modes),
            "affected_contexts": sorted(
                sorted(context) for context in self.affected_contexts
            ),
            "dropped_contexts": sorted(
                sorted(context) for context in self.dropped_contexts
            ),
            "patched_partitions": self.patched_partitions,
            "invalidated_memo_entries": self.invalidated_memo_entries,
            "adjusted_memo_entries": self.adjusted_memo_entries,
            "retained_memo_entries": self.retained_memo_entries,
        }


def rows_to_columns(
    schema, rows: Sequence[object]
) -> Dict[str, List[object]]:
    """Turn appended rows into schema-ordered columns.

    Each row is either a sequence of cell values in schema order or a
    mapping from attribute name to value (missing keys become ``None``,
    unknown keys are rejected — appends are a typed boundary, so a
    misspelled attribute must not be silently dropped).
    """
    names = schema.names
    columns: Dict[str, List[object]] = {name: [] for name in names}
    known = set(names)
    for position, row in enumerate(rows):
        if isinstance(row, Mapping):
            unknown = sorted(set(row) - known)
            if unknown:
                raise ValueError(
                    f"row {position} has attributes not in the schema: "
                    f"{unknown} (known: {names})"
                )
            for name in names:
                columns[name].append(row.get(name))
        else:
            try:
                if isinstance(row, (str, bytes)):
                    raise TypeError  # a bare string would split into chars
                values = list(row)
            except TypeError:
                raise ValueError(
                    f"row {position} must be a sequence of cell values or "
                    f"a mapping, got {row!r}"
                )
            if len(values) != len(names):
                raise ValueError(
                    f"row {position} has {len(values)} values, "
                    f"expected {len(names)}"
                )
            for name, value in zip(names, values):
                columns[name].append(value)
    return columns
