"""What an append changed, for the session and for one request.

A :class:`DeltaSummary` records what one append did to a session's warm
state: how the relation grew, how each column's encoding absorbed the new
values, which patched contexts' stripped classes changed (the only
contexts whose validation outcomes the append can have altered), and how
the validation memo was repaired.  An :class:`IncrementalOutcome` records what
the appends since a request's last completed run did to its dependency
set.  Both are plain data that serialise for the service boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

if TYPE_CHECKING:
    from repro.discovery.results import (
        DiscoveredOC,
        DiscoveredOFD,
        DiscoveryResult,
    )


@dataclass(frozen=True)
class DeltaSummary:
    """What one :meth:`Profiler.extend` call changed.

    The append patches every context the session's validation memo holds
    entries of and every context whose grouped-row count its partition
    cache keeps (every context it ever built): it finds the classes the
    appended rows replaced from those rows alone.  ``affected_contexts``
    holds the attribute-*name* sets of the patched contexts whose stripped
    equivalence classes changed.  A patched context absent from it kept
    identical classes, so memoised validation outcomes for it remain
    exact.
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
    #: Contexts the append patched, whether their classes changed or not
    #: (no partition is rebuilt: the next read of one rebuilds it).
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
            "patched_partitions": self.patched_partitions,
            "invalidated_memo_entries": self.invalidated_memo_entries,
            "adjusted_memo_entries": self.adjusted_memo_entries,
            "retained_memo_entries": self.retained_memo_entries,
        }


@dataclass
class IncrementalOutcome:
    """One request's dependency set after appends, diffed against its
    previous result.

    ``result`` is the full :class:`~repro.discovery.results.DiscoveryResult`
    over the extended table (byte-identical to a cold run); the revoked /
    added lists diff it against ``previous``, the request's last completed
    result, by dependency statement.  ``previous`` is ``None`` when the
    session had none (the run seeded it), and the lists are empty then and
    for a cancelled or timed-out run.
    """

    result: DiscoveryResult
    previous: Optional[DiscoveryResult]
    revoked_ocs: List[DiscoveredOC]
    revoked_ofds: List[DiscoveredOFD]
    added_ocs: List[DiscoveredOC]
    added_ofds: List[DiscoveredOFD]

    @classmethod
    def between(
        cls, previous: Optional[DiscoveryResult], result: DiscoveryResult
    ) -> "IncrementalOutcome":
        """Diff ``result`` against ``previous``; a partial (cancelled or
        timed-out) result says nothing about revocation, so it gets none."""
        diff = ([], [], [], [])
        if (previous is not None
                and not result.cancelled and not result.timed_out):
            diff = diff_results(previous, result)
        return cls(result, previous, *diff)

    @property
    def num_revoked(self) -> int:
        return len(self.revoked_ocs) + len(self.revoked_ofds)

    @property
    def num_added(self) -> int:
        return len(self.added_ocs) + len(self.added_ofds)

    def to_dict(self) -> Dict[str, object]:
        return {
            "result": self.result.to_dict(),
            "revoked_ocs": [found.to_dict() for found in self.revoked_ocs],
            "revoked_ofds": [found.to_dict() for found in self.revoked_ofds],
            "added_ocs": [found.to_dict() for found in self.added_ocs],
            "added_ofds": [found.to_dict() for found in self.added_ofds],
        }


def diff_results(
    previous: DiscoveryResult, current: DiscoveryResult
) -> Tuple[List[DiscoveredOC], List[DiscoveredOFD],
           List[DiscoveredOC], List[DiscoveredOFD]]:
    """Statement-level diff: ``(revoked_ocs, revoked_ofds, added_ocs,
    added_ofds)``.  Revoked entries carry the *previous* run's metadata,
    added entries the current run's."""
    old_ocs = {found.oc for found in previous.ocs}
    old_ofds = {found.ofd for found in previous.ofds}
    new_ocs = {found.oc for found in current.ocs}
    new_ofds = {found.ofd for found in current.ofds}
    return (
        [found for found in previous.ocs if found.oc not in new_ocs],
        [found for found in previous.ofds if found.ofd not in new_ofds],
        [found for found in current.ocs if found.oc not in old_ocs],
        [found for found in current.ofds if found.ofd not in old_ofds],
    )


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
