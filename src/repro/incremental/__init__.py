"""Incremental discovery: maintain AODs as rows are appended.

A warm :class:`~repro.discovery.session.Profiler` session keeps its three
warm assets consistent under row appends instead of going cold:

* **delta encoding** — :meth:`repro.dataset.encoding.EncodedRelation.extend`
  appends codes, growing each dictionary monotonically so existing codes
  stay valid (columns whose new values sort into the middle of the domain
  are remapped by an order-preserving bijection, which no kernel can
  observe);
* **class patches** —
  :meth:`repro.dataset.partition.PartitionCache.apply_delta` finds, from
  the appended rows alone, the classes the delta replaced in every
  context the memo or the cache's grouped-row counts name, and drops the
  cached partitions (the next read rebuilds one);
* **memo repair** — :func:`repro.incremental.repair.repair_memo` keeps,
  adjusts per class or purges each memoised validation outcome, using the
  append monotonicity argument (appending rows can only *increase* a
  candidate's minimal removal count, so a recorded count stays exact while
  its context's classes are untouched).

Nothing else is incremental: :meth:`Profiler.discover_incremental` is a
warm :meth:`~Profiler.discover`, whose memo rules
(:func:`repro.discovery.engine.memo_outcome`) recount exactly the
candidates the repaired memo cannot answer under the grown removal budget,
plus a statement diff (:class:`IncrementalOutcome`) against the request's
last completed result.  The maintained dependency set is byte-identical
to a cold discovery over the concatenated table.

Entry points: :meth:`Profiler.extend` / :meth:`Profiler.discover_incremental`
on the session, ``POST /datasets/<name>/append`` on ``repro serve``, and the
``repro extend`` CLI subcommand.
"""

from repro.incremental.delta import (
    DeltaSummary,
    IncrementalOutcome,
    rows_to_columns,
)

__all__ = [
    "DeltaSummary",
    "IncrementalOutcome",
    "rows_to_columns",
]
