"""Incremental discovery: maintain AODs as rows are appended.

A warm :class:`~repro.discovery.session.Profiler` session traditionally
went cold the moment its dataset grew — every append forced a from-scratch
re-discovery.  This subsystem keeps the session's three warm assets
consistent under row appends instead:

* **delta encoding** — :meth:`repro.dataset.encoding.EncodedRelation.extend`
  appends codes, growing each dictionary monotonically so existing codes
  stay valid (columns whose new values sort into the middle of the domain
  are remapped by an order-preserving bijection, which no kernel can
  observe);
* **partition repair** —
  :meth:`repro.dataset.partition.PartitionCache.apply_delta` rebuilds every
  cached stripped partition over the grown relation (smallest contexts
  first, each refining an already-rebuilt subset, as a cache miss does)
  and reports exactly which contexts' classes changed;
* **candidate-set repair** — :class:`IncrementalEngine` classifies the
  previous run's candidates into still-valid / must-revalidate /
  newly-possible using the append monotonicity argument (appending rows can
  only *increase* a candidate's minimal removal count, so a recorded
  non-exceeded count stays exact while its context's classes are
  untouched), purges only the memo entries the delta can actually have
  changed, and drives the affected candidates back through the existing
  batch kernels.  The maintained dependency set is byte-identical to a cold
  discovery over the concatenated table.

Entry points: :meth:`Profiler.extend` / :meth:`Profiler.discover_incremental`
on the session, ``POST /datasets/<name>/append`` on ``repro serve``, and the
``repro extend`` CLI subcommand.
"""

from repro.incremental.delta import DeltaSummary, rows_to_columns
from repro.incremental.engine import (
    IncrementalEngine,
    IncrementalOutcome,
    RepairPlan,
)

__all__ = [
    "DeltaSummary",
    "IncrementalEngine",
    "IncrementalOutcome",
    "RepairPlan",
    "rows_to_columns",
]
