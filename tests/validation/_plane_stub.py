"""A stand-in encoding for driving a column plane with hand-written columns.

Pool tests need rank columns no real encoding produces — a column captured
before an append (too short), or one holding a value the kernel cannot
compare — to exercise the stale-column guard and worker error reports.
:class:`StubEncoding` offers just the members a
:class:`~repro.validation.distributed.ColumnPlane` reads.
"""


class StubEncoding:
    """Named rank columns behind ``num_rows`` and ``native_ranks``."""

    def __init__(self, **columns) -> None:
        self._columns = columns
        self.num_rows = max((len(c) for c in columns.values()), default=0)

    def native_ranks(self, name):
        return self._columns[name]


def stub_plane_counts(pool, columns, classes, pair_names, limit=None):
    """Counts of ``pair_names`` over ``classes`` through a fresh plane over
    ``columns``.  Build ``pool`` with ``inline_group_cost=0`` to dispatch
    the group however small it is."""
    plane = pool.new_plane(StubEncoding(**columns))
    try:
        return plane.harvest(
            plane.submit(classes, pair_names, limit)
        )
    finally:
        plane.release()
