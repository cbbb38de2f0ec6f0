"""The OC plane: one run's context groups counted on threads.

Every discovery run validates a level on one schedule (see
:mod:`repro.discovery.engine`): each OC context group is submitted to the
run's :class:`ColumnPlane` up front, the coordinator validates the level's
OFD candidates (building their partitions) while the plane counts, and the
groups are harvested in submission order before outcomes are recorded in
job order.

The plane counts on the threads of a :class:`ShardedValidationPool`, all
inside the coordinator's process.  The native kernels release the GIL
(they are called through ``ctypes.CDLL``), which is where the overlap
comes from; nothing is copied or shipped, since every thread reads the
rank columns and partitions the coordinator already holds.  Without a
pool the plane counts each group inline at submit.  Counts do not depend
on which thread produced them, so results, statistics counters included,
are identical for every thread count.
"""

from __future__ import annotations

from concurrent.futures import Future, ThreadPoolExecutor
from typing import Callable, List, Optional, Tuple


class ShardedValidationPool:
    """One run's OC plane threads: a ``ThreadPoolExecutor`` named
    ``repro-oc``, started lazily and stopped by :meth:`close`.

    ``stats`` counts the context ``groups`` submitted to the threads and
    the OC candidate pairs (``jobs``) they carry.
    """

    def __init__(self, num_threads: int) -> None:
        self.stats = {"groups": 0, "jobs": 0}
        self._executor: Optional[ThreadPoolExecutor] = ThreadPoolExecutor(
            num_threads, thread_name_prefix="repro-oc"
        )

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        return self._executor is None

    def submit(self, count: Callable[[], list], pairs: int) -> Future:
        """Run ``count`` on a plane thread."""
        if self._executor is None:
            raise RuntimeError("the OC plane threads are closed")
        self.stats["groups"] += 1
        self.stats["jobs"] += pairs
        return self._executor.submit(count)

    def close(self) -> None:
        """Stop the threads, waiting for any group still running
        (idempotent)."""
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None

    def __enter__(self) -> "ShardedValidationPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class ColumnPlane:
    """One run's OC plane: ``submit`` / ``harvest`` / ``abandon`` over the
    threads of a :class:`ShardedValidationPool`, or inline without one.

    ``prepare(classes, pair_names, limit)`` runs on the submitting thread,
    resolves every lazily built input there and returns the call that
    counts the group: one ``(count, exceeded)`` per pair.  That call only
    reads, so it may run on a plane thread while the coordinator goes on.
    """

    def __init__(self, prepare: Callable[..., Callable[[], list]],
                 pool: Optional[ShardedValidationPool] = None) -> None:
        self._prepare = prepare
        self._pool = pool

    def submit(self, classes, pair_names, limit: Optional[int] = None
               ) -> Future:
        """Start counting one context group; returns its future (already
        settled when the plane counts inline)."""
        count = self._prepare(classes, pair_names, limit)
        if self._pool is not None:
            return self._pool.submit(count, len(pair_names))
        settled: Future = Future()
        settled.set_result(count())
        return settled

    def harvest(self, pending: Future) -> List[Tuple[int, bool]]:
        """Block until ``pending`` is counted; a kernel error re-raises."""
        return pending.result()

    def abandon(self, pending: Future) -> None:
        """Drop a group that will not be harvested (a running one finishes
        and its result is discarded)."""
        pending.cancel()
