"""Size-bounded LRU mappings for warm-session state.

A long-lived :class:`~repro.discovery.session.Profiler` accumulates two
kinds of warm state that grow with every distinct request: the validation
memo (one small entry per validated candidate) and the partition cache
(O(rows) per visited context).  :class:`BoundedLRU` is the shared eviction
policy behind both ``max_memo_entries`` and ``max_cached_partitions``: a
plain mutable mapping when unbounded, a least-recently-used cache when a
limit is set.  Reads through :meth:`get` / ``[]`` refresh recency; inserts
evict the stalest entries once the limit is exceeded.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

_MISSING = object()


class BoundedLRU(OrderedDict):
    """An ``OrderedDict`` with optional LRU eviction.

    ``max_entries=None`` disables eviction entirely (the mapping behaves
    like a dict, with insertion order preserved).  With a limit, every hit
    moves the entry to the most-recent end and every insert evicts from the
    least-recent end until the size bound holds again.

    ``evictions`` counts entries dropped by the bound (not by explicit
    ``del`` / ``pop``), so sessions can report cache pressure.
    """

    def __init__(self, max_entries: Optional[int] = None) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError(
                f"max_entries must be at least 1 or None, got {max_entries}"
            )
        super().__init__()
        self.max_entries = max_entries
        self.evictions = 0

    def get(self, key, default=None):
        # One hashed lookup: the memo's hot path reads through here.
        value = super().get(key, _MISSING)
        if value is _MISSING:
            return default
        if self.max_entries is not None:
            self.move_to_end(key)
        return value

    def __getitem__(self, key):
        value = super().__getitem__(key)
        if self.max_entries is not None:
            self.move_to_end(key)
        return value

    def __setitem__(self, key, value) -> None:
        super().__setitem__(key, value)
        if self.max_entries is not None:
            self.move_to_end(key)
            while len(self) > self.max_entries:
                self.popitem(last=False)
                self.evictions += 1

    def replace(self, key, value) -> None:
        """Overwrite an existing entry's value without refreshing its
        recency (a plain ``[]`` store would move it to the recent end)."""
        if key not in self:
            raise KeyError(key)
        super().__setitem__(key, value)

    def touch(self, key) -> None:
        """Refresh ``key``'s recency without reading its value."""
        if self.max_entries is not None and key in self:
            self.move_to_end(key)
