"""Shared plumbing for the validators.

Every canonical-dependency validator walks the equivalence classes of the
candidate's context (Definition 2.8).  The helpers here resolve those
classes through a :class:`PartitionCache`: the caller's (the discovery
framework's case, where contexts repeat heavily across candidates) or a
one-off cache for the public API calls.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.backend import BackendSpec, resolve_backend
from repro.dataset.partition import Partition, PartitionCache
from repro.dataset.relation import Relation


def context_classes(
    relation: Relation,
    context: Iterable[str],
    partition_cache: Optional[PartitionCache] = None,
    backend: BackendSpec = None,
) -> Partition:
    """Stripped equivalence classes of ``context`` over ``relation``.

    Singleton classes are omitted: a class with one tuple can contain
    neither swaps nor splits, so it never contributes to a removal set.
    The :class:`Partition` comes from ``partition_cache``, or from a
    one-off cache over ``relation``'s encoding under ``backend``, so both
    cases build it the same way (it iterates over its classes).
    """
    if partition_cache is None:
        resolved = resolve_backend(backend)
        partition_cache = PartitionCache(
            relation.encoded(resolved), backend=resolved
        )
    return partition_cache.get_by_names(context)


def validation_backend(
    backend: BackendSpec, partition_cache: Optional[PartitionCache]
):
    """Resolve the backend a validator should use.

    An explicit ``backend`` wins; otherwise a supplied cache's backend is
    reused (so discovery-driven validations stay on one backend); otherwise
    the environment default applies.
    """
    if backend is None and partition_cache is not None:
        return partition_cache.backend
    return resolve_backend(backend)


def removal_limit(num_rows: int, threshold: Optional[float]) -> Optional[int]:
    """Maximum removal-set size allowed by ``threshold`` (``⌊ε·|r|⌋``).

    Returns ``None`` when no threshold is given, meaning the validator
    should compute the full approximation factor.
    """
    if threshold is None:
        return None
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"approximation threshold must be in [0, 1], got {threshold}")
    return int(threshold * num_rows + 1e-9)
