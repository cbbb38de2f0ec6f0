"""Convenience entry points for OD / AOD discovery.

Each call builds one :class:`~repro.discovery.config.DiscoveryRequest`,
resolves it with the caller's backend and thread cap, and runs one
:class:`~repro.discovery.engine.DiscoveryEngine` over it (:func:`discover`);
the engine owns its partition cache and evicts it level by level.  Code
that profiles the same relation repeatedly (threshold sweeps, serving)
should hold a :class:`~repro.discovery.session.Profiler` instead — it
amortises encoding, partitions and validation outcomes across runs, with
byte-identical per-run results.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.backend import resolve_backend
from repro.dataset.relation import Relation
from repro.discovery.config import DiscoveryConfig, DiscoveryRequest
from repro.discovery.engine import DiscoveryEngine
from repro.discovery.results import DiscoveryResult


def discover_ods(
    relation: Relation,
    attributes: Optional[Sequence[str]] = None,
    max_level: Optional[int] = None,
    time_limit_seconds: Optional[float] = None,
    find_ofds: bool = True,
    backend: Optional[str] = None,
    num_workers: int = 1,
) -> DiscoveryResult:
    """Discover all minimal *exact* canonical ODs (OCs and OFDs).

    This is the FASTOD-style baseline the paper labels "OD" in Figures 2
    and 3: the approximation threshold is zero and the linear exact OC check
    is used for validation.

    Examples
    --------
    >>> from repro.dataset.examples import employee_salary_table
    >>> result = discover_ods(employee_salary_table())
    >>> result.find_oc("sal", "taxGrp") is not None
    True
    """
    request = DiscoveryRequest.exact(
        attributes=None if attributes is None else list(attributes),
        max_level=max_level,
        time_limit_seconds=time_limit_seconds,
        find_ofds=find_ofds,
    )
    return discover(
        relation, request.to_config(resolve_backend(backend), num_workers)
    )


def discover_aods(
    relation: Relation,
    threshold: float = 0.1,
    validator: str = "optimal",
    attributes: Optional[Sequence[str]] = None,
    max_level: Optional[int] = None,
    time_limit_seconds: Optional[float] = None,
    find_ofds: bool = True,
    backend: Optional[str] = None,
    num_workers: int = 1,
) -> DiscoveryResult:
    """Discover all minimal *approximate* canonical ODs w.r.t. ``threshold``.

    Parameters
    ----------
    relation:
        The table to profile.
    threshold:
        The approximation threshold ``ε`` (default 10%, the paper's default).
    validator:
        ``"optimal"`` for the paper's LNDS-based Algorithm 2 (default) or
        ``"iterative"`` for the greedy baseline it replaces.
    attributes, max_level, time_limit_seconds, find_ofds, num_workers:
        See :class:`repro.discovery.DiscoveryConfig`.

    Examples
    --------
    >>> from repro.dataset.examples import employee_salary_table
    >>> result = discover_aods(employee_salary_table(), threshold=0.15)
    >>> found = result.find_oc("exp", "sal", context=("pos",))
    >>> found is not None and found.removal_size == 1
    True
    """
    request = DiscoveryRequest.approximate(
        threshold=threshold,
        validator=validator,
        attributes=None if attributes is None else list(attributes),
        max_level=max_level,
        time_limit_seconds=time_limit_seconds,
        find_ofds=find_ofds,
    )
    return discover(
        relation, request.to_config(resolve_backend(backend), num_workers)
    )


def discover(relation: Relation, config: DiscoveryConfig) -> DiscoveryResult:
    """Run discovery with an explicit :class:`DiscoveryConfig`.

    The one-shot helpers above end here; the engine owns all of its
    state.  ``config.backend`` may be a live backend instance.
    """
    return DiscoveryEngine(relation, config).run()
