"""Convenience entry points for OD / AOD discovery.

These are thin wrappers over a one-shot
:class:`~repro.discovery.session.Profiler` session: each call builds a
session, runs a single :class:`~repro.discovery.config.DiscoveryRequest`
against it and tears it down again.  Code that profiles the same relation
repeatedly (threshold sweeps, serving) should hold a ``Profiler`` instead —
it amortises encoding, partitions and validation outcomes across runs, with
byte-identical per-run results.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.dataset.relation import Relation
from repro.discovery.config import DiscoveryConfig, DiscoveryRequest
from repro.discovery.engine import DiscoveryEngine
from repro.discovery.results import DiscoveryResult
from repro.discovery.session import Profiler


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
        num_workers=DiscoveryRequest.pin_workers(num_workers),
    )
    with Profiler(relation, backend=backend, num_workers=num_workers,
                  cache_validations=False,
                  retain_partitions=False) as session:
        return session.discover(request)


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
        num_workers=DiscoveryRequest.pin_workers(num_workers),
    )
    with Profiler(relation, backend=backend, num_workers=num_workers,
                  cache_validations=False,
                  retain_partitions=False) as session:
        return session.discover(request)


def discover(relation: Relation, config: DiscoveryConfig) -> DiscoveryResult:
    """Run discovery with an explicit :class:`DiscoveryConfig`.

    This is the engine-level escape hatch (live backend instances,
    progress callbacks); the engine owns all of its state, exactly like a
    one-shot session.
    """
    return DiscoveryEngine(relation, config).run()
