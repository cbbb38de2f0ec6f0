"""Typed events emitted by the streaming discovery engine.

:meth:`repro.discovery.engine.DiscoveryEngine.iter_events` turns the
level-wise lattice search into an event stream: one :class:`LevelStarted`
per lattice level, a :class:`DependencyFound` for every recorded dependency
of that level, a :class:`LevelCompleted` once the level's validation and
recording finished, and a final :class:`RunCompleted` carrying the complete
:class:`~repro.discovery.results.DiscoveryResult`.

A run that is cancelled or hits its time limit mid-level still streams the
dependencies recorded for the partial level (followed directly by
:class:`RunCompleted`, without a :class:`LevelCompleted` for the aborted
level), so consumers always observe exactly what the partial result
contains.

Every event serialises to a plain dict via :meth:`to_dict` (used by the
``repro serve`` NDJSON streaming endpoint).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Union


@dataclass(frozen=True)
class LevelStarted:
    """A lattice level is about to be validated."""

    level: int
    num_nodes: int

    def to_dict(self) -> Dict[str, object]:
        return {"event": "level_started", "level": self.level,
                "num_nodes": self.num_nodes}


@dataclass(frozen=True)
class DependencyFound:
    """A dependency was recorded as valid.

    ``kind`` is ``"oc"`` or ``"ofd"``; ``dependency`` is the corresponding
    :class:`~repro.discovery.results.DiscoveredOC` /
    :class:`~repro.discovery.results.DiscoveredOFD`.
    """

    level: int
    kind: str
    dependency: object

    def to_dict(self) -> Dict[str, object]:
        return {
            "event": "dependency_found",
            "level": self.level,
            "kind": self.kind,
            "dependency": self.dependency.to_dict(),
        }


@dataclass(frozen=True)
class LevelCompleted:
    """A lattice level finished validating (never emitted for a level the
    run was cancelled or timed out in).

    ``seconds`` is the level's wall-clock span (validation + recording);
    the ``oc_seconds`` / ``ofd_seconds`` / ``partition_seconds`` split
    mirrors the per-level breakdown kept in
    :attr:`~repro.discovery.stats.DiscoveryStatistics.level_phase_seconds`.
    """

    level: int
    num_nodes: int
    num_ocs: int
    num_ofds: int
    seconds: float = 0.0
    oc_seconds: float = 0.0
    ofd_seconds: float = 0.0
    partition_seconds: float = 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "event": "level_completed",
            "level": self.level,
            "num_nodes": self.num_nodes,
            "num_ocs": self.num_ocs,
            "num_ofds": self.num_ofds,
            "seconds": self.seconds,
            "oc_seconds": self.oc_seconds,
            "ofd_seconds": self.ofd_seconds,
            "partition_seconds": self.partition_seconds,
        }


@dataclass(frozen=True)
class RunCompleted:
    """The run finished (normally, cancelled, or timed out); always the
    final event of a stream.  Carries the complete
    :class:`~repro.discovery.results.DiscoveryResult`."""

    result: object

    def to_dict(self) -> Dict[str, object]:
        return {"event": "run_completed", "result": self.result.to_dict()}


#: Union of every event type yielded by ``iter_events``.
DiscoveryEvent = Union[LevelStarted, DependencyFound, LevelCompleted,
                       RunCompleted]
