"""Instrumentation collected during a discovery run.

The paper's Exp-3 reports that with the iterative validator "up to 99.6% of
the total runtime is spent on validation", and that the LNDS-based validator
reduces time spent validating AOCs by up to 99.8%.  Reproducing those
numbers requires phase-level timers inside the discovery loop; this module
holds them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields as _dataclass_fields
from typing import Dict


def _stat_fields():
    return _dataclass_fields(DiscoveryStatistics)


@dataclass
class DiscoveryStatistics:
    """Counters and timers for one discovery run."""

    total_seconds: float = 0.0
    oc_validation_seconds: float = 0.0
    ofd_validation_seconds: float = 0.0
    partition_seconds: float = 0.0
    candidate_generation_seconds: float = 0.0

    oc_candidates_validated: int = 0
    ofd_candidates_validated: int = 0
    oc_candidates_pruned: int = 0
    ofd_candidates_pruned: int = 0
    nodes_processed: int = 0
    nodes_pruned: int = 0
    levels_processed: int = 0
    nodes_per_level: Dict[int, int] = field(default_factory=dict)
    #: Wall-clock seconds per processed level (validation + recording; the
    #: next level's candidate generation is accounted globally in
    #: ``candidate_generation_seconds``).  Levels aborted by cancellation
    #: or the time limit have no entry.
    level_seconds: Dict[int, float] = field(default_factory=dict)
    #: Per-level share of the phase timers: ``{level: {"oc": s, "ofd": s,
    #: "partition": s}}``, measured by differencing the run-wide phase
    #: accumulators at the level boundaries (no extra timers on hot paths).
    level_phase_seconds: Dict[int, Dict[str, float]] = field(
        default_factory=dict
    )
    timed_out: bool = False
    #: ``True`` when the run was stopped early through a cancellation token.
    cancelled: bool = False
    #: Validation outcomes served from a session's warm memo instead of a
    #: kernel call (always 0 for one-shot runs; grows across
    #: :meth:`repro.discovery.session.Profiler.sweep` thresholds).
    validation_memo_hits: int = 0
    #: Name of the compute backend that executed the run's hot paths.
    backend: str = "python"
    #: The configured ``num_workers`` (the cap on OC plane threads) on
    #: optimal approximate runs; 1 on every other run.
    num_workers: int = 1
    #: Context groups dispatched to the OC kernel.
    oc_batches: int = 0
    #: Context groups dispatched to the OFD batch kernel.
    ofd_batches: int = 0

    # -- derived ---------------------------------------------------------------

    @property
    def validation_seconds(self) -> float:
        """Total time spent validating candidates (OC + OFD)."""
        return self.oc_validation_seconds + self.ofd_validation_seconds

    @property
    def validation_share(self) -> float:
        """Fraction of the total runtime spent in validation (Exp-3)."""
        if self.total_seconds <= 0:
            return 0.0
        return min(1.0, self.validation_seconds / self.total_seconds)

    def as_dict(self) -> Dict[str, object]:
        """Flatten to a plain dict (used by the benchmark reporters)."""
        return {
            "total_seconds": self.total_seconds,
            "oc_validation_seconds": self.oc_validation_seconds,
            "ofd_validation_seconds": self.ofd_validation_seconds,
            "partition_seconds": self.partition_seconds,
            "candidate_generation_seconds": self.candidate_generation_seconds,
            "validation_share": self.validation_share,
            "oc_candidates_validated": self.oc_candidates_validated,
            "ofd_candidates_validated": self.ofd_candidates_validated,
            "oc_candidates_pruned": self.oc_candidates_pruned,
            "ofd_candidates_pruned": self.ofd_candidates_pruned,
            "nodes_processed": self.nodes_processed,
            "nodes_pruned": self.nodes_pruned,
            "levels_processed": self.levels_processed,
            "nodes_per_level": dict(self.nodes_per_level),
            "level_seconds": dict(self.level_seconds),
            "level_phase_seconds": {
                level: dict(split)
                for level, split in self.level_phase_seconds.items()
            },
            "timed_out": self.timed_out,
            "cancelled": self.cancelled,
            "validation_memo_hits": self.validation_memo_hits,
            "backend": self.backend,
            "num_workers": self.num_workers,
            "oc_batches": self.oc_batches,
            "ofd_batches": self.ofd_batches,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "DiscoveryStatistics":
        """Rebuild statistics from :meth:`as_dict` output (the JSON service
        boundary).  Derived fields are ignored; ``nodes_per_level`` keys are
        restored to ``int`` (JSON object keys are strings)."""
        known = {f.name for f in _stat_fields()}
        kwargs = {k: v for k, v in data.items() if k in known}
        per_level = kwargs.get("nodes_per_level")
        if per_level is not None:
            kwargs["nodes_per_level"] = {
                int(level): count for level, count in per_level.items()
            }
        level_seconds = kwargs.get("level_seconds")
        if level_seconds is not None:
            kwargs["level_seconds"] = {
                int(level): seconds
                for level, seconds in level_seconds.items()
            }
        phase_seconds = kwargs.get("level_phase_seconds")
        if phase_seconds is not None:
            kwargs["level_phase_seconds"] = {
                int(level): dict(split)
                for level, split in phase_seconds.items()
            }
        return cls(**kwargs)


class PhaseTimer:
    """Context manager adding elapsed wall-clock time to a statistics field.

    Usage::

        with PhaseTimer(stats, "oc_validation_seconds"):
            validate(...)
    """

    def __init__(self, stats: DiscoveryStatistics, field_name: str) -> None:
        self._stats = stats
        self._field = field_name
        self._start = 0.0

    def __enter__(self) -> "PhaseTimer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        elapsed = time.perf_counter() - self._start
        setattr(self._stats, self._field, getattr(self._stats, self._field) + elapsed)
