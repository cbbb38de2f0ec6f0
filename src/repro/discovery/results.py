"""Discovery result containers.

Discovered dependencies carry, besides the dependency statement itself, the
measured approximation factor, the lattice level they were found at and
their interestingness score — everything the paper's Exp-4/5/6 report on.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.dependencies.oc import CanonicalOC
from repro.dependencies.ofd import OFD
from repro.discovery.config import DiscoveryRequest
from repro.discovery.stats import DiscoveryStatistics


@dataclass(frozen=True)
class DiscoveredOC:
    """A canonical OC found valid by a discovery run."""

    oc: CanonicalOC
    approximation_factor: float
    removal_size: int
    level: int
    interestingness: float = 0.0

    @property
    def is_exact(self) -> bool:
        """``True`` when the OC holds with no exceptions."""
        return self.removal_size == 0

    def __str__(self) -> str:
        kind = "OC" if self.is_exact else f"AOC(e={self.approximation_factor:.3f})"
        return f"{kind} level={self.level} {self.oc!r}"

    def to_dict(self) -> Dict[str, object]:
        """Plain-dict form for the JSON service boundary."""
        return {
            "context": sorted(self.oc.context),
            "a": self.oc.a,
            "b": self.oc.b,
            "approximation_factor": self.approximation_factor,
            "removal_size": self.removal_size,
            "level": self.level,
            "interestingness": self.interestingness,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "DiscoveredOC":
        """Rebuild from :meth:`to_dict` output."""
        return cls(
            oc=CanonicalOC(data["context"], data["a"], data["b"]),
            approximation_factor=data["approximation_factor"],
            removal_size=data["removal_size"],
            level=data["level"],
            interestingness=data.get("interestingness", 0.0),
        )


@dataclass(frozen=True)
class DiscoveredOFD:
    """An OFD found valid by a discovery run."""

    ofd: OFD
    approximation_factor: float
    removal_size: int
    level: int
    interestingness: float = 0.0

    @property
    def is_exact(self) -> bool:
        """``True`` when the OFD holds with no exceptions."""
        return self.removal_size == 0

    def __str__(self) -> str:
        kind = "OFD" if self.is_exact else f"AOFD(e={self.approximation_factor:.3f})"
        return f"{kind} level={self.level} {self.ofd!r}"

    def to_dict(self) -> Dict[str, object]:
        """Plain-dict form for the JSON service boundary."""
        return {
            "context": sorted(self.ofd.context),
            "attribute": self.ofd.attribute,
            "approximation_factor": self.approximation_factor,
            "removal_size": self.removal_size,
            "level": self.level,
            "interestingness": self.interestingness,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "DiscoveredOFD":
        """Rebuild from :meth:`to_dict` output."""
        return cls(
            ofd=OFD(data["context"], data["attribute"]),
            approximation_factor=data["approximation_factor"],
            removal_size=data["removal_size"],
            level=data["level"],
            interestingness=data.get("interestingness", 0.0),
        )


@dataclass
class DiscoveryResult:
    """The complete outcome of one discovery run."""

    request: DiscoveryRequest
    num_rows: int
    attributes: List[str]
    ocs: List[DiscoveredOC] = field(default_factory=list)
    ofds: List[DiscoveredOFD] = field(default_factory=list)
    stats: DiscoveryStatistics = field(default_factory=DiscoveryStatistics)

    # -- simple counts ----------------------------------------------------------

    @property
    def num_ocs(self) -> int:
        """Number of valid (A)OCs discovered."""
        return len(self.ocs)

    @property
    def num_ofds(self) -> int:
        """Number of valid (A)OFDs discovered."""
        return len(self.ofds)

    @property
    def num_dependencies(self) -> int:
        """Total number of dependencies discovered."""
        return self.num_ocs + self.num_ofds

    @property
    def timed_out(self) -> bool:
        """``True`` when the run was cut off by the configured time limit."""
        return self.stats.timed_out

    @property
    def cancelled(self) -> bool:
        """``True`` when the run was stopped early via a cancellation token."""
        return self.stats.cancelled

    @property
    def completed_levels(self) -> int:
        """Number of lattice levels that finished validating completely.

        For a run that timed out or was cancelled, the last started level
        may hold only a partial set of discoveries; dependencies at levels
        up to this value are byte-identical to an uninterrupted run.
        """
        if self.stats.timed_out or self.stats.cancelled:
            return max(0, self.stats.levels_processed - 1)
        return self.stats.levels_processed

    # -- level analytics (Exp-5) ------------------------------------------------

    def ocs_per_level(self) -> Dict[int, int]:
        """Histogram of discovered OCs by lattice level (Figure 5)."""
        histogram: Dict[int, int] = {}
        for found in self.ocs:
            histogram[found.level] = histogram.get(found.level, 0) + 1
        return dict(sorted(histogram.items()))

    def ofds_per_level(self) -> Dict[int, int]:
        """Histogram of discovered OFDs by lattice level."""
        histogram: Dict[int, int] = {}
        for found in self.ofds:
            histogram[found.level] = histogram.get(found.level, 0) + 1
        return dict(sorted(histogram.items()))

    def average_oc_level(self) -> Optional[float]:
        """Mean lattice level of the discovered OCs (Exp-5 reports the drop
        of this value when moving from exact OCs to AOCs)."""
        if not self.ocs:
            return None
        return sum(found.level for found in self.ocs) / len(self.ocs)

    # -- ranking (Figure 1, box 4) ----------------------------------------------

    def ranked_ocs(self, top_k: Optional[int] = None) -> List[DiscoveredOC]:
        """OCs sorted by decreasing interestingness score."""
        ranked = sorted(self.ocs, key=lambda f: (-f.interestingness, f.level))
        return ranked if top_k is None else ranked[:top_k]

    def ranked_ofds(self, top_k: Optional[int] = None) -> List[DiscoveredOFD]:
        """OFDs sorted by decreasing interestingness score."""
        ranked = sorted(self.ofds, key=lambda f: (-f.interestingness, f.level))
        return ranked if top_k is None else ranked[:top_k]

    # -- lookups ----------------------------------------------------------------

    def find_oc(self, a: str, b: str, context=()) -> Optional[DiscoveredOC]:
        """Find a discovered OC by its statement (symmetric in ``a``/``b``)."""
        wanted = CanonicalOC(context, a, b)
        for found in self.ocs:
            if found.oc == wanted:
                return found
        return None

    def find_ofd(self, attribute: str, context=()) -> Optional[DiscoveredOFD]:
        """Find a discovered OFD by its statement."""
        wanted = OFD(context, attribute)
        for found in self.ofds:
            if found.ofd == wanted:
                return found
        return None

    def oc_statements(self) -> List[CanonicalOC]:
        """The bare OC statements (used for set comparisons across runs)."""
        return [found.oc for found in self.ocs]

    # -- JSON service boundary ---------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """Plain-dict form of the complete result (JSON-compatible).

        The backend that produced the run travels in ``stats.backend``,
        the thread cap in ``stats.num_workers``.
        """
        return {
            "request": self.request.to_dict(),
            "num_rows": self.num_rows,
            "attributes": list(self.attributes),
            "ocs": [found.to_dict() for found in self.ocs],
            "ofds": [found.to_dict() for found in self.ofds],
            "stats": self.stats.as_dict(),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "DiscoveryResult":
        """Rebuild a result from :meth:`to_dict` output."""
        return cls(
            request=DiscoveryRequest.from_dict(data["request"]),
            num_rows=data["num_rows"],
            attributes=list(data["attributes"]),
            ocs=[DiscoveredOC.from_dict(d) for d in data.get("ocs", [])],
            ofds=[DiscoveredOFD.from_dict(d) for d in data.get("ofds", [])],
            stats=DiscoveryStatistics.from_dict(data.get("stats", {})),
        )

    def to_json(self, indent: Optional[int] = None) -> str:
        """Serialise the complete result to JSON."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)

    @classmethod
    def from_json(cls, payload: str) -> "DiscoveryResult":
        """Parse a result from :meth:`to_json` output."""
        data = json.loads(payload)
        if not isinstance(data, dict):
            raise ValueError(
                f"DiscoveryResult JSON must be an object, got {type(data).__name__}"
            )
        return cls.from_dict(data)

    def summary(self) -> str:
        """One-paragraph human-readable summary (used by the CLI and examples)."""
        mode = "exact" if self.request.is_exact else (
            f"approximate (ε={self.request.threshold:.0%}, {self.request.validator})"
        )
        lines = [
            f"Discovery mode: {mode} [{self.stats.backend} backend]",
            f"Relation: {self.num_rows} rows, {len(self.attributes)} attributes",
            f"Discovered: {self.num_ocs} OCs, {self.num_ofds} OFDs "
            f"in {self.stats.total_seconds:.3f}s"
            + (" (timed out)" if self.timed_out else "")
            + (" (cancelled)" if self.cancelled else ""),
            f"Validation share of runtime: {self.stats.validation_share:.1%}",
            f"OCs per level: {self.ocs_per_level()}",
        ]
        return "\n".join(lines)
