"""Set-based lattice discovery framework for ODs and AODs (Figure 1).

The framework traverses the lattice of attribute sets level by level
(Section 3.1).  While processing an attribute set ``X`` it validates

* OFD candidates ``X \\ {A}: [] ↦→ A`` for every ``A ∈ X``, and
* OC candidates ``X \\ {A, B}: A ~ B`` for every pair ``A ≠ B`` in ``X``,

pruning candidates with the set-based axioms so that only *minimal*
dependencies are reported, and generating the next level only from nodes
that can still produce candidates.  The AOC validation step is pluggable:
``"optimal"`` selects the paper's LNDS-based Algorithm 2, ``"iterative"``
the greedy baseline, and ``"exact"`` the linear exact check used for
ordinary OD discovery (the ``ε = 0`` special case).

Public entry points:

* :class:`Profiler` — a long-lived session owning the encoded relation,
  partition cache and validation memo; runs many discoveries
  (:meth:`~Profiler.discover`, :meth:`~Profiler.sweep`,
  :meth:`~Profiler.iter_events`) against warm state,
* :class:`DiscoveryRequest` — the JSON-serialisable description of one run
  (the request half of the service boundary; results serialise via
  :meth:`DiscoveryResult.to_json`),
* :func:`discover_ods` / :func:`discover_aods` — one-shot helpers that
  run one :class:`DiscoveryEngine`,
* :class:`DiscoveryConfig` / :class:`DiscoveryResult` for fine control and
  rich results (per-level counts, rankings, phase timings),
* the :mod:`repro.discovery.events` stream types
  (:class:`LevelStarted`, :class:`DependencyFound`,
  :class:`LevelCompleted`, :class:`RunCompleted`) yielded by
  ``iter_events`` with mid-level cancellation
  (:class:`CancellationToken`) and time-limit support.
"""

from repro.discovery.config import DiscoveryConfig, DiscoveryRequest
from repro.discovery.results import (
    DiscoveredOC,
    DiscoveredOFD,
    DiscoveryResult,
)
from repro.discovery.stats import DiscoveryStatistics
from repro.discovery.events import (
    DependencyFound,
    DiscoveryEvent,
    LevelCompleted,
    LevelStarted,
    RunCompleted,
)
from repro.discovery.engine import DiscoveryEngine
from repro.discovery.session import CancellationToken, Profiler
from repro.discovery.api import discover_aods, discover_ods
from repro.discovery.interestingness import interestingness_score

__all__ = [
    "CancellationToken",
    "DependencyFound",
    "DiscoveredOC",
    "DiscoveredOFD",
    "DiscoveryConfig",
    "DiscoveryEngine",
    "DiscoveryEvent",
    "DiscoveryRequest",
    "DiscoveryResult",
    "DiscoveryStatistics",
    "LevelCompleted",
    "LevelStarted",
    "Profiler",
    "RunCompleted",
    "discover_aods",
    "discover_ods",
    "interestingness_score",
]
