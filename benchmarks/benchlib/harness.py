"""Timed discovery runs and validator comparisons.

The harness wraps the discovery engine with wall-clock measurement, a
configurable timeout (standing in for the paper's 24-hour cut-off on the
iterative series), and per-candidate validator comparisons used by Exp-4
(removal-set sizes and missed AOCs).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.dataset.relation import Relation
from repro.dependencies.oc import CanonicalOC
from repro.discovery.api import discover, discover_aods
from repro.discovery.config import DiscoveryRequest
from repro.discovery.engine import DiscoveryEngine
from repro.discovery.results import DiscoveryResult
from repro.discovery.session import Profiler
from repro.validation.approx_oc_iterative import validate_aoc_iterative
from repro.validation.approx_oc_optimal import validate_aoc_optimal


def time_best_of(fn: Callable[[], object], repeats: int = 5) -> float:
    """Best-of-``repeats`` wall-clock seconds for one call of ``fn``.

    The micro-benchmarks use the *minimum* over repeats: on a shared runner
    it is the least noisy estimator of the work actually required, and the
    one the recorded speedup ratios are stable under.
    """
    best = float("inf")
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - start
        if elapsed < best:
            best = elapsed
    return best


@dataclass
class DiscoveryMeasurement:
    """One timed discovery run."""

    label: str
    seconds: float
    num_ocs: int
    num_ofds: int
    timed_out: bool
    validation_share: float
    result: DiscoveryResult
    #: Which compute backend produced this measurement (resolved name).
    backend: str = "python"
    #: The run's ``stats.num_workers`` (the OC plane's thread cap).
    num_workers: int = 1

    def as_row(self) -> Dict[str, object]:
        """Flatten to a dict for the reporting tables."""
        return {
            "label": self.label,
            "backend": self.backend,
            "workers": self.num_workers,
            "seconds": round(self.seconds, 4),
            "ocs": self.num_ocs,
            "ofds": self.num_ofds,
            "timed_out": self.timed_out,
            "validation_share": round(self.validation_share, 4),
        }


def measure_discovery(
    relation: Relation,
    mode: str,
    threshold: float = 0.1,
    attributes: Optional[Sequence[str]] = None,
    max_level: Optional[int] = None,
    time_limit_seconds: Optional[float] = None,
    label: Optional[str] = None,
    backend: Optional[str] = None,
    num_workers: int = 1,
) -> DiscoveryMeasurement:
    """Run discovery in one of the paper's three modes and time it.

    ``mode`` is ``"od"`` (exact discovery, the "OD" series), ``"aod-optimal"``
    or ``"aod-iterative"``.  ``backend`` selects the compute backend and
    ``num_workers`` the execution strategy; both are recorded on the
    measurement so reports can attribute every number to the
    configuration that produced it.
    """
    common = dict(
        attributes=attributes,
        max_level=max_level,
        time_limit_seconds=time_limit_seconds,
    )
    if mode == "od":
        request = DiscoveryRequest.exact(**common)
    elif mode == "aod-optimal":
        request = DiscoveryRequest.approximate(
            threshold=threshold, validator="optimal", **common
        )
    elif mode == "aod-iterative":
        request = DiscoveryRequest.approximate(
            threshold=threshold, validator="iterative", **common
        )
    else:
        raise ValueError(
            f"mode must be 'od', 'aod-optimal' or 'aod-iterative', got {mode!r}"
        )
    start = time.perf_counter()
    result = DiscoveryEngine(relation, request, backend=backend,
                             num_workers=num_workers).run()
    elapsed = time.perf_counter() - start
    return DiscoveryMeasurement(
        label=label or mode,
        seconds=elapsed,
        num_ocs=result.num_ocs,
        num_ofds=result.num_ofds,
        timed_out=result.timed_out,
        validation_share=result.stats.validation_share,
        result=result,
        backend=result.stats.backend,
        num_workers=result.stats.num_workers,
    )


@dataclass
class SweepMeasurement:
    """Cold-vs-warm comparison of a threshold sweep (the session API's
    headline win: one :class:`~repro.discovery.session.Profiler` reusing
    partitions and validation outcomes across ε values)."""

    thresholds: List[float]
    #: One fresh engine per threshold (the pre-session one-shot pattern).
    cold_seconds: float
    #: One warm session running :meth:`Profiler.sweep`.
    warm_seconds: float
    cold_results: List[DiscoveryResult]
    warm_results: List[DiscoveryResult]
    backend: str = "python"
    num_workers: int = 1

    @property
    def speedup(self) -> float:
        """How much faster the warm session sweep ran."""
        if self.warm_seconds <= 0:
            return float("inf")
        return self.cold_seconds / self.warm_seconds

    def as_row(self) -> Dict[str, object]:
        """Flatten to a dict for the reporting tables / JSON artifacts."""
        return {
            "thresholds": list(self.thresholds),
            "backend": self.backend,
            "workers": self.num_workers,
            "cold_seconds": round(self.cold_seconds, 4),
            "warm_seconds": round(self.warm_seconds, 4),
            "speedup": round(self.speedup, 2),
            "memo_hits": [
                r.stats.validation_memo_hits for r in self.warm_results
            ],
        }


def measure_sweep(
    relation: Relation,
    thresholds: Sequence[float],
    validator: str = "optimal",
    attributes: Optional[Sequence[str]] = None,
    max_level: Optional[int] = None,
    backend: Optional[str] = None,
    num_workers: int = 1,
) -> SweepMeasurement:
    """Time a threshold sweep cold (repeated one-shot runs) and warm (one
    session), asserting nothing — per-threshold result comparisons are the
    caller's job.

    The cold series *is* repeated :func:`discover_aods` calls (a fresh
    engine per threshold); the warm series runs
    :meth:`Profiler.sweep` on one session.  The relation is encoded once
    up front so both series time discovery, not encoding.
    """
    relation.encoded(backend)
    request = DiscoveryRequest(
        validator=validator,
        attributes=None if attributes is None else list(attributes),
        max_level=max_level,
    )

    cold_results: List[DiscoveryResult] = []
    cold_start = time.perf_counter()
    for threshold in thresholds:
        cold_results.append(discover_aods(
            relation,
            threshold=threshold,
            validator=validator,
            attributes=attributes,
            max_level=max_level,
            backend=backend,
            num_workers=num_workers,
        ))
    cold_seconds = time.perf_counter() - cold_start

    warm_start = time.perf_counter()
    with Profiler(relation, backend=backend, num_workers=num_workers) as session:
        warm_results = session.sweep(thresholds, request=request)
    warm_seconds = time.perf_counter() - warm_start

    return SweepMeasurement(
        thresholds=list(thresholds),
        cold_seconds=cold_seconds,
        warm_seconds=warm_seconds,
        cold_results=cold_results,
        warm_results=warm_results,
        backend=warm_results[0].stats.backend if warm_results else "python",
        num_workers=num_workers,
    )


@dataclass
class IncrementalMeasurement:
    """Incremental-vs-cold comparison after a row append.

    ``incremental_seconds`` times :meth:`Profiler.extend` plus
    :meth:`Profiler.discover_incremental` on a warm session, and
    ``extend_seconds`` the :meth:`Profiler.extend` part alone (delta
    encoding, class patches and memo repair);
    ``cold_seconds`` times what the pre-incremental world had to do
    instead — a from-scratch session over the concatenated table (encoding,
    partitions, every validation) running one discovery.
    """

    base_rows: int
    delta_rows: int
    threshold: float
    cold_seconds: float
    incremental_seconds: float
    extend_seconds: float
    cold_result: DiscoveryResult
    incremental_result: DiscoveryResult
    num_revoked: int
    num_added: int
    memo_hits: int
    backend: str = "python"

    @property
    def speedup(self) -> float:
        """How much faster the incremental path re-established the result."""
        if self.incremental_seconds <= 0:
            return float("inf")
        return self.cold_seconds / self.incremental_seconds

    def as_row(self) -> Dict[str, object]:
        """Flatten to a dict for the reporting tables / JSON artifacts."""
        return {
            "base_rows": self.base_rows,
            "delta_rows": self.delta_rows,
            "threshold": self.threshold,
            "backend": self.backend,
            "cold_seconds": round(self.cold_seconds, 4),
            "incremental_seconds": round(self.incremental_seconds, 4),
            "extend_seconds": round(self.extend_seconds, 4),
            "speedup": round(self.speedup, 2),
            "revoked": self.num_revoked,
            "added": self.num_added,
            "memo_hits": self.memo_hits,
        }


def measure_incremental(
    base_relation: Relation,
    delta_rows: Sequence[Sequence[object]],
    threshold: float = 0.1,
    validator: str = "optimal",
    attributes: Optional[Sequence[str]] = None,
    max_level: Optional[int] = None,
    backend: Optional[str] = None,
    num_workers: int = 1,
) -> IncrementalMeasurement:
    """Time incremental maintenance against a cold re-discovery.

    A warm session first discovers over ``base_relation`` (untimed — that
    is the state any long-lived session already has), then the appended
    rows arrive: the incremental leg times ``extend`` +
    ``discover_incremental``; the cold leg times a one-shot engine run
    over the concatenated table.  Equality of the two results is the
    caller's assertion to make.
    """
    request = DiscoveryRequest(
        threshold=threshold,
        validator=validator,
        attributes=None if attributes is None else list(attributes),
        max_level=max_level,
    )
    delta_rows = [list(row) for row in delta_rows]

    with Profiler(
        base_relation, backend=backend, num_workers=num_workers
    ) as session:
        session.discover(request)  # the warm baseline (untimed)
        incremental_start = time.perf_counter()
        session.extend(delta_rows)
        extend_seconds = time.perf_counter() - incremental_start
        outcome = session.discover_incremental(request)
        incremental_seconds = time.perf_counter() - incremental_start
        extended_relation = session.relation

    delta_relation = Relation(
        base_relation.schema,
        {
            name: [row[index] for row in delta_rows]
            for index, name in enumerate(base_relation.attribute_names)
        },
    )
    concatenated = base_relation.concat(delta_relation)
    cold_start = time.perf_counter()
    cold_result = discover(concatenated, request, backend=backend,
                           num_workers=num_workers)
    cold_seconds = time.perf_counter() - cold_start

    assert extended_relation.num_rows == concatenated.num_rows
    return IncrementalMeasurement(
        base_rows=base_relation.num_rows,
        delta_rows=len(delta_rows),
        threshold=threshold,
        cold_seconds=cold_seconds,
        incremental_seconds=incremental_seconds,
        extend_seconds=extend_seconds,
        cold_result=cold_result,
        incremental_result=outcome.result,
        num_revoked=outcome.num_revoked,
        num_added=outcome.num_added,
        memo_hits=outcome.result.stats.validation_memo_hits,
        backend=outcome.result.stats.backend,
    )


def run_sweep(
    relation_factory: Callable[[object], Relation],
    sweep_values: Iterable[object],
    modes: Sequence[str] = ("od", "aod-optimal", "aod-iterative"),
    threshold: float = 0.1,
    time_limit_seconds: Optional[float] = None,
    max_level: Optional[int] = None,
    backend: Optional[str] = None,
) -> Dict[str, List[DiscoveryMeasurement]]:
    """Run every mode over a parameter sweep.

    ``relation_factory(value)`` builds the relation for one sweep point
    (e.g. the prefix of a dataset of a given size); the result maps each
    mode to its series of measurements, ready for
    :func:`repro.cli.format_series_table`.
    """
    series: Dict[str, List[DiscoveryMeasurement]] = {mode: [] for mode in modes}
    for value in sweep_values:
        relation = relation_factory(value)
        for mode in modes:
            measurement = measure_discovery(
                relation,
                mode,
                threshold=threshold,
                time_limit_seconds=time_limit_seconds,
                max_level=max_level,
                label=f"{mode}@{value}",
                backend=backend,
            )
            series[mode].append(measurement)
    return series


@dataclass
class CandidateComparison:
    """Optimal-vs-iterative comparison for a single OC candidate (Exp-4)."""

    oc: CanonicalOC
    optimal_removal: int
    iterative_removal: int
    optimal_factor: float
    iterative_factor: float

    @property
    def overestimate(self) -> int:
        """How many extra tuples the greedy validator removed."""
        return self.iterative_removal - self.optimal_removal

    @property
    def relative_overestimate(self) -> float:
        """Relative removal-set inflation (the paper reports ≈1% on average)."""
        if self.optimal_removal == 0:
            return 0.0 if self.iterative_removal == 0 else float("inf")
        return (self.iterative_removal - self.optimal_removal) / self.optimal_removal


@dataclass
class ComparisonSummary:
    """Aggregate of :func:`compare_validators_on_candidates`."""

    comparisons: List[CandidateComparison] = field(default_factory=list)
    threshold: Optional[float] = None

    @property
    def num_candidates(self) -> int:
        return len(self.comparisons)

    @property
    def mean_relative_overestimate(self) -> float:
        """Average removal-set inflation over candidates with violations."""
        relevant = [
            c.relative_overestimate
            for c in self.comparisons
            if c.optimal_removal > 0 and c.relative_overestimate != float("inf")
        ]
        if not relevant:
            return 0.0
        return sum(relevant) / len(relevant)

    def missed_by_iterative(self) -> List[CandidateComparison]:
        """Candidates valid under the optimal validator but rejected by the
        greedy one (requires a threshold) — the paper's "missed AOCs"."""
        if self.threshold is None:
            return []
        return [
            c
            for c in self.comparisons
            if c.optimal_factor <= self.threshold < c.iterative_factor
        ]


def compare_validators_on_candidates(
    relation: Relation,
    candidates: Iterable[CanonicalOC],
    threshold: Optional[float] = None,
    backend: Optional[str] = None,
) -> ComparisonSummary:
    """Validate every candidate with both algorithms and compare removal sets."""
    summary = ComparisonSummary(threshold=threshold)
    for oc in candidates:
        optimal = validate_aoc_optimal(relation, oc, backend=backend)
        iterative = validate_aoc_iterative(relation, oc, backend=backend)
        summary.comparisons.append(
            CandidateComparison(
                oc=oc,
                optimal_removal=optimal.removal_size,
                iterative_removal=iterative.removal_size,
                optimal_factor=optimal.approximation_factor,
                iterative_factor=iterative.approximation_factor,
            )
        )
    return summary
