"""Named workload definitions for the benchmark suites.

The paper's experiments fix a dataset (flight or ncvoter), a number of
tuples, a number of attributes and an approximation threshold.  A
:class:`WorkloadSpec` captures that tuple of parameters; :func:`make_workload`
materialises the corresponding synthetic relation, a stand-in for the
paper's dataset (see :mod:`repro.dataset.generators`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.dataset.generators import (
    GeneratedWorkload,
    generate_flight_like,
    generate_ncvoter_like,
)

#: Registry of dataset-name -> generator function.
DATASET_GENERATORS = {
    "flight": generate_flight_like,
    "ncvoter": generate_ncvoter_like,
}


@dataclass(frozen=True)
class WorkloadSpec:
    """A fully specified benchmark workload."""

    dataset: str
    num_rows: int
    num_attributes: int = 10
    error_rate: float = 0.08
    seed: int = 7

    def __post_init__(self) -> None:
        if self.dataset not in DATASET_GENERATORS:
            raise ValueError(
                f"unknown dataset {self.dataset!r}; expected one of "
                f"{sorted(DATASET_GENERATORS)}"
            )

    @property
    def label(self) -> str:
        """Short label used in benchmark output (e.g. ``flight-10K-10``)."""
        return f"{self.dataset}-{_format_count(self.num_rows)}-{self.num_attributes}"


def _format_count(count: int) -> str:
    """Human-style tuple counts: 1000 -> 1K, 1000000 -> 1M."""
    if count % 1_000_000 == 0 and count >= 1_000_000:
        return f"{count // 1_000_000}M"
    if count % 1_000 == 0 and count >= 1_000:
        return f"{count // 1_000}K"
    return str(count)


_CACHE: Dict[WorkloadSpec, GeneratedWorkload] = {}


def make_workload(spec: WorkloadSpec, use_cache: bool = True) -> GeneratedWorkload:
    """Materialise (and memoise) the relation described by ``spec``.

    Workload generation is deterministic, so caching by spec is safe and
    keeps repeated benchmark fixtures cheap.
    """
    if use_cache and spec in _CACHE:
        return _CACHE[spec]
    generator = DATASET_GENERATORS[spec.dataset]
    workload = generator(
        num_rows=spec.num_rows,
        num_attributes=spec.num_attributes,
        error_rate=spec.error_rate,
        seed=spec.seed,
    )
    if use_cache:
        _CACHE[spec] = workload
    return workload


def clear_workload_cache() -> None:
    """Drop all memoised workloads (used by tests of this module)."""
    _CACHE.clear()
