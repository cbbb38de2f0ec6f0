"""Shared fixtures for the test-suite."""

from __future__ import annotations

import pytest

from repro.dataset.examples import employee_salary_table, tiny_numeric_table
from repro.dataset.generators import (
    generate_flight_like,
    generate_ncvoter_like,
    generate_planted_oc_table,
)
from repro.dataset.relation import Relation


@pytest.fixture
def employee_table() -> Relation:
    """Table 1 of the paper (9 tuples, 7 attributes)."""
    return employee_salary_table()


@pytest.fixture
def tiny_table() -> Relation:
    """A 4-row numeric table with obvious dependencies."""
    return tiny_numeric_table()


@pytest.fixture
def flight_small():
    """A small flight-like workload (300 rows, 8 attributes)."""
    return generate_flight_like(300, num_attributes=8, error_rate=0.1, seed=3)


@pytest.fixture
def ncvoter_small():
    """A small ncvoter-like workload (300 rows, 8 attributes)."""
    return generate_ncvoter_like(300, num_attributes=8, error_rate=0.1, seed=3)


@pytest.fixture
def planted_workload():
    """A 200-row table with one planted AOC of factor 0.1."""
    return generate_planted_oc_table(200, approximation_factor=0.1, seed=11)


class PlaneThreads:
    """The OC plane thread count of every run (0 = counted inline)."""

    #: Usable cores the ``plane_threads`` fixture pretends to have.
    CORES = 8

    def __init__(self) -> None:
        self.seen = []

    @classmethod
    def expected(cls, backend, request, num_workers) -> int:
        """The thread count a cold run of ``request`` uses."""
        from repro.backend import resolve_backend

        if request.validator == "iterative" \
                or resolve_backend(backend).oc_kernel_name != "native":
            return 0
        threads = cls.CORES
        if num_workers > 1:
            threads = min(threads, num_workers)
        return threads if threads > 1 else 0


@pytest.fixture
def plane_threads(monkeypatch):
    """Pin the usable cores to :attr:`PlaneThreads.CORES` and record the
    plane thread count of every run, so worker-count tests exercise real
    thread counts on any host."""
    import os

    from repro.discovery.engine import DiscoveryEngine

    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(PlaneThreads.CORES)),
                        raising=False)
    real = DiscoveryEngine._oc_threads
    record = PlaneThreads()

    def spy(self):
        threads = real(self)
        record.seen.append(threads)
        return threads

    monkeypatch.setattr(DiscoveryEngine, "_oc_threads", spy)
    return record
