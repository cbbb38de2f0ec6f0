"""Fixtures shared by the discovery scheduler tests."""

import pytest

from repro.discovery.config import DiscoveryConfig
from repro.discovery.engine import DiscoveryEngine


class PerCandidateEngine(DiscoveryEngine):
    """Reference schedule: validates and records one candidate at a time.

    The engine validates a level context group by context group; this
    subclass walks the level node by node instead and sends every candidate
    through the kernels as a batch of one, recording it before the next is
    validated.  Within a level no outcome can change another candidate's
    pruning, so both schedules must report byte-identical results.
    """

    def _process_level(self, nodes):
        for node in nodes:
            self._check_interrupt()
            ofd_jobs, oc_jobs = self._collect_node_jobs(node)
            for job in ofd_jobs:
                outcome = [None]
                self._validate_level([job], outcome, [], [])
                self._record_ofd_outcome(*job, outcome[0])
            for job in oc_jobs:
                outcome = [None]
                self._validate_level([], [], [job], outcome)
                self._record_oc_outcome(*job, outcome[0])
            self.stats.nodes_processed += 1


@pytest.fixture
def per_candidate():
    """``per_candidate(relation, config)`` runs the reference schedule."""

    def run(relation, config: DiscoveryConfig):
        return PerCandidateEngine(relation, config).run()

    return run
