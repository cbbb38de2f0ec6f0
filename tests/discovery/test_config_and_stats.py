"""Tests for the run description (DiscoveryRequest plus the engine's
backend and thread cap), DiscoveryStatistics and the phase timers."""

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.backend.numpy_backend import NumpyBackend
from repro.dataset.examples import employee_salary_table
from repro.discovery.config import DiscoveryRequest
from repro.discovery.engine import DiscoveryEngine
from repro.discovery.stats import DiscoveryStatistics, PhaseTimer


class TestDiscoveryConfig:
    """The checks a run description makes when it is built: the request
    checks its own fields, the engine its backend and thread cap."""

    def test_defaults(self):
        request = DiscoveryRequest()
        assert request.threshold == 0.0
        assert request.validator == "optimal"
        assert request.is_exact

    def test_exact_factory(self):
        request = DiscoveryRequest.exact()
        assert request.is_exact
        assert request.validator == "exact"

    def test_approximate_factory(self):
        request = DiscoveryRequest.approximate(threshold=0.2,
                                               validator="iterative")
        assert request.threshold == 0.2
        assert request.validator == "iterative"
        assert not request.is_exact

    def test_invalid_threshold(self):
        for bad in (1.5, -0.1, float("nan")):
            with pytest.raises(ValueError):
                DiscoveryRequest(threshold=bad)

    def test_invalid_validator(self):
        with pytest.raises(ValueError):
            DiscoveryRequest(validator="magic")

    def test_exact_validator_with_threshold_rejected(self):
        with pytest.raises(ValueError):
            DiscoveryRequest(threshold=0.1, validator="exact")

    def test_invalid_max_level(self):
        with pytest.raises(ValueError):
            DiscoveryRequest(max_level=0)

    def test_duplicate_attributes_rejected(self):
        with pytest.raises(ValueError, match="repeat"):
            DiscoveryRequest(attributes=["pos", "pos"])
        with pytest.raises(ValueError, match="repeat"):
            DiscoveryRequest.from_dict({"attributes": ["sal", "pos", "sal"]})

    def test_backend_is_a_name_or_an_instance(self):
        relation = employee_salary_table()
        for name in ("auto", "python", "numpy"):
            engine = DiscoveryEngine(relation, backend=name)
            assert engine.backend.name == ("numpy" if name == "auto" else name)
        backend = NumpyBackend()
        assert DiscoveryEngine(relation, backend=backend).backend is backend
        for bad in ("cuda", "NumPy", object(), 1):
            with pytest.raises(ValueError):
                DiscoveryEngine(relation, backend=bad)

    def test_building_configs_leaves_numpy_unloaded(self):
        """``import repro`` and building and serialising requests never
        import NumPy: it loads on first backend use, so a process pays for
        it only once it computes."""
        script = (
            "import sys, repro\n"
            "repro.DiscoveryRequest.exact(max_level=2)\n"
            "request = repro.DiscoveryRequest(threshold=0.1, attributes=['a'])\n"
            "repro.DiscoveryRequest.from_json(request.to_json())\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))\n"
        )
        src = Path(__file__).resolve().parents[2] / "src"
        completed = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=str(src)), check=True,
        )
        assert completed.stdout.strip() == "[]"


class TestStatistics:
    def test_validation_share(self):
        stats = DiscoveryStatistics(
            total_seconds=10.0,
            oc_validation_seconds=6.0,
            ofd_validation_seconds=2.0,
        )
        assert stats.validation_seconds == 8.0
        assert stats.validation_share == 0.8

    def test_validation_share_with_zero_total(self):
        assert DiscoveryStatistics().validation_share == 0.0

    def test_validation_share_capped_at_one(self):
        stats = DiscoveryStatistics(total_seconds=1.0, oc_validation_seconds=2.0)
        assert stats.validation_share == 1.0

    def test_as_dict_round_trip(self):
        stats = DiscoveryStatistics(oc_candidates_validated=5, nodes_processed=3)
        flattened = stats.as_dict()
        assert flattened["oc_candidates_validated"] == 5
        assert flattened["nodes_processed"] == 3
        assert "validation_share" in flattened

    def test_phase_timer_accumulates(self):
        stats = DiscoveryStatistics()
        with PhaseTimer(stats, "oc_validation_seconds"):
            time.sleep(0.01)
        with PhaseTimer(stats, "oc_validation_seconds"):
            time.sleep(0.01)
        assert stats.oc_validation_seconds >= 0.02

    def test_level_timing_round_trips_the_json_boundary(self):
        stats = DiscoveryStatistics(
            level_seconds={2: 0.5, 3: 0.25},
            level_phase_seconds={
                2: {"oc": 0.3, "ofd": 0.1, "partition": 0.05},
            },
        )
        flattened = stats.as_dict()
        assert flattened["level_seconds"] == {2: 0.5, 3: 0.25}
        # JSON object keys are strings; from_dict restores the int levels.
        rehydrated = DiscoveryStatistics.from_dict(
            {
                **flattened,
                "level_seconds": {"2": 0.5, "3": 0.25},
                "level_phase_seconds": {
                    "2": {"oc": 0.3, "ofd": 0.1, "partition": 0.05},
                },
            }
        )
        assert rehydrated.level_seconds == {2: 0.5, 3: 0.25}
        assert rehydrated.level_phase_seconds[2]["ofd"] == 0.1

    def test_engine_records_per_level_timing(self):
        from repro.dataset.examples import employee_salary_table
        from repro.discovery.api import discover_aods

        result = discover_aods(employee_salary_table(), threshold=0.1)
        stats = result.stats
        assert stats.levels_processed > 0
        assert set(stats.level_seconds) == set(stats.level_phase_seconds)
        assert len(stats.level_seconds) == stats.levels_processed
        for level, seconds in stats.level_seconds.items():
            assert seconds >= 0.0
            split = stats.level_phase_seconds[level]
            assert set(split) == {"oc", "ofd", "partition"}
            assert all(value >= 0.0 for value in split.values())

    def test_level_completed_event_carries_the_timing_split(self):
        from repro.discovery.events import LevelCompleted

        event = LevelCompleted(
            level=2, num_nodes=4, num_ocs=1, num_ofds=2,
            seconds=0.5, oc_seconds=0.3, ofd_seconds=0.1,
            partition_seconds=0.05,
        )
        payload = event.to_dict()
        assert payload["event"] == "level_completed"
        assert payload["seconds"] == 0.5
        assert payload["oc_seconds"] == 0.3
        assert payload["ofd_seconds"] == 0.1
        assert payload["partition_seconds"] == 0.05
