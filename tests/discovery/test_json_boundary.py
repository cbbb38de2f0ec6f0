"""Tests for the typed JSON service boundary:
``DiscoveryRequest`` ⇄ ``DiscoveryConfig`` and
``DiscoveryResult.to_json()`` / ``from_json()``."""

import json

import pytest

from repro.dataset.examples import employee_salary_table
from repro.discovery.config import DiscoveryRequest
from repro.discovery.results import DiscoveredOC, DiscoveredOFD, DiscoveryResult
from repro.discovery.session import Profiler
from repro.discovery.stats import DiscoveryStatistics


class TestDiscoveryRequest:
    def test_defaults_mirror_config(self):
        request = DiscoveryRequest()
        config = request.to_config()
        assert config.threshold == 0.0
        assert config.validator == "optimal"
        assert config.num_workers == 1

    def test_round_trip_through_config(self):
        request = DiscoveryRequest(
            threshold=0.2, validator="iterative", attributes=["a", "b"],
            max_level=3, time_limit_seconds=1.5, find_ofds=False,
            num_workers=2,
        )
        config = request.to_config()
        assert DiscoveryRequest.from_config(config) == request

    def test_json_round_trip(self):
        request = DiscoveryRequest(threshold=0.1, attributes=["x", "y"],
                                   max_level=4)
        assert DiscoveryRequest.from_json(request.to_json()) == request

    def test_json_is_plain(self):
        payload = json.loads(DiscoveryRequest(threshold=0.15).to_json())
        assert payload["threshold"] == 0.15
        assert payload["validator"] == "optimal"

    def test_session_parameters_fill_in(self):
        request = DiscoveryRequest(threshold=0.1)
        config = request.to_config(backend="python", num_workers=3)
        assert config.num_workers == 3
        assert config.backend == "python"
        pinned = DiscoveryRequest(threshold=0.1, num_workers=2)
        assert pinned.to_config(num_workers=3).num_workers == 2

    def test_invalid_requests_rejected_at_the_boundary(self):
        with pytest.raises(ValueError):
            DiscoveryRequest(threshold=1.5)
        with pytest.raises(ValueError):
            DiscoveryRequest(validator="magic")
        with pytest.raises(ValueError):
            DiscoveryRequest(threshold=0.1, validator="exact")
        with pytest.raises(ValueError):
            DiscoveryRequest(num_workers=0)
        # json.loads accepts bare NaN / Infinity: a NaN deadline would never
        # fire and a negative one fires at once.
        for name, value in [
            ("time_limit_seconds", -1), ("time_limit_seconds", 0),
            ("time_limit_seconds", float("nan")),
            ("time_limit_seconds", float("inf")),
            ("time_limit_seconds", float("-inf")),
        ]:
            with pytest.raises(ValueError, match=name):
                DiscoveryRequest.from_json(
                    json.dumps({"threshold": 0.1, name: value})
                )
        # The process pool's per-job deadline is gone: any value of it is
        # an unknown field.
        for value in (5.0, None, float("nan")):
            with pytest.raises(ValueError,
                               match="unknown DiscoveryRequest fields.*"
                                     "worker_timeout"):
                DiscoveryRequest.from_json(
                    json.dumps({"threshold": 0.1, "worker_timeout": value})
                )

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            DiscoveryRequest.from_dict({"threshold": 0.1, "treshold": 0.2})

    @pytest.mark.parametrize(
        "name", ["batch_validation", "pipeline_validation", "plan"]
    )
    def test_removed_schedule_fields_are_unknown(self, name):
        with pytest.raises(ValueError, match=f"unknown.*{name}"):
            DiscoveryRequest.from_dict({"threshold": 0.1, name: True})

    def test_wrongly_typed_values_rejected(self):
        """JSON string booleans must not silently flip run semantics."""
        with pytest.raises(ValueError, match="find_ofds"):
            DiscoveryRequest.from_dict({"find_ofds": "false"})
        with pytest.raises(ValueError, match="prune_exhausted_nodes"):
            DiscoveryRequest.from_dict({"prune_exhausted_nodes": "no"})
        with pytest.raises(ValueError, match="threshold"):
            DiscoveryRequest.from_dict({"threshold": "0.1"})
        with pytest.raises(ValueError, match="max_level"):
            DiscoveryRequest.from_dict({"max_level": "3"})
        with pytest.raises(ValueError, match="num_workers"):
            DiscoveryRequest.from_dict({"num_workers": True})
        with pytest.raises(ValueError, match="attributes"):
            DiscoveryRequest.from_dict({"attributes": [1, 2]})
        with pytest.raises(ValueError, match="single string"):
            DiscoveryRequest.from_dict({"attributes": "ab"})

    def test_explicit_workers_without_batching_rejected_by_wrappers(self):
        """The wrappers take no schedule switch."""
        from repro.discovery.api import discover_aods

        with pytest.raises(TypeError, match="batch_validation"):
            discover_aods(employee_salary_table(), num_workers=4,
                          batch_validation=False)

    def test_non_object_json_rejected(self):
        with pytest.raises(ValueError, match="object"):
            DiscoveryRequest.from_json("[1, 2]")

    def test_factories(self):
        assert DiscoveryRequest.exact().validator == "exact"
        approx = DiscoveryRequest.approximate(0.2)
        assert approx.threshold == 0.2 and approx.validator == "optimal"


class TestDiscoveryResultJson:
    @pytest.fixture()
    def result(self):
        with Profiler(employee_salary_table()) as session:
            return session.discover(DiscoveryRequest(threshold=0.15))

    def test_round_trip_dependencies(self, result):
        restored = DiscoveryResult.from_json(result.to_json())
        assert restored.ocs == result.ocs
        assert restored.ofds == result.ofds
        assert restored.num_rows == result.num_rows
        assert restored.attributes == result.attributes

    def test_round_trip_stats_counters(self, result):
        restored = DiscoveryResult.from_json(result.to_json())
        assert restored.stats.as_dict() == result.stats.as_dict()
        # nodes_per_level keys survive the str-keyed JSON object
        assert restored.stats.nodes_per_level == result.stats.nodes_per_level
        assert all(
            isinstance(level, int)
            for level in restored.stats.nodes_per_level
        )

    def test_round_trip_request(self, result):
        restored = DiscoveryResult.from_json(result.to_json())
        assert restored.config.threshold == result.config.threshold
        assert restored.config.validator == result.config.validator
        assert restored.config.num_workers == result.config.num_workers
        # Live objects don't cross the boundary; the backend travels by name.
        assert restored.stats.backend == result.stats.backend

    def test_json_payload_shape(self, result):
        payload = json.loads(result.to_json())
        assert set(payload) == {
            "request", "num_rows", "attributes", "ocs", "ofds", "stats"
        }
        assert payload["ocs"][0].keys() >= {
            "context", "a", "b", "removal_size", "level"
        }

    def test_derived_analytics_survive(self, result):
        restored = DiscoveryResult.from_json(result.to_json())
        assert restored.ocs_per_level() == result.ocs_per_level()
        assert restored.ranked_ocs(5) == result.ranked_ocs(5)
        assert restored.summary() == result.summary()

    def test_partial_result_round_trips(self):
        with Profiler(employee_salary_table()) as session:
            partial = session.discover(DiscoveryRequest(
                threshold=0.15, time_limit_seconds=1e-9
            ))
        restored = DiscoveryResult.from_json(partial.to_json())
        assert restored.timed_out
        assert restored.completed_levels == partial.completed_levels


class TestDependencyDicts:
    def test_discovered_oc_round_trip(self):
        with Profiler(employee_salary_table()) as session:
            result = session.discover(DiscoveryRequest(threshold=0.15))
        for found in result.ocs:
            assert DiscoveredOC.from_dict(found.to_dict()) == found
        for found in result.ofds:
            assert DiscoveredOFD.from_dict(found.to_dict()) == found


class TestStatisticsDict:
    def test_from_dict_ignores_derived_keys(self):
        stats = DiscoveryStatistics(oc_candidates_validated=5,
                                    nodes_per_level={1: 4, 2: 6})
        restored = DiscoveryStatistics.from_dict(
            json.loads(json.dumps(stats.as_dict()))
        )
        assert restored == stats
