"""Tests for the typed JSON service boundary: ``DiscoveryRequest``, the
one description of a run, and ``DiscoveryResult.to_json()`` /
``from_json()``."""

import json

import pytest

from repro.dataset.examples import employee_salary_table
from repro.discovery.api import discover
from repro.discovery.config import DiscoveryRequest
from repro.discovery.engine import DiscoveryEngine
from repro.discovery.results import DiscoveredOC, DiscoveredOFD, DiscoveryResult
from repro.discovery.session import Profiler
from repro.discovery.stats import DiscoveryStatistics


class TestDiscoveryRequest:
    def test_defaults_mirror_config(self):
        """An engine given no request runs the default request, with the
        default thread cap."""
        request = DiscoveryRequest()
        assert request.threshold == 0.0
        assert request.validator == "optimal"
        engine = DiscoveryEngine(employee_salary_table())
        assert engine.request == request
        assert engine.num_workers == 1

    def test_round_trip_through_config(self):
        """A run's result carries its request unchanged, also across the
        JSON boundary."""
        request = DiscoveryRequest(
            threshold=0.2, validator="iterative", attributes=["sal", "tax"],
            max_level=3, time_limit_seconds=60.0, find_ofds=False,
        )
        result = discover(employee_salary_table(), request)
        assert result.request == request
        assert DiscoveryResult.from_dict(result.to_dict()).request == request

    def test_json_round_trip(self):
        request = DiscoveryRequest(threshold=0.1, attributes=["x", "y"],
                                   max_level=4)
        assert DiscoveryRequest.from_json(request.to_json()) == request

    def test_json_is_plain(self):
        payload = json.loads(DiscoveryRequest(threshold=0.15).to_json())
        assert payload["threshold"] == 0.15
        assert payload["validator"] == "optimal"

    def test_session_parameters_fill_in(self):
        """The session hands its backend and thread cap to the engine; the
        request stays as it was."""
        request = DiscoveryRequest(threshold=0.1)
        with Profiler(employee_salary_table(), backend="python",
                      num_workers=3) as session:
            result = session.discover(request)
        assert result.request is request
        assert result.stats.num_workers == 3
        assert result.stats.backend == "python"

    def test_thread_cap_is_not_a_request_field(self):
        """The session owns the thread cap: a request naming one is refused
        like any unknown field, whatever its value."""
        for value in (1, 2, None, True):
            with pytest.raises(ValueError,
                               match="unknown DiscoveryRequest fields.*"
                                     "num_workers"):
                DiscoveryRequest.from_dict(
                    {"threshold": 0.1, "num_workers": value}
                )
        with pytest.raises(TypeError, match="num_workers"):
            DiscoveryRequest(num_workers=2)

    def test_invalid_requests_rejected_at_the_boundary(self):
        with pytest.raises(ValueError):
            DiscoveryRequest(threshold=1.5)
        with pytest.raises(ValueError):
            DiscoveryRequest(validator="magic")
        with pytest.raises(ValueError):
            DiscoveryRequest(threshold=0.1, validator="exact")
        with pytest.raises(ValueError):
            DiscoveryRequest(max_level=0)
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
        assert restored.request == result.request
        # Live objects don't cross the boundary: the backend travels by
        # name and the thread cap as a count, both in the stats.
        assert restored.stats.backend == result.stats.backend
        assert restored.stats.num_workers == result.stats.num_workers

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

    @pytest.mark.parametrize(
        "kind", ["exact", "optimal", "iterative", "session"]
    )
    def test_every_kind_of_result_round_trips(self, kind):
        """``from_dict`` rebuilds a result whose dict form and request are
        the original's, for one-shot runs of each validator and for a warm
        session run."""
        relation = employee_salary_table()
        if kind == "session":
            request = DiscoveryRequest(threshold=0.15, max_level=3)
            with Profiler(relation, num_workers=2) as session:
                session.discover(DiscoveryRequest(threshold=0.2))
                result = session.discover(request)
            assert result.stats.validation_memo_hits > 0
        else:
            request = {
                "exact": DiscoveryRequest.exact(),
                "optimal": DiscoveryRequest.approximate(
                    0.1, attributes=["pos", "exp", "sal", "taxGrp"]),
                "iterative": DiscoveryRequest.approximate(
                    0.1, validator="iterative", find_ofds=False),
            }[kind]
            result = discover(relation, request, num_workers=2)
        assert result.request is request
        restored = DiscoveryResult.from_dict(result.to_dict())
        assert restored.to_dict() == result.to_dict()
        assert restored.request == result.request
        assert DiscoveryResult.from_json(result.to_json()).to_json() \
            == result.to_json()


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
