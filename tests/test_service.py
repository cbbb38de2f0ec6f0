"""Smoke tests for the ``repro serve`` HTTP mode over loopback requests."""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.backend import resolve_backend
from repro.dataset.examples import employee_salary_table
from repro.discovery.api import discover_aods
from repro.discovery.config import DiscoveryRequest
from repro.discovery.results import DiscoveryResult
from repro.serve import ProfilerService, ServiceError, make_server


@pytest.fixture(scope="module")
def server_url():
    service = ProfilerService()
    service.add_dataset("demo", employee_salary_table())
    server = make_server(service, host="127.0.0.1", port=0)
    port = server.server_address[1]
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{port}"
    server.shutdown()
    server.server_close()
    service.close()
    thread.join(timeout=5)


def _get(url):
    with urllib.request.urlopen(url, timeout=10) as response:
        return response.status, json.loads(response.read())


def _post(url, payload):
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        return response.status, response.read()


class TestEndpoints:
    def test_healthz(self, server_url):
        status, payload = _get(server_url + "/healthz")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["datasets"] == 1
        backend = resolve_backend(None)
        assert payload["backend"] == backend.name
        assert payload["oc_kernel"] == backend.oc_kernel_name
        if backend.name == "numpy":
            from repro.backend import native

            expected = "native" if native.kernels() is not None else "numpy"
            assert payload["oc_kernel"] == expected
        cache = payload["result_cache"]
        assert set(cache) == {"hits", "misses", "entries"}
        assert "planner" not in payload
        assert "resilience" not in payload

    def test_datasets_listing(self, server_url):
        status, payload = _get(server_url + "/datasets")
        assert status == 200
        (dataset,) = payload["datasets"]
        assert dataset["name"] == "demo"
        assert dataset["num_rows"] == 9
        assert "cache" in dataset

    def test_discover_matches_library_api(self, server_url):
        status, body = _post(server_url + "/discover", {
            "dataset": "demo", "request": {"threshold": 0.15},
        })
        assert status == 200
        served = DiscoveryResult.from_json(body.decode("utf-8"))
        reference = discover_aods(employee_salary_table(), threshold=0.15)
        assert served.ocs == reference.ocs
        assert served.ofds == reference.ofds

    def test_dataset_defaulting_with_single_dataset(self, server_url):
        status, body = _post(server_url + "/discover",
                             {"request": {"threshold": 0.15}})
        assert status == 200
        assert json.loads(body)["num_rows"] == 9

    def test_streaming_ndjson(self, server_url):
        request = urllib.request.Request(
            server_url + "/discover",
            data=json.dumps({
                "request": {"threshold": 0.15}, "stream": True,
            }).encode("utf-8"),
        )
        with urllib.request.urlopen(request, timeout=30) as response:
            assert response.headers["Content-Type"] == "application/x-ndjson"
            lines = [json.loads(line) for line in response.read().splitlines()]
        assert lines[0]["event"] == "level_started"
        assert lines[-1]["event"] == "run_completed"
        found = [l for l in lines if l["event"] == "dependency_found"]
        final = lines[-1]["result"]
        assert len(found) == len(final["ocs"]) + len(final["ofds"])

    def test_unknown_dataset_is_404(self, server_url):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(server_url + "/discover",
                  {"dataset": "nope", "request": {}})
        assert excinfo.value.code == 404
        assert "unknown dataset" in json.loads(excinfo.value.read())["error"]

    def test_bad_request_is_400(self, server_url):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(server_url + "/discover",
                  {"dataset": "demo", "request": {"threshold": 5.0}})
        assert excinfo.value.code == 400
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(server_url + "/discover",
                  {"dataset": "demo", "request": {"bogus_field": 1}})
        assert excinfo.value.code == 400
        # json.dumps writes NaN / Infinity as bare literals, which the
        # server's parser accepts; the request boundary must refuse them.
        for name, value in [
            ("time_limit_seconds", -1), ("time_limit_seconds", 0),
            ("time_limit_seconds", float("nan")),
            ("time_limit_seconds", float("inf")),
            ("time_limit_seconds", float("-inf")),
        ]:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _post(server_url + "/discover", {
                    "dataset": "demo",
                    "request": {"threshold": 0.1, name: value},
                })
            assert excinfo.value.code == 400, (name, value)
            assert name in json.loads(excinfo.value.read())["error"]
        # The removed per-job pool deadline is an unknown field now.
        for value in (5.0, None):
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _post(server_url + "/discover", {
                    "dataset": "demo",
                    "request": {"threshold": 0.1, "worker_timeout": value},
                })
            assert excinfo.value.code == 400, value
            error = json.loads(excinfo.value.read())["error"]
            assert "unknown DiscoveryRequest fields" in error, error
            assert "worker_timeout" in error, error
        # Same literals for the HTTP-level deadline: NaN would never fire.
        for value in (-1, 0, float("nan"), float("inf"), float("-inf")):
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _post(server_url + "/discover", {
                    "dataset": "demo", "deadline_seconds": value,
                    "request": {"threshold": 0.1},
                })
            assert excinfo.value.code == 400, value
            error = json.loads(excinfo.value.read())["error"]
            assert "deadline_seconds" in error, value

    @pytest.mark.parametrize(
        "name", ["batch_validation", "pipeline_validation", "plan"]
    )
    def test_removed_schedule_fields_are_400(self, server_url, name):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(server_url + "/discover",
                  {"dataset": "demo", "request": {"threshold": 0.1, name: True}})
        assert excinfo.value.code == 400
        assert name in json.loads(excinfo.value.read())["error"]

    def test_engine_errors_become_400_not_dropped_connections(self, server_url):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(server_url + "/discover", {
                "dataset": "demo",
                "request": {"threshold": 0.1, "attributes": ["nope"]},
            })
        assert excinfo.value.code == 400
        assert "nope" in json.loads(excinfo.value.read())["error"]

    def test_request_num_workers_rejected(self, server_url):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(server_url + "/discover", {
                "dataset": "demo",
                "request": {"threshold": 0.1, "num_workers": 64},
            })
        assert excinfo.value.code == 400
        assert "server-side" in json.loads(excinfo.value.read())["error"]

    def test_poolless_result_replays_cleanly(self):
        """A multi-worker server's results embed its worker count even when
        the run never reports it (iterative validation); replaying that
        request must be accepted."""
        service = ProfilerService(num_workers=2)
        service.add_dataset("demo", employee_salary_table())
        try:
            result = service.discover("demo", DiscoveryRequest(
                threshold=0.15, validator="iterative"
            ))
            assert result.stats.num_workers == 1
            echoed = DiscoveryRequest.from_dict(result.to_dict()["request"])
            assert echoed.num_workers == 2
            replay = service.discover("demo", echoed)
            assert replay.ocs == result.ocs
            with pytest.raises(ServiceError):
                service.discover("demo", DiscoveryRequest(
                    threshold=0.15, num_workers=3
                ))
        finally:
            service.close()

    def test_non_boolean_stream_flag_rejected(self, server_url):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(server_url + "/discover", {
                "dataset": "demo",
                "request": {"threshold": 0.15}, "stream": "false",
            })
        assert excinfo.value.code == 400
        assert "boolean" in json.loads(excinfo.value.read())["error"]

    def test_served_request_replays_cleanly(self, server_url):
        """A request dict copied from a served result must be accepted
        (results embed the server's own num_workers)."""
        _, body = _post(server_url + "/discover",
                        {"dataset": "demo", "request": {"threshold": 0.15}})
        echoed = json.loads(body)["request"]
        assert echoed["num_workers"] is not None
        status, body = _post(server_url + "/discover",
                             {"dataset": "demo", "request": echoed})
        assert status == 200

    def test_unknown_path_is_404(self, server_url):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(server_url + "/nope")
        assert excinfo.value.code == 404


class TestProfilerService:
    def test_duplicate_dataset_rejected(self):
        service = ProfilerService()
        service.add_dataset("t", employee_salary_table())
        with pytest.raises(ValueError, match="already loaded"):
            service.add_dataset("t", employee_salary_table())
        service.close()

    def test_resolution_errors(self):
        service = ProfilerService()
        with pytest.raises(ServiceError) as excinfo:
            service.discover(None, DiscoveryRequest())
        assert excinfo.value.status == 400
        service.add_dataset("a", employee_salary_table())
        service.add_dataset("b", employee_salary_table())
        with pytest.raises(ServiceError) as excinfo:
            service.discover(None, DiscoveryRequest())
        assert excinfo.value.status == 400  # ambiguous without a name
        with pytest.raises(ServiceError) as excinfo:
            service.discover("c", DiscoveryRequest())
        assert excinfo.value.status == 404
        service.close()

    def test_session_bounds_reach_profilers(self):
        service = ProfilerService(max_memo_entries=7, max_cached_partitions=3)
        profiler = service.add_dataset("a", employee_salary_table())
        assert profiler.validation_memo.max_entries == 7
        assert profiler.partitions._cache.max_entries == 3
        result = service.discover("a", DiscoveryRequest(threshold=0.15))
        assert result.num_ocs > 0
        assert len(profiler.validation_memo) <= 7
        service.close()

    def test_warm_across_requests(self):
        service = ProfilerService()
        service.add_dataset("demo", employee_salary_table())
        first = service.discover("demo", DiscoveryRequest(threshold=0.15))
        # An identical request replays the cached result without touching
        # the engine at all.
        second = service.discover("demo", DiscoveryRequest(threshold=0.15))
        assert second is first
        assert service.result_cache_stats()["hits"] == 1
        # A different request misses the result cache but still runs warm:
        # the session memo answers the validations already computed.
        third = service.discover("demo", DiscoveryRequest(threshold=0.10))
        assert first.stats.validation_memo_hits == 0
        assert third.stats.validation_memo_hits > 0
        assert service.result_cache_stats()["misses"] == 2
        service.close()


class TestAppend:
    """Dataset appends: extend + revalidate + result-cache invalidation."""

    def _service(self):
        service = ProfilerService()
        service.add_dataset("demo", employee_salary_table())
        return service

    def test_append_invalidates_result_cache(self):
        service = self._service()
        request = DiscoveryRequest(threshold=0.15)
        first = service.discover("demo", request)
        rows = [list(employee_salary_table().row(0))]
        name, summary, outcome = service.append("demo", rows)
        assert name == "demo" and outcome is None
        assert summary.num_appended == 1
        assert service.result_cache_stats()["entries"] == 0
        again = service.discover("demo", request)
        assert again is not first
        assert again.num_rows == first.num_rows + 1
        service.close()

    def test_append_with_request_revalidates(self):
        service = self._service()
        request = DiscoveryRequest(threshold=0.15)
        service.discover("demo", request)
        rows = [list(employee_salary_table().row(1))]
        _, _, outcome = service.append("demo", rows, request)
        assert outcome is not None
        assert outcome.result.num_rows == 10
        # The fresh result re-seeded the cache.
        assert service.discover("demo", request) is outcome.result
        # Cold equivalence over the concatenated table.
        concatenated = employee_salary_table().concat(
            employee_salary_table().take([1])
        )
        reference = discover_aods(concatenated, threshold=0.15)
        assert outcome.result.ocs == reference.ocs
        assert outcome.result.ofds == reference.ofds
        service.close()

    def test_append_unknown_dataset(self):
        service = self._service()
        with pytest.raises(ServiceError) as excinfo:
            service.append("nope", [[1]])
        assert excinfo.value.status == 404
        service.close()


class TestAppendEndpoint:
    """HTTP surface of ``POST /datasets/<name>/append`` (own server: the
    shared module fixture must stay append-free for the other tests)."""

    @pytest.fixture()
    def fresh_server(self):
        service = ProfilerService()
        service.add_dataset("demo", employee_salary_table())
        server = make_server(service, host="127.0.0.1", port=0)
        port = server.server_address[1]
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        yield f"http://127.0.0.1:{port}"
        server.shutdown()
        server.server_close()
        service.close()
        thread.join(timeout=5)

    def test_append_roundtrip(self, fresh_server):
        row = list(employee_salary_table().row(0))
        status, body = _post(fresh_server + "/datasets/demo/append", {
            "rows": [row], "request": {"threshold": 0.15},
        })
        assert status == 200
        payload = json.loads(body)
        assert payload["dataset"] == "demo"
        assert payload["delta"]["num_appended"] == 1
        assert payload["delta"]["new_num_rows"] == 10
        assert "plan" in payload and "revoked_ocs" in payload
        result = DiscoveryResult.from_dict(payload["result"])
        assert result.num_rows == 10
        status, health = _get(fresh_server + "/healthz")
        assert health["result_cache"]["entries"] == 1

    def test_append_without_request(self, fresh_server):
        row = list(employee_salary_table().row(2))
        status, body = _post(fresh_server + "/datasets/demo/append", {
            "rows": [row],
        })
        assert status == 200
        payload = json.loads(body)
        assert payload["delta"]["num_appended"] == 1
        assert "result" not in payload

    def test_append_bad_body(self, fresh_server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(fresh_server + "/datasets/demo/append", {"rows": "nope"})
        assert excinfo.value.code == 400

    def test_append_malformed_row_shapes_are_400(self, fresh_server):
        # Non-iterable, bare-string and wrong-arity rows must all answer
        # with JSON 400s, never a dropped connection.
        for rows in ([5], ["abcdefg"], [[1, 2]]):
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _post(fresh_server + "/datasets/demo/append", {"rows": rows})
            assert excinfo.value.code == 400, rows
            assert "error" in json.loads(excinfo.value.read())

    def test_append_unknown_dataset_http(self, fresh_server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(fresh_server + "/datasets/missing/append", {"rows": []})
        assert excinfo.value.code == 404
