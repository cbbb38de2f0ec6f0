"""Serve-layer metrics: ``GET /metrics`` and the ``/healthz`` section.

Drives a live ``ThreadingHTTPServer`` (port 0) with a pooled service and
asserts the Prometheus exposition carries the engine, pool-resilience,
queue-wait, and cache families.
"""

import json
import threading
import urllib.request

import pytest

from repro.dataset.examples import employee_salary_table
from repro.serve import ProfilerService, make_server


@pytest.fixture()
def server():
    service = ProfilerService(num_workers=2)
    service.add_dataset("demo", employee_salary_table())
    httpd = make_server(service, port=0)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{httpd.server_address[1]}", service
    finally:
        httpd.shutdown()
        httpd.server_close()
        service.close()
        thread.join(timeout=10)


def _get(url):
    with urllib.request.urlopen(url, timeout=30) as response:
        return response.read().decode("utf-8"), dict(response.headers)


def _discover(base):
    body = json.dumps({"request": {"threshold": 0.1}}).encode("utf-8")
    request = urllib.request.Request(
        f"{base}/discover", data=body,
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=120) as response:
        return json.load(response)


def test_metrics_exposition_after_pooled_discovery(server):
    base, _service = server
    first = _discover(base)
    assert first["ocs"]
    _discover(base)  # second call hits the result cache

    text, headers = _get(f"{base}/metrics")
    assert headers["Content-Type"].startswith("text/plain")

    # Full schema before traffic would have reached these paths: the
    # standard families are pre-registered at enable time.
    for family in (
        "repro_pool_worker_deaths_total",
        "repro_pool_respawns_total",
        "repro_pool_requeued_shards_total",
        "repro_pool_queue_wait_seconds_bucket",
    ):
        assert family in text, family

    lines = text.splitlines()
    assert "repro_engine_runs_total 1" in lines
    assert "repro_result_cache_misses_total 1" in lines
    assert "repro_result_cache_hits_total 1" in lines
    assert "repro_engine_levels_total" in text
    # Scrape-time gauges reflect current service state.
    assert "repro_datasets 1" in lines
    assert "repro_result_cache_entries 1" in lines
    assert "repro_pool_degraded 0" in lines


def test_healthz_carries_the_metrics_section(server):
    base, _service = server
    _discover(base)
    body, _ = _get(f"{base}/healthz")
    payload = json.loads(body)
    assert payload["status"] == "ok"
    metrics = payload["metrics"]
    assert metrics["repro_engine_runs_total"] == 1
    assert metrics["repro_datasets"] == 1
    # Histograms collapse to {count, sum} in the healthz view.
    level = metrics["repro_level_seconds"]
    assert set(level) == {"count", "sum"}
    assert level["count"] >= 1


def test_pool_counters_land_in_metrics_when_shards_dispatch(server):
    """Force the tiny demo workload through the worker pool so the pool
    job/group counters (and queue-wait observations) actually move."""
    base, service = server
    pool = service._pool
    assert pool is not None
    pool.INLINE_GROUP_COST = 0
    pool.MIN_SHARD_COST = 1
    _discover(base)
    text, _ = _get(f"{base}/metrics")
    values = {}
    for line in text.splitlines():
        if line and not line.startswith("#"):
            name, _, value = line.rpartition(" ")
            values[name] = float(value)
    assert values["repro_pool_groups_total"] >= 1
    assert values["repro_pool_jobs_total"] >= 1
    assert values["repro_pool_round_trip_seconds_count"] >= 1
    assert values["repro_pool_queue_wait_seconds_count"] >= 1
