"""Serve-layer metrics: ``GET /metrics`` and the ``/healthz`` section.

Drives a live ``ThreadingHTTPServer`` (port 0) with a two-worker service
and asserts the Prometheus exposition carries the engine, queue-wait and
cache families, and no process-pool family.
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
        "repro_serve_admitted_total",
        "repro_serve_rejected_429_total",
        "repro_serve_queue_wait_seconds_bucket",
    ):
        assert family in text, family
    assert "repro_pool_" not in text

    lines = text.splitlines()
    assert "repro_engine_runs_total 1" in lines
    assert "repro_result_cache_misses_total 1" in lines
    assert "repro_result_cache_hits_total 1" in lines
    assert "repro_engine_levels_total" in text
    # Scrape-time gauges reflect current service state.
    assert "repro_datasets 1" in lines
    assert "repro_result_cache_entries 1" in lines


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
