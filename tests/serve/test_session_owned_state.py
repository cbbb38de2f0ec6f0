"""The server owns no discovery state: the thread cap and the completed
results are each dataset session's.

* ``repro serve --workers N`` is the plane's one thread cap: a request
  cannot carry its own, and a served cold run never counts on more than N
  plane threads, however many cores the host has.
* The result cache is the session's store of completed results
  (``Profiler.completed_result``): a completed stream seeds it, and an
  evicted dataset's entries leave ``/healthz``.  What an append does to
  it is pinned by ``TestAppend`` in ``tests/test_service.py``.
"""

from repro.dataset.examples import employee_salary_table
from repro.discovery.config import DiscoveryRequest
from repro.discovery.events import RunCompleted
from repro.serve import ProfilerService

from _serve_helpers import http_get, http_post, running_server

REQUEST = DiscoveryRequest(threshold=0.15)
OTHER = DiscoveryRequest(threshold=0.1)


def _service(*names, **kwargs):
    service = ProfilerService(**kwargs)
    for name in names:
        service.add_dataset(name, employee_salary_table())
    return service


def test_thread_cap_is_the_servers(plane_threads):
    """On an 8-core host a ``--workers 2`` server refuses a request that
    names ``num_workers`` (even 1, which used to lift the cap to every
    core) and runs a served cold discovery on at most 2 plane threads."""
    service = _service("demo", num_workers=2)
    with running_server(service) as (url, _):
        for value in (1, 2, 8):
            status, _, payload = http_post(url + "/discover", {
                "dataset": "demo",
                "request": {"threshold": 0.15, "num_workers": value},
            })
            assert status == 400, value
            assert "num_workers" in payload["error"]
        assert plane_threads.seen == []
        status, _, payload = http_post(url + "/discover", {
            "dataset": "demo", "request": REQUEST.to_dict(),
        })
        assert status == 200
    config = REQUEST.to_config(num_workers=2)
    assert plane_threads.seen == [plane_threads.expected(None, config)]
    assert plane_threads.seen[0] <= 2
    assert payload["stats"]["num_workers"] == 2


def test_completed_stream_seeds_the_cache():
    service = _service("demo")
    try:
        events = list(service.iter_events("demo", REQUEST))
        assert isinstance(events[-1], RunCompleted)
        assert service.result_cache_stats() == {
            "hits": 0, "misses": 0, "entries": 1,
        }
        assert service.discover("demo", REQUEST) is events[-1].result
        assert service.result_cache_stats()["hits"] == 1
    finally:
        service.close()


def test_evicted_dataset_leaves_healthz():
    service = _service("a", "b")
    with running_server(service) as (url, _):
        for name in ("a", "b"):
            for request in (REQUEST, OTHER):
                status, _, _ = http_post(url + "/discover", {
                    "dataset": name, "request": request.to_dict(),
                })
                assert status == 200
        _, _, health = http_get(url + "/healthz")
        assert health["result_cache"]["entries"] == 4
        service.evict_dataset("a")
        _, _, health = http_get(url + "/healthz")
        assert health["result_cache"] == {
            "hits": 0, "misses": 4, "entries": 2,
        }
