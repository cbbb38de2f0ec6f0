"""HTTP chaos suite: overload, disconnects, injected faults, shutdown.

Asserts the resilience contract end to end against a real server:

* under overload the server answers honest 429/503 (with ``Retry-After``)
  and never deadlocks or corrupts results — successful responses stay
  byte-identical to a serial reference;
* a client that disconnects mid-stream cancels the engine run (observable
  via the disconnect-cancellation counter) instead of burning CPU;
* injected response faults (stall, drop, TCP reset, kill-mid-stream)
  never take the server down for subsequent clients;
* graceful shutdown drains in-flight work within the grace period and
  leaves no child process behind (discovery starts none; its OC plane
  runs on threads).
"""

import json
import multiprocessing
import socket
import threading
import time
import urllib.request

import pytest

from repro.dataset.partition import PartitionCache
from repro.discovery.config import DiscoveryRequest
from repro.discovery.session import Profiler
from repro.serve import ProfilerService

from _chaos import HttpFaultInjector
from _serve_helpers import (
    canonical_result,
    http_get,
    http_post,
    running_server,
    wait_until,
)

SLOW_REQUEST = {"threshold": 0.1}


def _barrier_post(url, payloads, timeout=60):
    """POST all payloads concurrently (barrier start); returns the
    (status, headers, payload) triple per request, in input order."""
    barrier = threading.Barrier(len(payloads))
    results = [None] * len(payloads)

    def worker(index, body):
        barrier.wait(timeout=10)
        results[index] = http_post(url + "/discover", body, timeout=timeout)

    threads = [
        threading.Thread(target=worker, args=(index, body), daemon=True)
        for index, body in enumerate(payloads)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=timeout + 30)
    assert all(result is not None for result in results), "a request hung"
    return results


class TestOverload:
    def test_queue_overflow_answers_429_and_results_stay_identical(
        self, slow_relation
    ):
        reference = Profiler(slow_relation)
        try:
            expected = canonical_result(
                reference.discover(
                    DiscoveryRequest(**SLOW_REQUEST)
                ).to_dict()
            )
        finally:
            reference.close()

        service = ProfilerService(queue_depth=1, max_inflight=32)
        service.add_dataset("slow", slow_relation)
        with running_server(service) as (url, _):
            body = {"dataset": "slow", "request": SLOW_REQUEST}
            results = _barrier_post(url, [body] * 6)
            statuses = sorted(status for status, _, _ in results)
            assert statuses.count(200) >= 2  # executor + queued replay
            assert 429 in statuses
            assert all(status in (200, 429) for status in statuses)
            successes = [
                payload for status, _, payload in results if status == 200
            ]
            # Byte-identical among themselves (cache replays the same
            # result object) and to the serial reference modulo stats.
            assert all(
                json.dumps(p, sort_keys=True)
                == json.dumps(successes[0], sort_keys=True)
                for p in successes
            )
            assert canonical_result(successes[0]) == expected
            for status, headers, payload in results:
                if status == 429:
                    assert int(headers["Retry-After"]) >= 1
                    assert payload["retry_after"] >= 1
                    assert "queue" in payload["error"]
            # The server is still healthy and serving.
            status, _, health = http_get(url + "/healthz")
            assert status == 200 and health["status"] == "ok"
            assert health["admission"]["rejected_queue_full"] >= 1
            assert health["admission"]["inflight"] == 0

    def test_saturation_answers_503_with_retry_after(self, slow_relation):
        service = ProfilerService(queue_depth=8, max_inflight=2)
        service.add_dataset("slow", slow_relation)
        with running_server(service) as (url, _):
            body = {"dataset": "slow", "request": SLOW_REQUEST}
            results = _barrier_post(url, [body] * 6)
            statuses = [status for status, _, _ in results]
            assert statuses.count(503) >= 3
            assert statuses.count(200) >= 1
            for status, headers, payload in results:
                if status == 503:
                    assert int(headers["Retry-After"]) >= 1
                    assert "saturated" in payload["error"]
            _, _, health = http_get(url + "/healthz")
            assert health["admission"]["rejected_saturated"] >= 3
            assert health["admission"]["inflight"] == 0


class TestDisconnects:
    def test_mid_stream_disconnect_cancels_engine_run(self, slow_relation):
        service = ProfilerService()
        service.add_dataset("slow", slow_relation)
        with running_server(service) as (url, _):
            host, port = url.replace("http://", "").split(":")
            body = json.dumps({
                "dataset": "slow", "request": SLOW_REQUEST, "stream": True,
            }).encode()
            with socket.create_connection((host, int(port)), timeout=30) as s:
                s.sendall(
                    b"POST /discover HTTP/1.0\r\n"
                    b"Content-Type: application/json\r\n"
                    + f"Content-Length: {len(body)}\r\n\r\n".encode()
                    + body
                )
                s.settimeout(30)
                first = s.recv(256)  # headers (and maybe the first event)
                assert b"200" in first
            # Socket closed mid-run: the watchdog must cancel the engine.
            assert wait_until(
                lambda: service.lifecycle_stats()["disconnect_cancellations"]
                >= 1,
                timeout=10,
            )
            # The admission slot is released well before the run would
            # have finished on its own.
            assert wait_until(
                lambda: service.admission.snapshot()["inflight"] == 0,
                timeout=10,
            )
            # And the run's partial result never entered the cache.
            assert service.result_cache_stats()["entries"] == 0
            assert http_get(url + "/healthz")[0] == 200

    def test_nonstream_disconnect_is_detected(self, slow_relation):
        service = ProfilerService()
        service.add_dataset("slow", slow_relation)
        with running_server(service) as (url, _):
            host, port = url.replace("http://", "").split(":")
            body = json.dumps({
                "dataset": "slow", "request": SLOW_REQUEST,
            }).encode()
            s = socket.create_connection((host, int(port)), timeout=30)
            s.sendall(
                b"POST /discover HTTP/1.0\r\n"
                b"Content-Type: application/json\r\n"
                + f"Content-Length: {len(body)}\r\n\r\n".encode()
                + body
            )
            # Give the handler a moment to enter the run, then vanish.
            wait_until(
                lambda: service.admission.snapshot()["executing"] >= 1,
                timeout=10,
            )
            s.close()
            assert wait_until(
                lambda: service.lifecycle_stats()["disconnect_cancellations"]
                >= 1,
                timeout=10,
            )
            assert wait_until(
                lambda: service.admission.snapshot()["inflight"] == 0,
                timeout=10,
            )


class TestInjectedFaults:
    def test_stall_delays_but_serves(self, quick_relation):
        injector = HttpFaultInjector()
        injector.add_fault("pre_response", "stall", path_prefix="/healthz",
                           delay_seconds=0.3)
        service = ProfilerService()
        service.add_dataset("data", quick_relation)
        with running_server(service, fault_injector=injector) as (url, _):
            started = time.monotonic()
            status, _, _ = http_get(url + "/healthz")
            assert status == 200
            assert time.monotonic() - started >= 0.3
            assert injector.fired_counts() == {"stall": 1}

    def test_dropped_response_leaves_server_healthy(self, quick_relation):
        injector = HttpFaultInjector()
        injector.add_fault("pre_response", "drop", path_prefix="/discover")
        service = ProfilerService()
        service.add_dataset("data", quick_relation)
        with running_server(service, fault_injector=injector) as (url, _):
            with pytest.raises(Exception):
                urllib.request.urlopen(
                    urllib.request.Request(
                        url + "/discover",
                        data=json.dumps({"dataset": "data",
                                         "request": SLOW_REQUEST}).encode(),
                        headers={"Content-Type": "application/json"},
                    ),
                    timeout=30,
                )
            assert injector.fired_counts() == {"drop": 1}
            # The fault budget (times=1) is spent: the retry succeeds.
            status, _, _ = http_post(url + "/discover", {
                "dataset": "data", "request": SLOW_REQUEST,
            })
            assert status == 200
            assert service.admission.snapshot()["inflight"] == 0

    def test_tcp_reset_leaves_server_healthy(self, quick_relation):
        injector = HttpFaultInjector()
        injector.add_fault("pre_response", "reset", path_prefix="/discover")
        service = ProfilerService()
        service.add_dataset("data", quick_relation)
        with running_server(service, fault_injector=injector) as (url, _):
            with pytest.raises(Exception):
                urllib.request.urlopen(
                    urllib.request.Request(
                        url + "/discover",
                        data=json.dumps({"dataset": "data",
                                         "request": SLOW_REQUEST}).encode(),
                        headers={"Content-Type": "application/json"},
                    ),
                    timeout=30,
                )
            assert injector.fired_counts() == {"reset": 1}
            assert http_get(url + "/healthz")[0] == 200

    def test_kill_mid_stream_releases_slot_and_recovers(self, quick_relation):
        injector = HttpFaultInjector()
        injector.add_fault("stream_event", "drop", path_prefix="/discover",
                           after_events=2)
        service = ProfilerService()
        service.add_dataset("data", quick_relation)
        with running_server(service, fault_injector=injector) as (url, _):
            host, port = url.replace("http://", "").split(":")
            body = json.dumps({
                "dataset": "data", "request": SLOW_REQUEST, "stream": True,
            }).encode()
            with socket.create_connection((host, int(port)), timeout=30) as s:
                s.sendall(
                    b"POST /discover HTTP/1.0\r\n"
                    b"Content-Type: application/json\r\n"
                    + f"Content-Length: {len(body)}\r\n\r\n".encode()
                    + body
                )
                s.settimeout(30)
                chunks = []
                while True:
                    data = s.recv(65536)
                    if not data:
                        break
                    chunks.append(data)
            raw = b"".join(chunks)
            # The stream was killed after two events: the final
            # run_completed line never arrived.
            assert b'"run_completed"' not in raw
            assert injector.fired_counts() == {"drop": 1}
            assert wait_until(
                lambda: service.admission.snapshot()["inflight"] == 0,
                timeout=10,
            )
            # A fresh (non-faulted) stream completes end to end.
            status, _, _ = http_post(url + "/discover", {
                "dataset": "data", "request": SLOW_REQUEST,
            })
            assert status == 200


class TestGracefulShutdown:
    def test_drains_inflight_work_and_leaks_nothing(self, quick_relation):
        service = ProfilerService(num_workers=2)
        service.add_dataset("data", quick_relation)
        server_holder = {}
        outcome = {}

        with running_server(service) as (url, server):
            server_holder["server"] = server

            def client():
                outcome["response"] = http_post(url + "/discover", {
                    "dataset": "data", "request": SLOW_REQUEST,
                })

            thread = threading.Thread(target=client, daemon=True)
            thread.start()
            wait_until(
                lambda: service.admission.snapshot()["executing"] >= 1,
                timeout=10,
            )
            drained = server.shutdown_gracefully(grace_seconds=30)
            thread.join(timeout=30)
            assert drained is True
            status, _, _ = outcome["response"]
            assert status == 200
            # New connections are refused: the socket is closed.
            with pytest.raises(OSError):
                socket.create_connection(
                    ("127.0.0.1", server.server_address[1]), timeout=2
                )
        # No child process survives shutdown; discovery never starts one.
        assert multiprocessing.active_children() == []

    def test_past_grace_cancels_inflight_work(self, slow_relation, monkeypatch):
        # The run must still be going when the grace period ends, however
        # fast discovery has become: each partition lookup is held briefly
        # (~550 lookups a run), so the run outlasts shutdown plus grace.
        real_get = PartitionCache.get

        def slow_get(cache, *args, **kwargs):
            time.sleep(0.002)
            return real_get(cache, *args, **kwargs)

        monkeypatch.setattr(PartitionCache, "get", slow_get)
        service = ProfilerService()
        service.add_dataset("slow", slow_relation)
        outcome = {}
        with running_server(service) as (url, server):

            def client():
                outcome["response"] = http_post(url + "/discover", {
                    "dataset": "slow", "request": SLOW_REQUEST,
                })

            thread = threading.Thread(target=client, daemon=True)
            thread.start()
            wait_until(
                lambda: service.admission.snapshot()["executing"] >= 1,
                timeout=10,
            )
            drained = server.shutdown_gracefully(grace_seconds=0.05)
            thread.join(timeout=30)
            assert drained is False
            # The cancelled run still answered (a partial result): the
            # client was not silently dropped.
            status, _, payload = outcome["response"]
            assert status == 200
            assert payload["stats"]["cancelled"] is True
        assert multiprocessing.active_children() == []

    def test_draining_server_refuses_new_work_with_503(self, quick_relation):
        service = ProfilerService()
        service.add_dataset("data", quick_relation)
        with running_server(service) as (url, _):
            service.begin_drain()
            status, headers, payload = http_post(url + "/discover", {
                "dataset": "data", "request": SLOW_REQUEST,
            })
            assert status == 503
            assert int(headers["Retry-After"]) >= 1
            assert "draining" in payload["error"]
            _, _, health = http_get(url + "/healthz")
            assert health["status"] == "draining"
