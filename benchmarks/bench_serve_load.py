"""Serve-layer load benchmark: latency and rejection rate under concurrency.

Drives a real ``repro.serve`` HTTP server with a fixed number of
concurrent clients issuing ``POST /discover`` requests against one warm
dataset, using the stdlib :class:`repro.client.ServeClient` *without*
retries (a rejection is a data point here, not a transient to paper
over).  The ``serve`` record merged into
``benchmarks/results/BENCH_discovery.json`` carries request counts,
p50/p95 end-to-end latency for accepted requests, and the rejection rate
— the numbers the CI smoke job asserts on to catch an admission-control
or queueing regression.
"""

import json
import os
import statistics
import threading
import time
from pathlib import Path

import pytest

from repro.client import ServeClient, ServeHTTPError
from repro.dataset.generators import generate_random_table
from repro.serve import ProfilerService, make_server

QUICK = os.environ.get("REPRO_BENCH_QUICK", "").strip() not in ("", "0")
NUM_ROWS = int(
    os.environ.get("REPRO_BENCH_SERVE_ROWS", "400" if QUICK else "1200")
)
NUM_ATTRIBUTES = 6
#: Concurrent clients and requests per client (fixed load shape).
CONCURRENCY = 8
REQUESTS_PER_CLIENT = 4 if QUICK else 8
#: Distinct thresholds cycled per request so the result cache does not
#: absorb the whole load (cache hits are measured, but not exclusively).
THRESHOLDS = (0.05, 0.1, 0.15, 0.2)
QUEUE_DEPTH = 4
MAX_INFLIGHT = 16

BACKENDS = ["python", "numpy"]

#: backend -> latency/rejection record (merged under the "serve" key).
RESULTS = {}


def _run_load(backend_name):
    relation = generate_random_table(
        NUM_ROWS, NUM_ATTRIBUTES, cardinality=8, seed=3
    )
    service = ProfilerService(
        backend=backend_name,
        queue_depth=QUEUE_DEPTH,
        max_inflight=MAX_INFLIGHT,
    )
    service.add_dataset("bench", relation)
    server = make_server(service, host="127.0.0.1", port=0)
    url = f"http://127.0.0.1:{server.server_address[1]}"
    accept_thread = threading.Thread(target=server.serve_forever, daemon=True)
    accept_thread.start()

    latencies = []
    rejected = {"count": 0}
    errors = []
    lock = threading.Lock()
    barrier = threading.Barrier(CONCURRENCY)

    def client_loop(client_index):
        client = ServeClient(url, timeout=120, max_retries=0)
        barrier.wait(timeout=30)
        for request_index in range(REQUESTS_PER_CLIENT):
            threshold = THRESHOLDS[
                (client_index + request_index) % len(THRESHOLDS)
            ]
            started = time.perf_counter()
            try:
                client.discover("bench", {"threshold": threshold})
            except ServeHTTPError as error:
                if error.status in (429, 503):
                    with lock:
                        rejected["count"] += 1
                    continue
                with lock:
                    errors.append(error)
                continue
            except Exception as error:  # noqa: BLE001 - recorded, asserted
                with lock:
                    errors.append(error)
                continue
            elapsed = time.perf_counter() - started
            with lock:
                latencies.append(elapsed)

    threads = [
        threading.Thread(target=client_loop, args=(index,), daemon=True)
        for index in range(CONCURRENCY)
    ]
    wall_start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=600)
    wall_seconds = time.perf_counter() - wall_start

    snapshot = service.admission.snapshot()
    server.shutdown()
    server.server_close()
    service.close()
    accept_thread.join(timeout=10)

    assert not errors, errors
    total = CONCURRENCY * REQUESTS_PER_CLIENT
    assert len(latencies) + rejected["count"] == total
    assert latencies, "every request was rejected; load shape is broken"
    latencies.sort()
    return {
        "requests": total,
        "accepted": len(latencies),
        "rejected": rejected["count"],
        "rejection_rate": round(rejected["count"] / total, 4),
        "p50_latency_ms": round(
            statistics.median(latencies) * 1000, 2
        ),
        "p95_latency_ms": round(
            latencies[max(0, int(len(latencies) * 0.95) - 1)] * 1000, 2
        ),
        "wall_seconds": round(wall_seconds, 3),
        "admitted": snapshot["admitted"],
        "rejected_queue_full": snapshot["rejected_queue_full"],
        "rejected_saturated": snapshot["rejected_saturated"],
    }


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_serve_load(backend_name):
    record = _run_load(backend_name)
    RESULTS[backend_name] = record
    # The load is shaped to overflow a depth-4 queue at 8-way concurrency
    # at least occasionally; a zero rejection count with these settings
    # would mean admission control silently stopped applying.  Latency
    # sanity: accepted requests finished, p95 bounded by the wall clock.
    assert record["p50_latency_ms"] > 0
    assert record["p95_latency_ms"] >= record["p50_latency_ms"]
    assert record["p95_latency_ms"] <= record["wall_seconds"] * 1000


@pytest.fixture(scope="module", autouse=True)
def _report(figure_report):
    yield
    if not RESULTS:
        return
    record = {
        "rows": NUM_ROWS,
        "attributes": NUM_ATTRIBUTES,
        "quick_mode": QUICK,
        "concurrency": CONCURRENCY,
        "requests_per_client": REQUESTS_PER_CLIENT,
        "queue_depth": QUEUE_DEPTH,
        "max_inflight": MAX_INFLIGHT,
        "backends": RESULTS,
    }

    results_dir = Path(__file__).parent / "results"
    results_dir.mkdir(exist_ok=True)
    path = results_dir / "BENCH_discovery.json"
    payload = {}
    if path.exists():
        payload = json.loads(path.read_text(encoding="utf-8"))
    payload["serve"] = record
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")

    metrics = ["p50_latency_ms", "p95_latency_ms", "rejection_rate"]
    figure_report(
        "Serve-layer load (admission control under concurrency)",
        "metric",
        metrics,
        {
            backend: [RESULTS[backend].get(m) for m in metrics]
            for backend in RESULTS
        },
        notes=[
            f"workload: random table, {NUM_ROWS} rows, "
            f"{NUM_ATTRIBUTES} attributes; {CONCURRENCY} clients x "
            f"{REQUESTS_PER_CLIENT} requests, queue_depth={QUEUE_DEPTH}, "
            f"max_inflight={MAX_INFLIGHT}",
            "rejections are 429/503 responses (no client retries); "
            "latency percentiles cover accepted requests only",
        ],
    )
