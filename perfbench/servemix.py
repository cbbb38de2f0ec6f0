"""serve-mix: a read/append mix against ``repro serve`` over HTTP.

The server runs in its own process with default settings (one worker, no
cache bounds).  This process is the load generator: two client threads in a
closed loop, each on its own dataset, each running a fixed seeded sequence
of four discovers (rotating through ``THRESHOLDS``) then one append of 1%
more rows revalidated at the benchmark threshold.
"""

from __future__ import annotations

import collections
import json
import queue
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import common

THRESHOLDS = (0.05, 0.08, 0.1, 0.12, 0.15)
DISCOVERS_PER_APPEND = 4
BASE_ROWS = 8000
ATTRIBUTES = 8
SMOKE_ROWS = 500
#: Appended rows per dataset are generated up front; a client that uses
#: them all keeps discovering without appending.
APPEND_BUDGET = 200
SETUP_SAMPLES = 3
TOKEN = "perfbench"
SNAPSHOT_PREFIX = "PERFBENCH_SNAPSHOT "
HERE = Path(__file__).resolve().parent


class Dataset:
    """One client's table: base rows to upload plus rows to append."""

    def __init__(self, name, generator, seed, base_rows):
        self.name = name
        self.step = max(1, base_rows // 100)
        relation = generator(base_rows + self.step * APPEND_BUDGET,
                             num_attributes=ATTRIBUTES, seed=seed).relation
        self.attributes = list(relation.attribute_names)
        # Round-trip through JSON so the rows checked here are the rows the
        # server parses.
        rows = json.loads(json.dumps([list(row) for row in relation.iter_rows()]))
        self.base = rows[:base_rows]
        self.extra = rows[base_rows:]


def make_datasets(seed, smoke):
    from repro.dataset.generators import (
        generate_flight_like,
        generate_ncvoter_like,
    )

    base_rows = SMOKE_ROWS if smoke else BASE_ROWS
    return [
        Dataset("flight", generate_flight_like, seed, base_rows),
        Dataset("ncvoter", generate_ncvoter_like, seed, base_rows),
    ]


class Server:
    """A ``repro serve`` child process on a free port."""

    def __init__(self, traced: bool) -> None:
        program = ([str(HERE / "serve_launcher.py")] if traced
                   else ["-m", "repro.cli"])
        self.process = subprocess.Popen(
            [sys.executable, "-u", *program, "serve", "--port", "0",
             "--backend", common.BACKEND, "--auth-token", TOKEN],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=common.program_env(), cwd=common.ROOT,
        )
        self._lines = queue.Queue()
        self._stderr = collections.deque(maxlen=20)
        self._readers = [
            threading.Thread(target=self._read, args=(self.process.stdout,
                                                      self._lines.put)),
            threading.Thread(target=self._read, args=(self.process.stderr,
                                                      self._stderr.append)),
        ]
        for reader in self._readers:
            reader.start()
        line = self._next_line(lambda text: " on http://" in text)
        self.url = line.rsplit(" on ", 1)[1].strip()

    @staticmethod
    def _read(stream, sink):
        for line in stream:
            sink(line)
        sink(None)

    def _next_line(self, wanted, timeout=60.0):
        deadline = time.monotonic() + timeout
        while True:
            try:
                line = self._lines.get(
                    timeout=max(0.01, deadline - time.monotonic())
                )
            except queue.Empty:
                raise RuntimeError("server did not answer in time") from None
            if line is None:
                self.stop()
                raise RuntimeError("server exited: "
                                   + "".join(l for l in self._stderr if l))
            if wanted(line):
                return line

    def snapshot(self):
        """The traced server's layer clock (cumulative)."""
        self.process.send_signal(signal.SIGUSR1)
        line = self._next_line(lambda text: text.startswith(SNAPSHOT_PREFIX))
        return json.loads(line[len(SNAPSHOT_PREFIX):])

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        for reader in self._readers:
            reader.join(timeout=10)


def _client(url):
    from repro.client import ServeClient

    return ServeClient(url, token=TOKEN, max_retries=0)


def _in_threads(function, datasets):
    outputs = [None] * len(datasets)
    errors = []

    def target(i, dataset):
        try:
            outputs[i] = function(i, dataset)
        except Exception as error:  # noqa: BLE001 - re-raised below
            errors.append(error)

    threads = [threading.Thread(target=target, args=(i, d))
               for i, d in enumerate(datasets)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return outputs


def start_and_load(datasets, traced):
    """Start a server, upload both datasets and answer one discover each.

    Returns ``(server, setup_seconds)``.
    """
    started = time.perf_counter()
    server = Server(traced)
    try:
        def load(i, dataset):
            client = _client(server.url)
            client.upload_rows(dataset.name, dataset.attributes, dataset.base)
            client.discover(dataset.name, {"threshold": common.THRESHOLD})

        _in_threads(load, datasets)
    except BaseException:
        server.stop()
        raise
    return server, time.perf_counter() - started


def _valid(payload, kind):
    result = payload.get("result") if kind == "append" else payload
    return (isinstance(result, dict) and isinstance(result.get("ocs"), list)
            and not result["stats"].get("cancelled")
            and not result["stats"].get("timed_out"))


def client_loop(url, dataset, seed, index, seconds):
    """Closed loop for ``seconds``; returns ``[(kind, latency, ok)]`` and
    the number of rows appended."""
    from repro.client import ServeClientError

    client = _client(url)
    offset = random.Random(seed * 10 + index).randrange(len(THRESHOLDS))
    ops = []
    appended = discovers = 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        rows = dataset.extra[appended:appended + dataset.step]
        if len(ops) % (DISCOVERS_PER_APPEND + 1) == DISCOVERS_PER_APPEND \
                and rows:
            kind = "append"
        else:
            kind = "discover"
            threshold = THRESHOLDS[(offset + discovers) % len(THRESHOLDS)]
            discovers += 1
        started = time.perf_counter()
        try:
            if kind == "append":
                payload = client.append(dataset.name, rows,
                                        {"threshold": common.THRESHOLD})
                appended += len(rows)
            else:
                payload = client.discover(dataset.name,
                                          {"threshold": threshold})
            ok = _valid(payload, kind)
        except ServeClientError as error:
            print(f"perfbench: {kind} failed: {error}", file=sys.stderr)
            ok = False
        ops.append((kind, time.perf_counter() - started, ok))
    return ops, appended


def final_check(url, dataset, appended) -> bool:
    """The served ε result must equal a cold one-shot discovery over the
    same rows."""
    from repro import discover_aods
    from repro.dataset.relation import Relation

    served = _client(url).discover(dataset.name,
                                   {"threshold": common.THRESHOLD})
    types = [a.type for a in
             Relation.from_rows(dataset.base, dataset.attributes).schema]
    relation = Relation.from_rows(dataset.base + dataset.extra[:appended],
                                  dataset.attributes, types=types)
    cold = discover_aods(relation, threshold=common.THRESHOLD,
                         backend=common.BACKEND)
    return common.result_signature(served) == common.result_signature(cold)


def measure(server, datasets, seed, seconds):
    """Drive both clients; returns their ``(ops, appended)`` logs and the
    wall seconds the loop took."""
    started = time.perf_counter()
    logs = _in_threads(
        lambda i, d: client_loop(server.url, d, seed, i, seconds), datasets
    )
    elapsed = time.perf_counter() - started
    return logs, elapsed


def check(server, datasets, logs):
    """Number of datasets whose final check failed."""
    from repro.client import ServeClientError

    failed = 0
    for dataset, (_, appended) in zip(datasets, logs):
        try:
            ok = final_check(server.url, dataset, appended)
        except ServeClientError as error:
            print(f"perfbench: final check failed: {error}", file=sys.stderr)
            ok = False
        failed += not ok
    return failed


def _latencies(logs, kind):
    return [latency for ops, _ in logs for k, latency, _ in ops if k == kind]


def run(workload, seed, seconds, trace, smoke):
    common.use_program_source()
    datasets = make_datasets(seed, smoke)
    if trace:
        return _run_traced(workload, datasets, seed, seconds)
    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        server, setup = start_and_load(datasets, traced=False)
        server.stop()
        setups.append(setup)
    server, setup = start_and_load(datasets, traced=False)
    setups.append(setup)
    try:
        logs, elapsed = measure(server, datasets, seed, seconds)
        failed_checks = check(server, datasets, logs)
    finally:
        server.stop()
    ops = [op for log, _ in logs for op in log]
    failed = sum(1 for _, _, ok in ops if not ok) + failed_checks
    attempted = len(ops) + len(datasets)
    discovers = _latencies(logs, "discover")
    appends = _latencies(logs, "append")
    d_tail, d_pct, d_n = common.tail(discovers)
    a_tail, a_pct, a_n = common.tail(appends)
    metrics = {
        "setup_s": {"value": statistics.median(setups), "unit": "s",
                    "samples": len(setups)},
        "discover_p50_ms": {"value": statistics.median(discovers) * 1000.0,
                            "unit": "ms", "samples": d_n},
        "throughput_ops_s": {"value": len(ops) / elapsed, "unit": "1/s",
                             "samples": len(ops)},
        "ok_frac": {"value": (attempted - failed) / attempted,
                    "unit": "fraction", "samples": attempted},
        "peak_rss_mb": {"value": common.peak_rss_mb(include_self=False),
                        "unit": "MiB"},
    }
    record = common.fingerprint(workload, seed)
    record["discover_tail_ms"] = {"value": d_tail * 1000.0,
                                  "percentile": d_pct, "samples": d_n}
    record["append_p50_ms"] = {"value": statistics.median(appends) * 1000.0,
                               "samples": a_n}
    record["append_tail_ms"] = {"value": a_tail * 1000.0,
                                "percentile": a_pct, "samples": a_n}
    return record, failed == 0, attempted, failed, metrics


def _prefix_mean(logs, other):
    """Mean latency over the ops both runs of each client completed."""
    total, count = 0.0, 0
    for (ops, _), (other_ops, _) in zip(logs, other):
        n = min(len(ops), len(other_ops))
        total += sum(latency for _, latency, _ in ops[:n])
        count += n
    return total / count


def _run_traced(workload, datasets, seed, seconds):
    from layers import (
        add_client_latencies,
        add_overhead,
        diff_snapshots,
        layer_metrics,
    )

    half = seconds / 2.0
    server, _ = start_and_load(datasets, traced=False)
    try:
        plain_logs, _ = measure(server, datasets, seed, half)
        failed_checks = check(server, datasets, plain_logs)
    finally:
        server.stop()
    server, _ = start_and_load(datasets, traced=True)
    try:
        client = _client(server.url)
        before, health_before = server.snapshot(), client.healthz()
        logs, _ = measure(server, datasets, seed, half)
        after, health_after = server.snapshot(), client.healthz()
        failed_checks += check(server, datasets, logs)
    finally:
        server.stop()
    snap = diff_snapshots(after, before)
    ops = [op for log, _ in logs for op in log]
    plain_ops = [op for log, _ in plain_logs for op in log]
    client_seconds = sum(latency for _, latency, _ in ops)
    metrics = layer_metrics(
        snap, len(ops), client_seconds,
        http_seconds=client_seconds - snap["root"]["seconds"],
    )
    cache = {key: health_after["result_cache"][key]
             - health_before["result_cache"][key] for key in ("hits", "misses")}
    metrics["serve.result_cache_hit_ratio"] = {
        "value": cache["hits"] / max(1, cache["hits"] + cache["misses"]),
        "unit": "ratio",
    }
    metrics["serve.rejected"] = {"value": sum(
        health_after["admission"][key] - health_before["admission"][key]
        for key in ("rejected_queue_full", "rejected_saturated")
    ), "unit": "count"}
    add_overhead(metrics, _prefix_mean(plain_logs, logs),
                 _prefix_mean(logs, plain_logs))
    add_client_latencies(metrics, _latencies(plain_logs, "discover"),
                         _latencies(plain_logs, "append"))
    failed = sum(1 for _, _, ok in ops + plain_ops if not ok) + failed_checks
    attempted = len(ops) + len(plain_ops) + 2 * len(datasets)
    record = common.fingerprint(workload, seed)
    record["traced_ops"] = len(ops)
    record["untraced_ops"] = len(plain_ops)
    return record, failed == 0, attempted, failed, metrics
