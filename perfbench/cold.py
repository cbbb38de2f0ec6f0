"""Cold workloads: a closed loop of one-shot ``discover_aods`` calls.

Every op builds a fresh ``Relation`` from pre-generated columns, so each
call pays for encoding as a one-shot user does.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import common

WORKLOADS = {
    # name: (rows, attributes, workers)
    "cold-16k": (16000, 10, 1),
    "cold-64k-w2": (64000, 6, 2),
}
SMOKE_ROWS = 500
#: Setups per run (this process plus probe processes); setup_s is their median.
SETUP_SAMPLES = 3


class ColdLoop:
    """Generated inputs plus the op that discovers over them."""

    def __init__(self, workload: str, seed: int, smoke: bool) -> None:
        rows, attributes, self.workers = WORKLOADS[workload]
        if smoke:
            rows = SMOKE_ROWS
        from repro.dataset.generators import generate_flight_like

        relation = generate_flight_like(
            rows, num_attributes=attributes, error_rate=0.08, seed=seed
        ).relation
        self.schema = relation.schema
        self.columns = {name: relation.column(name)
                        for name in relation.attribute_names}

    def relation(self):
        from repro.dataset.relation import Relation

        return Relation(self.schema, self.columns)

    def op(self):
        from repro import discover_aods

        return discover_aods(self.relation(), threshold=common.THRESHOLD,
                             backend=common.BACKEND,
                             num_workers=self.workers)

    def reference(self):
        """The python backend's answer, the oracle for every op."""
        from repro import discover_aods

        return common.result_signature(discover_aods(
            self.relation(), threshold=common.THRESHOLD, backend="python"
        ))


def set_up(workload: str, seed: int, smoke: bool):
    """Import the program, generate inputs, run one warm-up op.

    Returns ``(loop, setup_seconds)``; setup time is the import plus the
    warm-up op (input generation is the benchmark's own work).
    """
    started = time.perf_counter()
    common.use_program_source()
    import repro  # noqa: F401 - timed: part of a user's set-up

    imported = time.perf_counter() - started
    loop = ColdLoop(workload, seed, smoke)
    started = time.perf_counter()
    loop.op()
    return loop, imported + time.perf_counter() - started


def probe_setup(workload: str, seed: int, smoke: bool) -> None:
    """Entry point of a set-up probe process: print its set-up seconds."""
    _, seconds = set_up(workload, seed, smoke)
    print(json.dumps({"setup_s": seconds}))


def _probe(workload: str, seed: int, smoke: bool) -> float:
    command = [sys.executable, str(Path(__file__).with_name("run.py")),
               "--probe-setup", "--workload", workload, "--seed", str(seed)]
    if smoke:
        command.append("--smoke")
    done = subprocess.run(command, capture_output=True, text=True,
                          timeout=170, cwd=common.ROOT)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def _measure(loop, seconds, results, clock=None):
    """Run ops until ``seconds`` have passed; return per-op durations."""
    durations = []
    started = time.perf_counter()
    while not durations or time.perf_counter() - started < seconds:
        op_started = time.perf_counter()
        try:
            result = loop.op() if clock is None else clock.run_root(loop.op)
        except Exception as error:  # noqa: BLE001 - a failed op is counted
            print(f"perfbench: op failed: {error!r}", file=sys.stderr)
            results.append(None)
        else:
            results.append(common.result_signature(result))
        durations.append(time.perf_counter() - op_started)
    return durations, time.perf_counter() - started


def _failures(loop, results):
    expected = loop.reference()
    return sum(1 for signature in results if signature != expected)


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool):
    """One run; returns ``(record, correct, attempted, failed, metrics)``."""
    if trace:
        return _run_traced(workload, seed, seconds, smoke)
    setups = [_probe(workload, seed, smoke) for _ in range(SETUP_SAMPLES - 1)]
    loop, own_setup = set_up(workload, seed, smoke)
    setups.append(own_setup)
    results = []
    durations, elapsed = _measure(loop, seconds, results)
    peak_rss = common.peak_rss_mb(include_self=True)
    failed = _failures(loop, results)
    tail_value, tail_pct, n = common.tail(durations)
    metrics = {
        "setup_s": {"value": statistics.median(setups), "unit": "s",
                    "samples": len(setups)},
        "discover_p50_ms": {"value": statistics.median(durations) * 1000.0,
                            "unit": "ms", "samples": n},
        "throughput_ops_s": {"value": n / elapsed, "unit": "1/s",
                             "samples": n},
        "ok_frac": {"value": (n - failed) / n, "unit": "fraction",
                    "samples": n},
        "peak_rss_mb": {"value": peak_rss, "unit": "MiB"},
    }
    record = common.fingerprint(workload, seed)
    record["discover_tail_ms"] = {"value": tail_value * 1000.0,
                                  "percentile": tail_pct, "samples": n}
    return record, failed == 0, n, failed, metrics


def _run_traced(workload, seed, seconds, smoke):
    from layers import (
        LayerClock,
        add_client_latencies,
        add_overhead,
        layer_metrics,
    )

    loop, _ = set_up(workload, seed, smoke)
    results = []
    plain, _ = _measure(loop, seconds / 2.0, results)
    clock = LayerClock()
    clock.install()
    try:
        traced, _ = _measure(loop, seconds / 2.0, results, clock)
    finally:
        clock.uninstall()
    failed = _failures(loop, results)
    snap = clock.snapshot()
    metrics = layer_metrics(snap, len(traced), snap["root"]["seconds"])
    add_overhead(metrics, sum(plain) / len(plain), sum(traced) / len(traced))
    add_client_latencies(metrics, plain, [])
    record = common.fingerprint(workload, seed)
    record["traced_ops"] = len(traced)
    record["untraced_ops"] = len(plain)
    return record, failed == 0, len(results), failed, metrics
