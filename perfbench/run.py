"""Repository benchmark: AOD discovery end to end, broken down by layer.

One run::

    python3 perfbench/run.py --workload cold-16k --seed 1 --seconds 20 --trace 0

measures one workload for ``--seconds`` and prints, as its last stdout
line, ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
line before it is a ``perfbench record:`` with the host fingerprint, the
seed, the held-out seed and the sample counts; stderr lists every metric
with its unit and sample count.

    python3 perfbench/run.py --workload all [--trace 1]   # every workload
    python3 perfbench/run.py --smoke                      # ~500-row check

Workloads (all at ε = 0.1, numpy backend, fixed plan):

* ``cold-16k`` -- one-shot discovery over a fresh 16k x 10 flight-like
  relation per op, one process.  Kernel-bound: the paper's headline path,
  and the control for pool, memo, incremental and serve changes.
* ``cold-64k-w2`` -- the same loop at 64k x 8 with two worker processes
  spawned and closed by every op: the only workload where the validation
  pool does the work.
* ``serve-mix`` -- ``repro serve`` in its own process, two HTTP clients in
  a closed loop, four discovers per 1% append, each client on its own
  dataset: the only workload with warm state and writes.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import common

WORKLOADS = ("cold-16k", "cold-64k-w2", "serve-mix")
SPEC_PATH = common.ROOT / "BENCHMARK.json"


def run_one(args) -> int:
    common.use_program_source()
    if args.workload == "serve-mix":
        import servemix as module
    else:
        import cold as module
    record, correct, attempted, failed, metrics = module.run(
        args.workload, args.seed, args.seconds, bool(args.trace), args.smoke
    )
    record["trace"] = args.trace
    record["seconds"] = args.seconds
    record["smoke"] = args.smoke
    record["metrics"] = metrics
    common.emit(record, correct, attempted, failed, metrics)
    return 0


def _spec():
    return json.loads(SPEC_PATH.read_text())


def _child(workload, seed, seconds, trace, smoke):
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        command.append("--smoke")
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          cwd=common.ROOT, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"perfbench: {workload} (trace {trace}) exited "
                         f"with code {done.returncode}")
    return json.loads(lines[-1])


def _problems(result, spec, trace):
    """Everything wrong with one run's result line."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"failed ops: {result.get('failed')}")
    expected = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    metrics = result.get("metrics", {})
    for name in sorted(set(expected) | set(metrics)):
        entry = metrics.get(name)
        if name not in expected:
            problems.append(f"unexpected metric {name}")
        elif entry is None:
            problems.append(f"missing metric {name}")
        elif entry.get("unit") != expected[name] or not entry.get("unit"):
            problems.append(f"{name}: unit {entry.get('unit')!r}, "
                            f"expected {expected[name]!r}")
        elif not isinstance(entry.get("value"), (int, float)):
            problems.append(f"{name}: value {entry.get('value')!r}")
    if trace and not problems:
        from layers import SELF_TIME_METRICS

        op = metrics["trace.op_s"]["value"]
        parts = [metrics["engine.self_s"]["value"],
                 metrics["serve.http_ms"]["value"] / 1000.0]
        parts += [metrics[name]["value"] / (1000.0 if unit == "ms" else 1.0)
                  for name, _, unit in SELF_TIME_METRICS]
        if min(parts) < -1e-9:
            problems.append(f"negative self time: {parts}")
        if abs(sum(parts) - op) > 1e-6 * max(op, 1.0):
            problems.append(f"self times sum to {sum(parts)}, op is {op}")
    return problems


def run_all(args) -> int:
    """Run every workload (untraced and, for --smoke, traced too) in child
    processes and check each result line against BENCHMARK.json."""
    spec = _spec()
    traces = (0, 1) if args.smoke else (args.trace,)
    failures = []
    for workload in WORKLOADS:
        for trace in traces:
            result = _child(workload, args.seed, args.seconds, trace,
                            args.smoke)
            print(f"{workload} trace={trace}: attempted={result['attempted']} "
                  f"failed={result['failed']}", file=sys.stderr)
            failures += [f"{workload} trace={trace}: {problem}"
                         for problem in _problems(result, spec, trace)]
    for failure in failures:
        print("FAIL " + failure, file=sys.stderr)
    print("perfbench: " + ("FAILED" if failures else "ok"))
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: "
                             "run_seconds from BENCHMARK.json; 2 with --smoke)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs; with --workload all, also run the "
                             "traced runs and check every metric")
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 2.0 if args.smoke else float(_spec()["run_seconds"])
    if args.probe_setup:
        import cold

        cold.probe_setup(args.workload, args.seed, args.smoke)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
