"""Shared helpers: paths, host fingerprint, statistics, result checking."""

from __future__ import annotations

import json
import math
import multiprocessing
import os
import platform
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Seed reserved for checking a later claim on inputs it was not tuned on.
HELD_OUT_SEED = 7919

THRESHOLD = 0.1
BACKEND = "numpy"


def program_env():
    """Environment for child processes that import the program."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def use_program_source() -> None:
    """Make ``import repro`` load the checkout's ``src/`` tree."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: program source not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def git_sha() -> str:
    """The checkout's commit, read from ``.git`` when there is one."""
    git_dir = ROOT / ".git"
    try:
        head = (git_dir / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git_dir / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git_dir / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def fingerprint(workload: str, seed: int) -> dict:
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "start_method": multiprocessing.get_start_method(),
        "git_sha": git_sha(),
    }


def peak_rss_mb(include_self: bool) -> float:
    """Largest resident set of this process (optionally) and of every
    child process waited for so far, in MiB."""
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    if include_self:
        peak_kb = max(peak_kb, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    return peak_kb / 1024.0


def tail(values):
    """``(value, percentile, samples)`` of the highest percentile that has
    at least ten samples beyond it; the maximum when there are too few."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], math.floor(1000.0 * (n - 10) / n) / 10.0, n


def result_signature(result):
    """What a discovery found, as comparable tuples: every OC and OFD with
    its context, attributes, removal size and level, in reported order.
    Accepts a ``DiscoveryResult`` or its ``to_dict()`` form."""
    if not isinstance(result, dict):
        # Read the objects directly: ``to_dict`` is a timed serve layer.
        return (
            tuple((tuple(sorted(f.oc.context)), f.oc.a, f.oc.b,
                   f.removal_size, f.level) for f in result.ocs),
            tuple((tuple(sorted(f.ofd.context)), f.ofd.attribute,
                   f.removal_size, f.level) for f in result.ofds),
        )
    return (
        tuple((tuple(d["context"]), d["a"], d["b"], d["removal_size"],
               d["level"]) for d in result["ocs"]),
        tuple((tuple(d["context"]), d["attribute"], d["removal_size"],
               d["level"]) for d in result["ofds"]),
    )


def emit(record: dict, correct: bool, attempted: int, failed: int,
         metrics: dict) -> None:
    """Print the human-readable record, then the result line (last)."""
    print("perfbench record: " + json.dumps(record, sort_keys=True))
    for name, entry in metrics.items():
        samples = entry.get("samples")
        extra = f" (n={samples})" if samples is not None else ""
        print(f"  {name} = {entry['value']:.6g} {entry['unit']}{extra}",
              file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": entry["value"], "unit": entry["unit"]}
            for name, entry in metrics.items()
        },
    }), flush=True)
