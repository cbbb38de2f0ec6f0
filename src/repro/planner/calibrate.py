"""Micro-probes that seed the planner's cost model.

Calibration has to be *cheap* — it runs at session start, on the user's
clock — so each probe is a few milliseconds of synthetic work:

* :func:`probe_kernel_unit_seconds` times the backend's batched OC kernel
  on a fixed synthetic workload and divides by the workload's cost in the
  pool's ``m log m`` units.  Results are cached per backend name for the
  process lifetime (the kernel's throughput does not drift).
* :func:`probe_dispatch_overhead` round-trips one deliberately tiny shard
  through a live :class:`~repro.validation.distributed.ShardedValidationPool`
  (each repetition opens a fresh column plane and submits with no inline
  floor, so it ships its columns and makes a true process round-trip).
  Without a pool it falls back to a conservative default — overestimating
  dispatch cost only makes the planner more reluctant to parallelise,
  which is the safe direction.

Probes use deterministic synthetic data (no RNG): calibration must never
perturb result reproducibility, and the timings themselves are the only
nondeterminism allowed.
"""

from __future__ import annotations

import os
import time
from typing import Dict, Optional

from repro.backend import available_backends, resolve_backend
from repro.dataset.relation import Relation

from .model import CostModel, cost_units

#: Fallback per-shard dispatch overhead when no pool exists to probe.
#: Deliberately high-side: a pickle + two queue hops + merge on a busy
#: host is a few milliseconds.
DEFAULT_DISPATCH_OVERHEAD_SECONDS = 3e-3

#: Synthetic probe workload shape: enough classes/rows that the kernel
#: time dominates call overhead, small enough to stay in the microsecond
#: to low-millisecond range per repetition.
PROBE_NUM_CLASSES = 48
PROBE_CLASS_SIZE = 32
PROBE_REPEATS = 3

_KERNEL_PROBE_CACHE: Dict[str, float] = {}


def _probe_workload(num_classes: int = PROBE_NUM_CLASSES,
                    class_size: int = PROBE_CLASS_SIZE):
    """Deterministic classes + rank-column pairs for the kernel probe.

    The ``b`` column is a fixed multiplicative scramble of row order, so
    the patience kernel does real work (nontrivial removal counts) rather
    than short-circuiting on already-sorted input.
    """
    num_rows = num_classes * class_size
    classes = [
        list(range(base, base + class_size))
        for base in range(0, num_rows, class_size)
    ]
    a = list(range(num_rows))
    b = [(row * 7919 + 13) % num_rows for row in range(num_rows)]
    pairs = [(a, b), (b, a)]
    units = sum(cost_units(class_size) for _ in classes) * len(pairs)
    return classes, pairs, units


def probe_kernel_unit_seconds(backend=None, force: bool = False) -> float:
    """Seconds per ``m log m`` cost unit for ``backend``'s batch kernel."""
    resolved = resolve_backend(backend)
    if not force and resolved.name in _KERNEL_PROBE_CACHE:
        return _KERNEL_PROBE_CACHE[resolved.name]
    classes, pairs, units = _probe_workload()
    native_pairs = [
        (resolved.to_native(a), resolved.to_native(b)) for a, b in pairs
    ]
    best = float("inf")
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        resolved.oc_optimal_removal_count_batch(classes, native_pairs, None)
        best = min(best, time.perf_counter() - start)
    unit_seconds = best / units
    _KERNEL_PROBE_CACHE[resolved.name] = unit_seconds
    return unit_seconds


def probe_backend_units() -> Dict[str, float]:
    """Kernel probe for every importable backend (for reporting)."""
    return {
        name: probe_kernel_unit_seconds(name)
        for name in available_backends()
    }


def probe_dispatch_overhead(pool=None) -> float:
    """Per-shard round-trip seconds through ``pool`` (fallback default).

    Each repetition opens a fresh column plane over an 8-row, two-column
    encoded relation and submits its single class with no inline floor, so
    the group is dispatched and its columns ship with it — the measured
    time is almost entirely transport, not kernel.
    """
    if pool is None or getattr(pool, "closed", True) \
            or getattr(pool, "degraded", False):
        return DEFAULT_DISPATCH_OVERHEAD_SECONDS
    a = list(range(8))
    encoded = Relation.from_columns(
        {"a": a, "b": list(reversed(a))}
    ).encoded(pool.backend)
    classes = [a]
    best = float("inf")
    try:
        for _ in range(PROBE_REPEATS):
            start = time.perf_counter()
            plane = pool.new_plane(encoded)
            try:
                plane.harvest(plane.submit(
                    classes, [("a", "b")], None, inline_group_cost=0
                ))
            finally:
                plane.release()
            best = min(best, time.perf_counter() - start)
    except Exception:
        # A sick pool must not take the planner down with it; keep the
        # conservative default and let supervision deal with the pool.
        return DEFAULT_DISPATCH_OVERHEAD_SECONDS
    return best


def calibrate(backend=None, pool=None,
              cpu_count: Optional[int] = None) -> CostModel:
    """Assemble a :class:`CostModel` from the micro-probes."""
    resolved = resolve_backend(backend)
    per_backend = probe_backend_units()
    return CostModel(
        cpu_count=cpu_count if cpu_count is not None
        else (os.cpu_count() or 1),
        kernel_unit_seconds=per_backend.get(
            resolved.name, probe_kernel_unit_seconds(resolved)
        ),
        dispatch_overhead_seconds=probe_dispatch_overhead(pool),
        backend=resolved.name,
        backend_unit_seconds=per_backend,
    )


def preferred_backend(model: CostModel) -> str:
    """The backend the calibration ranked fastest (reported on
    ``/healthz``; execution stays on the session backend, whose results
    are byte-identical by the repo invariant)."""
    if not model.backend_unit_seconds:
        return model.backend
    return min(model.backend_unit_seconds.items(), key=lambda kv: kv[1])[0]
