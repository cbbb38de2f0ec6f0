"""End-to-end discovery benchmark: backends and worker counts.

Unlike ``bench_validators_micro`` (single-candidate kernels), this suite
times *whole* discovery runs on a generated flight-like workload and records
the perf trajectory the ROADMAP asks for: python vs numpy backend,
``num_workers`` 1, 2 and 4 (the cap on the OC plane's threads), and a
threshold sweep through a cold (one-shot per ε) vs warm
(:meth:`repro.discovery.session.Profiler.sweep`) session.

Every configuration must discover the identical OC/OFD sets (names, removal
sizes, levels) — asserted at the end of the module — so the recorded numbers
are always an apples-to-apples comparison.

Results are printed as a figure and persisted to
``benchmarks/results/BENCH_discovery.json`` so CI can upload them.  Quick
mode (``REPRO_BENCH_QUICK=1``, used by the CI smoke job) shrinks the
workload; ``REPRO_BENCH_E2E_ROWS`` overrides the row count outright.
"""

import json
import os
from pathlib import Path

import pytest

from repro.backend import available_backends
from repro.benchlib.harness import (
    measure_discovery,
    measure_incremental,
    measure_sweep,
)
from repro.dataset.generators import generate_flight_like

QUICK = os.environ.get("REPRO_BENCH_QUICK", "").strip() not in ("", "0")
NUM_ROWS = int(
    os.environ.get("REPRO_BENCH_E2E_ROWS", "2000" if QUICK else "16000")
)
NUM_ATTRIBUTES = 8 if QUICK else 10
THRESHOLD = 0.1
#: Thresholds for the session-sweep measurement (cold vs warm Profiler).
#: An Exp-3-style grid around the paper's default ε = 10%; the warm session
#: executes largest-first so removal counts transfer to every smaller budget.
SWEEP_THRESHOLDS = [0.06, 0.09, 0.12, 0.15]
SWEEP_BACKEND = "numpy" if "numpy" in available_backends() else "python"

#: (backend, workers) — the default on both backends, plus the w1/w2/w4
#: legs on the fastest backend.  ``num_workers > 1`` caps the threads that
#: count OC context groups while the coordinator validates OFDs, never
#: above the usable cores; w1 runs one thread per core.
CASES = [("python", 1)]
if "numpy" in available_backends():
    CASES += [("numpy", 1), ("numpy", 2), ("numpy", 4)]

RESULTS = {}


def _case_id(case):
    backend, workers = case
    return f"{backend}-w{workers}"


@pytest.fixture(scope="module")
def relation():
    workload = generate_flight_like(
        NUM_ROWS, num_attributes=NUM_ATTRIBUTES, error_rate=0.08, seed=7
    )
    return workload.relation


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_discovery_e2e(relation, case):
    backend, workers = case
    relation.encoded(backend)  # encoding is shared; time the discovery itself
    measurement = measure_discovery(
        relation,
        "aod-optimal",
        threshold=THRESHOLD,
        backend=backend,
        num_workers=workers,
        label=_case_id(case),
    )
    RESULTS[case] = measurement
    assert not measurement.timed_out
    assert measurement.num_ocs > 0 and measurement.num_ofds > 0


SWEEP_RESULT = {}


def test_sweep_cold_vs_warm(relation):
    """Session sweep acceptance: a warm ``Profiler.sweep`` over several
    thresholds must beat the equivalent repeated one-shot runs, with
    byte-identical per-threshold results."""
    measurement = measure_sweep(
        relation, SWEEP_THRESHOLDS, backend=SWEEP_BACKEND
    )
    SWEEP_RESULT["sweep"] = measurement
    for cold, warm in zip(measurement.cold_results, measurement.warm_results):
        assert warm.ocs == cold.ocs
        assert warm.ofds == cold.ofds
    # Warm runs after the first serve most validations from the memo.
    assert sum(r.stats.validation_memo_hits
               for r in measurement.warm_results) > 0
    if not QUICK:
        # The ISSUE-3 acceptance bar, measured at the full 16k-row workload.
        assert measurement.speedup >= 2.0, measurement.as_row()


INCREMENTAL_RESULT = {}
#: Appended rows: ≤1% of the workload (the ISSUE-4 acceptance point).
DELTA_ROWS = max(4, NUM_ROWS // 100)


def test_incremental_vs_cold(relation):
    """Evolving-data acceptance: after appending a small delta (≤1% of
    rows), ``Profiler.extend`` + ``discover_incremental`` must reproduce
    the cold result over the concatenated table byte-identically — and
    beat it on wall clock."""
    donor = generate_flight_like(
        NUM_ROWS + DELTA_ROWS, num_attributes=NUM_ATTRIBUTES,
        error_rate=0.08, seed=13,
    ).relation
    delta_rows = [
        donor.row(index) for index in range(NUM_ROWS, NUM_ROWS + DELTA_ROWS)
    ]
    measurement = measure_incremental(
        relation, delta_rows, threshold=THRESHOLD, backend=SWEEP_BACKEND
    )
    INCREMENTAL_RESULT["incremental"] = measurement
    assert measurement.incremental_result.ocs == measurement.cold_result.ocs
    assert measurement.incremental_result.ofds == measurement.cold_result.ofds
    assert measurement.memo_hits > 0
    if not QUICK:
        # The ISSUE-4 acceptance bar at the full 16k-row workload.
        assert measurement.speedup >= 2.0, measurement.as_row()


OBSERVABILITY_RESULT = {}
#: The ISSUE-9 acceptance bar: instrumentation with tracing *disabled*
#: (the default) may cost at most this share of an untraced run.
OVERHEAD_BUDGET_PCT = 2.0


def test_observability_overhead(relation):
    """The observability leg: tracing-off overhead and traced byte-identity.

    Timing two whole runs against each other is hopelessly noisy at the
    sub-percent scale this asserts, so the off-overhead is computed
    deterministically: a counting no-op tracer tallies how many
    instrumentation touchpoints one run actually executes, the cost of one
    no-op touchpoint is micro-timed in isolation, and the product over the
    untraced wall clock bounds the overhead.  The traced run is recorded
    informationally (it pays for real span bookkeeping) and must discover
    the byte-identical dependency sets."""
    import timeit

    from repro.obs import (
        MetricsRegistry, NoopTracer, Tracer, set_metrics, use_tracer,
    )

    class CountingNoopTracer(NoopTracer):
        """Counts every off-path instrumentation touchpoint."""

        def __init__(self):
            self.calls = 0

        def span(self, name, parent=None, **attrs):
            self.calls += 1
            return super().span(name, parent, **attrs)

        def start_span(self, name, parent=None, **attrs):
            self.calls += 1
            return None

        def end_span(self, span):
            self.calls += 1
            return None

        def current_span_id(self):
            self.calls += 1
            return None

    relation.encoded(SWEEP_BACKEND)
    kwargs = dict(
        threshold=THRESHOLD, backend=SWEEP_BACKEND, num_workers=1,
    )
    off = min(
        (measure_discovery(relation, "aod-optimal", label="obs-off", **kwargs)
         for _ in range(2)),
        key=lambda m: m.seconds,
    )

    counting = CountingNoopTracer()
    with use_tracer(counting):
        counted = measure_discovery(
            relation, "aod-optimal", label="obs-count", **kwargs
        )
    assert counting.calls > 0

    noop = NoopTracer()

    def _touchpoint():
        with noop.span("bench", level=1):
            pass

    probe_n = 20000
    per_call = min(timeit.repeat(_touchpoint, number=probe_n, repeat=3))
    per_call /= probe_n
    off_overhead_pct = 100.0 * counting.calls * per_call / off.seconds

    tracer = Tracer()
    previous_metrics = set_metrics(MetricsRegistry())
    try:
        with use_tracer(tracer):
            on = measure_discovery(
                relation, "aod-optimal", label="obs-traced", **kwargs
            )
    finally:
        set_metrics(previous_metrics)

    identical = (
        on.result.ocs == off.result.ocs
        and on.result.ofds == off.result.ofds
        and counted.result.ocs == off.result.ocs
        and counted.result.ofds == off.result.ofds
    )
    OBSERVABILITY_RESULT["observability"] = {
        "touchpoints": counting.calls,
        "noop_span_cost_us": round(per_call * 1e6, 4),
        "off_seconds": round(off.seconds, 4),
        "on_seconds": round(on.seconds, 4),
        "spans": len(tracer.finished_spans()),
        "tracing_off_overhead_pct": round(off_overhead_pct, 4),
        "overhead_budget_pct": OVERHEAD_BUDGET_PCT,
        "byte_identical": identical,
    }
    assert identical, "tracing changed the discovered dependency sets"
    assert len(tracer.finished_spans()) > 0
    assert off_overhead_pct <= OVERHEAD_BUDGET_PCT, (
        OBSERVABILITY_RESULT["observability"]
    )


def _signature(measurement):
    """The discovered dependency sets: names, removal sizes, levels."""
    result = measurement.result
    return (
        [(f.oc, f.removal_size, f.level) for f in result.ocs],
        [(f.ofd, f.removal_size, f.level) for f in result.ofds],
    )


@pytest.fixture(scope="module", autouse=True)
def _report(figure_report):
    yield
    if not RESULTS:
        return
    # Hard acceptance bar: every backend and worker count discovers the
    # same dependencies.
    reference = _signature(next(iter(RESULTS.values())))
    for case, measurement in RESULTS.items():
        assert _signature(measurement) == reference, (
            f"{_case_id(case)} diverged from the reference result"
        )

    rows = [measurement.as_row() | {"rows": NUM_ROWS}
            for measurement in RESULTS.values()]
    # Seconds per worker count, normalised against the w1 run.  A cap at
    # or above the usable cores runs the same plane as w1, so on small
    # hosts the legs only differ by noise; cpu_count is recorded so
    # readers can interpret the numbers.
    worker_scaling = {"cpu_count": os.cpu_count()}
    baseline = RESULTS.get(("numpy", 1))
    if baseline is not None:
        for backend, workers in RESULTS:
            if backend == "numpy":
                measurement = RESULTS[(backend, workers)]
                worker_scaling[f"w{workers}"] = {
                    "seconds": round(measurement.seconds, 4),
                    "num_workers": measurement.num_workers,
                    "speedup_vs_w1": round(
                        baseline.seconds / measurement.seconds, 2
                    ) if measurement.seconds > 0 else None,
                }

    results_dir = Path(__file__).parent / "results"
    results_dir.mkdir(exist_ok=True)
    payload = {
        "workload": f"flight-like, {NUM_ROWS} rows, "
                    f"{NUM_ATTRIBUTES} attributes, threshold {THRESHOLD}",
        "quick_mode": QUICK,
        "runs": rows,
        "worker_scaling": worker_scaling,
    }
    sweep = SWEEP_RESULT.get("sweep")
    if sweep is not None:
        payload["sweep"] = sweep.as_row() | {"rows": NUM_ROWS}
    incremental = INCREMENTAL_RESULT.get("incremental")
    if incremental is not None:
        payload["incremental"] = incremental.as_row()
    observability = OBSERVABILITY_RESULT.get("observability")
    if observability is not None:
        payload["observability"] = observability
    # Merge into the existing report: other suites (the partition
    # micro-benchmarks) contribute their own records to the same file.
    report_path = results_dir / "BENCH_discovery.json"
    if report_path.exists():
        merged = json.loads(report_path.read_text(encoding="utf-8"))
        merged.update(payload)
        payload = merged
    report_path.write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )
    # Regenerate the human-readable summary wholesale from the merged JSON
    # (never append: the old append-per-run flow made summary.txt drift).
    from repro.benchlib.reporting import write_bench_summary

    write_bench_summary(report_path, results_dir / "summary.txt")

    cases = list(RESULTS)
    figure_report(
        "End-to-end discovery: backends and worker counts",
        "configuration",
        [_case_id(case) for case in cases],
        {
            "seconds": [round(RESULTS[c].seconds, 3) for c in cases],
            "validation share": [
                round(RESULTS[c].validation_share, 3) for c in cases
            ],
        },
        notes=[
            f"workload: flight-like, {NUM_ROWS} rows, threshold {THRESHOLD}",
            "identical OC/OFD sets across all configurations (asserted)",
            f"worker scaling (thread cap): {worker_scaling}",
        ]
        + (
            [
                f"session sweep {SWEEP_THRESHOLDS} ({sweep.backend}): "
                f"cold {sweep.cold_seconds:.3f}s vs warm "
                f"{sweep.warm_seconds:.3f}s = {sweep.speedup:.2f}x"
            ]
            if sweep is not None
            else []
        )
        + (
            [
                f"incremental append of {incremental.delta_rows} rows "
                f"({incremental.backend}): cold "
                f"{incremental.cold_seconds:.3f}s vs incremental "
                f"{incremental.incremental_seconds:.3f}s = "
                f"{incremental.speedup:.2f}x"
            ]
            if incremental is not None
            else []
        ),
    )
