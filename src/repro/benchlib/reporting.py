"""Plain-text rendering of benchmark series and tables.

The benchmark suites print, for every figure of the paper, a table with the
same x-axis points and the same series the paper plots (runtime per
algorithm, annotated with the number of discovered OCs/AOCs).  These
renderers keep that output consistent across experiments and readable in a
terminal / CI log.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Fixed-width text table."""
    materialised = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in materialised:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = [
        " | ".join(header.ljust(width) for header, width in zip(headers, widths)),
        "-+-".join("-" * width for width in widths),
    ]
    for row in materialised:
        lines.append(" | ".join(cell.ljust(width) for cell, width in zip(row, widths)))
    return "\n".join(lines)


def format_series_table(
    x_label: str,
    x_values: Sequence[object],
    series: Mapping[str, Sequence[float]],
    annotations: Optional[Mapping[str, Sequence[object]]] = None,
    value_format: str = "{:.3f}",
) -> str:
    """Render one figure's data as a table: one row per x value, one column
    per series (plus optional annotation columns such as "#AOCs")."""
    headers: List[str] = [x_label]
    for name in series:
        headers.append(name)
    if annotations:
        for name in annotations:
            headers.append(name)
    rows = []
    for index, x in enumerate(x_values):
        row: List[object] = [x]
        for name in series:
            values = series[name]
            row.append(value_format.format(values[index]) if index < len(values) else "-")
        if annotations:
            for name in annotations:
                values = annotations[name]
                row.append(values[index] if index < len(values) else "-")
        rows.append(row)
    return format_table(headers, rows)


def render_figure(
    title: str,
    x_label: str,
    x_values: Sequence[object],
    series: Mapping[str, Sequence[float]],
    annotations: Optional[Mapping[str, Sequence[object]]] = None,
    notes: Optional[Sequence[str]] = None,
) -> str:
    """A titled block: the table plus free-form notes (paper-vs-measured)."""
    parts = [f"=== {title} ===",
             format_series_table(x_label, x_values, series, annotations)]
    if notes:
        parts.append("")
        parts.extend(f"  note: {note}" for note in notes)
    return "\n".join(parts)


def render_bench_summary(payload: Mapping[str, object]) -> str:
    """Render ``benchmarks/results/summary.txt`` from the merged
    ``BENCH_discovery.json`` payload.

    The summary is *regenerated wholesale* on every benchmark run — it is a
    view of the JSON, never appended to — so repeated runs can no longer
    accumulate duplicate blocks (they previously did: every session's
    ``figure_report`` appended its figures to the same file).
    Records the payload does not carry are skipped, so a partial run
    (e.g. only the partition micro-suite) still renders cleanly.
    """
    blocks: List[str] = []

    partition = payload.get("partition")
    if isinstance(partition, Mapping):
        backends = partition.get("backends") or {}
        operations = sorted({
            op for timings in backends.values() for op in timings
        })
        headers = ["operation"] + [f"{name} (s)" for name in backends]
        rows = [
            [op] + [
                f"{backends[name].get(op, float('nan')):.3f}"
                for name in backends
            ]
            for op in operations
        ]
        notes = [
            f"workload: flight-like, {partition.get('rows')} rows, "
            f"{partition.get('attributes')} attributes; "
            f"delta of {partition.get('delta_rows')} rows",
        ]
        if partition.get("product_speedup_vs_list") is not None:
            notes.append(
                "numpy product vs seed list-of-lists baseline: "
                f"{partition['product_speedup_vs_list']}x "
                f"(baseline {partition.get('numpy_product_list_baseline_s')}s)"
            )
        blocks.append("\n".join(
            ["=== Partition micro-benchmarks (CSR layout) ===",
             format_table(headers, rows), ""]
            + [f"  note: {note}" for note in notes]
        ))

    runs = payload.get("runs")
    if isinstance(runs, list) and runs:
        notes = [f"workload: {payload.get('workload')}",
                 "identical OC/OFD sets across all configurations (asserted)"]
        if payload.get("worker_scaling"):
            notes.append("worker scaling (thread cap): "
                         f"{payload['worker_scaling']}")
        blocks.append("\n".join(
            ["=== End-to-end discovery: backends and worker counts ===",
             format_table(
                 ["configuration", "seconds", "validation share"],
                 [[run.get("label"), f"{run.get('seconds', 0.0):.3f}",
                   f"{run.get('validation_share', 0.0):.3f}"]
                  for run in runs],
             ), ""]
            + [f"  note: {note}" for note in notes]
        ))

    sweep = payload.get("sweep")
    if isinstance(sweep, Mapping):
        blocks.append(
            "=== Session sweep: cold vs warm ===\n"
            f"  thresholds {sweep.get('thresholds')} "
            f"({sweep.get('backend')}): cold {sweep.get('cold_seconds')}s "
            f"vs warm {sweep.get('warm_seconds')}s = "
            f"{sweep.get('speedup')}x (memo hits: {sweep.get('memo_hits')})"
        )

    incremental = payload.get("incremental")
    if isinstance(incremental, Mapping):
        blocks.append(
            "=== Incremental append vs cold re-discovery ===\n"
            f"  append of {incremental.get('delta_rows')} rows "
            f"({incremental.get('backend')}): cold "
            f"{incremental.get('cold_seconds')}s vs incremental "
            f"{incremental.get('incremental_seconds')}s = "
            f"{incremental.get('speedup')}x "
            f"(memo hits: {incremental.get('memo_hits')})"
        )

    observability = payload.get("observability")
    if isinstance(observability, Mapping):
        blocks.append("\n".join([
            "=== Observability overhead (tracing off vs on) ===",
            f"  instrumentation touchpoints: "
            f"{observability.get('touchpoints')} "
            f"(noop span cost {observability.get('noop_span_cost_us')}us)",
            f"  tracing off: {observability.get('off_seconds')}s, "
            f"projected overhead "
            f"{observability.get('tracing_off_overhead_pct')}% "
            f"(bar: <= {observability.get('overhead_budget_pct')}%)",
            f"  tracing on: {observability.get('on_seconds')}s, "
            f"{observability.get('spans')} spans recorded "
            f"(results byte-identical: "
            f"{observability.get('byte_identical')})",
        ]))

    serve = payload.get("serve")
    if isinstance(serve, Mapping):
        backends = serve.get("backends") or {}
        blocks.append("\n".join(
            ["=== Serve-layer load (admission control under concurrency) ===",
             format_table(
                 ["backend", "accepted", "rejected", "rejection rate",
                  "p50 (ms)", "p95 (ms)"],
                 [[name,
                   str(record.get("accepted")),
                   str(record.get("rejected")),
                   f"{record.get('rejection_rate', 0.0):.3f}",
                   f"{record.get('p50_latency_ms', 0.0):.2f}",
                   f"{record.get('p95_latency_ms', 0.0):.2f}"]
                  for name, record in sorted(backends.items())],
             ), "",
             f"  note: {serve.get('concurrency')} clients x "
             f"{serve.get('requests_per_client')} requests against one "
             f"dataset ({serve.get('rows')} rows), "
             f"queue_depth={serve.get('queue_depth')}, "
             f"max_inflight={serve.get('max_inflight')}",
             "  note: rejections are 429/503 responses (no client "
             "retries); percentiles cover accepted requests only",
             ]
        ))

    rendered = "\n\n".join(blocks)
    header = (
        "Benchmark summary — generated from BENCH_discovery.json by "
        "repro.benchlib.reporting.write_bench_summary; do not edit.\n"
    )
    return header + "\n" + rendered + ("\n" if rendered else "")


def write_bench_summary(json_path, summary_path) -> str:
    """Regenerate ``summary_path`` from the ``json_path`` payload; returns
    the rendered text."""
    import json
    from pathlib import Path

    payload = json.loads(Path(json_path).read_text(encoding="utf-8"))
    text = render_bench_summary(payload)
    Path(summary_path).write_text(text, encoding="utf-8")
    return text


def speedup_series(
    baseline: Sequence[float], improved: Sequence[float]
) -> List[float]:
    """Element-wise speed-up factors ``baseline / improved``."""
    factors = []
    for slow, fast in zip(baseline, improved):
        factors.append(slow / fast if fast > 0 else float("inf"))
    return factors


def projected_quadratic_runtime(
    measured_seconds: float, measured_rows: int, target_rows: int
) -> float:
    """Project a quadratic-cost runtime to a larger input size.

    The paper projects the iterative series' missing points (those that did
    not finish within 24 hours); the same projection lets the benches report
    comparable numbers without actually burning hours on the baseline.
    """
    if measured_rows <= 0:
        raise ValueError("measured_rows must be positive")
    scale = target_rows / measured_rows
    return measured_seconds * scale * scale
