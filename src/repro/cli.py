"""Command-line interface: the ``repro`` subcommands.

A front-end over the session-oriented library API::

    repro discover data.csv --threshold 0.1 --attributes a b c
    repro discover data.csv --exact --max-level 4
    repro discover --demo                  # run on the paper's Table 1
    repro sweep data.csv --thresholds 0.05 0.1 0.15
    repro extend data.csv delta.csv --verify-cold
    repro serve data.csv other.csv --port 8080

``discover`` prints the discovery summary, the ranked dependencies and
(with ``--outliers``) the most suspicious tuples.  ``sweep`` runs one warm
:class:`~repro.discovery.session.Profiler` session across several
approximation thresholds (the paper's Exp-3 loop) and prints the series.
``extend`` demos evolving data: discover on the base CSV, append the delta
CSV rows and revalidate incrementally (see :mod:`repro.incremental`),
reporting revoked/added dependencies and, with ``--verify-cold``, checking
the result against a cold re-discovery and the reported lists against the
diff of the baseline and that cold result.  ``serve`` exposes the same
sessions over stdlib HTTP (see :mod:`repro.serve`).
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
import threading
import time
from pathlib import Path
from typing import Iterable, List, Mapping, Optional, Sequence

from repro.applications.outlier_detection import detect_outliers
from repro.backend import BACKEND_CHOICES, BACKEND_ENV_VAR
from repro.dataset.csv_io import read_csv
from repro.dataset.examples import employee_salary_table
from repro.discovery.api import discover
from repro.discovery.config import DiscoveryRequest
from repro.discovery.results import DiscoveryResult
from repro.discovery.session import Profiler
from repro.obs import configure_logging
from repro.obs.log import ENV_VAR as LOG_LEVEL_ENV_VAR

# -- parser construction ---------------------------------------------------------


def _dataset_options(parser: argparse.ArgumentParser, many: bool = False) -> None:
    if many:
        parser.add_argument(
            "csv", nargs="*",
            help="input CSV files with header rows (each becomes a dataset)",
        )
    else:
        parser.add_argument(
            "csv", nargs="?", help="input CSV file with a header row"
        )
    parser.add_argument(
        "--demo", action="store_true",
        help="ignore the CSV argument and run on the paper's Table 1",
    )
    parser.add_argument(
        "--max-rows", type=int, default=None,
        help="read at most this many rows from each CSV",
    )


def _engine_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--backend", choices=BACKEND_CHOICES, default=None,
        help="compute backend for encoding/partitions/validation "
             f"(default: ${BACKEND_ENV_VAR} if set, else auto)",
    )
    parser.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="count OC groups on at most N threads, never more than the "
             "usable cores (default 1: one thread per core)",
    )
    parser.add_argument(
        "--attributes", nargs="*", default=None,
        help="restrict discovery to these attributes",
    )
    parser.add_argument(
        "--max-level", type=int, default=None,
        help="cap the lattice level (attribute-set size)",
    )
    parser.add_argument(
        "--time-limit", type=float, default=None,
        help="wall-clock budget in seconds (per run)",
    )
    _log_level_option(parser)


def _log_level_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--log-level", default=None, metavar="LEVEL",
        help="emit structured logs at this level (DEBUG/INFO/WARNING/"
             f"ERROR; default: ${LOG_LEVEL_ENV_VAR} if set, else silent)",
    )


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Discover (approximate) order dependencies in CSV files.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    discover = subparsers.add_parser(
        "discover", help="run one discovery and print ranked dependencies",
    )
    _dataset_options(discover)
    _engine_options(discover)
    discover.add_argument(
        "--threshold", type=float, default=0.1,
        help="approximation threshold in [0, 1] (default 0.1)",
    )
    discover.add_argument(
        "--exact", action="store_true",
        help="discover exact ODs only (threshold 0)",
    )
    discover.add_argument(
        "--validator", choices=("optimal", "iterative"), default="optimal",
        help="AOC validation algorithm (default: optimal)",
    )
    discover.add_argument(
        "--top", type=int, default=10,
        help="number of ranked dependencies to print (default 10)",
    )
    discover.add_argument(
        "--outliers", action="store_true",
        help="also print the most suspicious tuples",
    )
    discover.add_argument(
        "--trace", default=None, metavar="PATH",
        help="record a span trace of the run's phases and write it to "
             "PATH as Chrome-trace JSON (load in chrome://tracing or "
             "Perfetto); results are unaffected",
    )
    discover.set_defaults(func=_cmd_discover)

    sweep = subparsers.add_parser(
        "sweep",
        help="run one warm session across several thresholds (Exp-3 loop)",
    )
    _dataset_options(sweep)
    _engine_options(sweep)
    sweep.add_argument(
        "--thresholds", type=float, nargs="+", metavar="T",
        default=[0.0, 0.05, 0.10, 0.15, 0.20, 0.25],
        help="approximation thresholds to sweep (default: 0%% .. 25%%)",
    )
    sweep.add_argument(
        "--validator", choices=("optimal", "iterative"), default="optimal",
        help="AOC validation algorithm (default: optimal)",
    )
    sweep.set_defaults(func=_cmd_sweep)

    extend = subparsers.add_parser(
        "extend",
        help="discover on a base CSV, append a delta CSV, and revalidate "
             "incrementally (evolving-data demo)",
    )
    extend.add_argument(
        "csv", help="base CSV file with a header row"
    )
    extend.add_argument(
        "delta", help="CSV of rows to append (same attributes as the base)"
    )
    extend.add_argument(
        "--max-rows", type=int, default=None,
        help="read at most this many rows from each CSV",
    )
    _engine_options(extend)
    extend.add_argument(
        "--threshold", type=float, default=0.1,
        help="approximation threshold in [0, 1] (default 0.1)",
    )
    extend.add_argument(
        "--exact", action="store_true",
        help="discover exact ODs only (threshold 0)",
    )
    extend.add_argument(
        "--validator", choices=("optimal", "iterative"), default="optimal",
        help="AOC validation algorithm (default: optimal)",
    )
    extend.add_argument(
        "--verify-cold", action="store_true",
        help="also run a cold discovery over the concatenated table and "
             "assert the incremental result is identical and the revoked/"
             "added lists equal the baseline-to-cold diff",
    )
    extend.set_defaults(func=_cmd_extend)

    serve = subparsers.add_parser(
        "serve",
        help="serve discovery over HTTP, one warm session per dataset",
    )
    _dataset_options(serve, many=True)
    serve.add_argument(
        "--backend", choices=BACKEND_CHOICES, default=None,
        help="compute backend for every session",
    )
    serve.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="cap on each cold run's OC threads, never more than the "
             "usable cores (default 1: one thread per core)",
    )
    serve.add_argument(
        "--max-memo-entries", type=int, default=None, metavar="N",
        help="LRU bound on each session's validation memo "
             "(default: unbounded; evicted outcomes are recomputed)",
    )
    serve.add_argument(
        "--max-cached-partitions", type=int, default=None, metavar="N",
        help="LRU bound on each session's retained partition cache "
             "(default: unbounded; evicted partitions are rebuilt)",
    )
    _log_level_option(serve)
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port", type=int, default=8080,
        help="TCP port (0 picks a free port; default 8080)",
    )
    serve.add_argument(
        "--request-timeout", type=float, default=None, metavar="SECONDS",
        help="per-connection socket timeout; a client that stops reading "
             "or writing past it is disconnected (default 300)",
    )
    serve.add_argument(
        "--queue-depth", type=int, default=None, metavar="N",
        help="admission queue depth per dataset; requests beyond it are "
             "rejected 429 with Retry-After (default 8)",
    )
    serve.add_argument(
        "--max-inflight", type=int, default=None, metavar="N",
        help="global cap on admitted requests (executing + queued); "
             "beyond it the server answers 503 (default 32)",
    )
    serve.add_argument(
        "--default-deadline", type=float, default=None, metavar="SECONDS",
        help="deadline applied to requests that do not send "
             "deadline_seconds (default: none)",
    )
    serve.add_argument(
        "--auth-token", default=None, metavar="TOKEN",
        help="bearer token required for dataset lifecycle endpoints "
             "(PUT/DELETE /datasets/<name>); defaults to the "
             "REPRO_SERVE_TOKEN environment variable",
    )
    serve.add_argument(
        "--dataset-ttl", type=float, default=None, metavar="SECONDS",
        help="evict uploaded (non-pinned) datasets idle longer than this "
             "(default: keep forever)",
    )
    serve.add_argument(
        "--grace-period", type=float, default=10.0, metavar="SECONDS",
        help="drain window for in-flight requests at shutdown before "
             "they are cancelled (default 10)",
    )
    serve.set_defaults(func=_cmd_serve)

    return parser


# -- entry point -----------------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)

    try:
        # No-op unless --log-level or $REPRO_LOG_LEVEL asks for output.
        configure_logging(getattr(args, "log_level", None))
    except ValueError as error:
        parser.error(str(error))

    try:
        return args.func(args)
    except (RuntimeError, ValueError, OSError) as error:
        # e.g. an unknown REPRO_BACKEND value, a missing CSV file, or a
        # serve port already in use: print the message instead of a
        # traceback.
        print(f"error: {error}", file=sys.stderr)
        return 2


# -- subcommand implementations ---------------------------------------------------


def _load_relation(args, parser_hint: str):
    if args.demo:
        return employee_salary_table()
    if args.csv:
        return read_csv(args.csv, max_rows=args.max_rows)
    print(f"usage hint: {parser_hint}", file=sys.stderr)
    print("error: provide a CSV file or --demo", file=sys.stderr)
    return None


def _session(relation, args) -> Profiler:
    return Profiler(relation, backend=args.backend, num_workers=args.workers)


def _one_shot(relation, args, request: DiscoveryRequest) -> DiscoveryResult:
    # A single run needs no warm state: the engine owns its partitions and
    # evicts them level by level, bounding peak memory.
    return discover(relation, request, backend=args.backend,
                    num_workers=args.workers)


def _request_from_args(args) -> DiscoveryRequest:
    """Build the discovery request shared by ``discover`` and ``extend``."""
    common = dict(
        attributes=args.attributes,
        max_level=args.max_level,
        time_limit_seconds=args.time_limit,
    )
    if args.exact:
        return DiscoveryRequest.exact(**common)
    return DiscoveryRequest.approximate(
        threshold=args.threshold, validator=args.validator, **common
    )


def _cmd_discover(args) -> int:
    relation = _load_relation(args, "repro discover [csv | --demo] ...")
    if relation is None:
        return 2
    request = _request_from_args(args)
    if args.trace:
        from repro.obs import Tracer, set_tracer

        tracer = Tracer()
        previous = set_tracer(tracer)
        try:
            result = _one_shot(relation, args, request)
        finally:
            set_tracer(previous)
        spans = tracer.export(args.trace)
        print(f"trace: {spans} span(s) written to {args.trace} "
              "(Chrome-trace JSON; open in chrome://tracing or Perfetto)")
        print()
    else:
        result = _one_shot(relation, args, request)

    print(result.summary())
    print()
    _print_ranked(result, relation, args)
    return 0


def _cmd_sweep(args) -> int:
    relation = _load_relation(args, "repro sweep [csv | --demo] --thresholds ...")
    if relation is None:
        return 2
    request = DiscoveryRequest(
        validator=args.validator,
        attributes=args.attributes,
        max_level=args.max_level,
        time_limit_seconds=args.time_limit,
    )
    start = time.perf_counter()
    with _session(relation, args) as session:
        results = session.sweep(args.thresholds, request=request)
        cache = session.cache_info()
    elapsed = time.perf_counter() - start

    print(format_series_table(
        "threshold",
        [f"{t:.0%}" for t in args.thresholds],
        {"seconds": [r.stats.total_seconds for r in results]},
        annotations={
            "#OCs": [r.num_ocs for r in results],
            "#OFDs": [r.num_ofds for r in results],
            "memo hits": [r.stats.validation_memo_hits for r in results],
        },
    ))
    print()
    print(f"Warm session: {len(args.thresholds)} thresholds in {elapsed:.3f}s "
          f"[{cache['backend']} backend, partition cache "
          f"{cache['hits']} hits / {cache['misses']} misses, "
          f"{cache['validation_memo_entries']} memoised validations]")
    return 0


def _cmd_extend(args) -> int:
    base = read_csv(args.csv, max_rows=args.max_rows)
    delta = read_csv(args.delta, max_rows=args.max_rows)
    if set(delta.attribute_names) != set(base.attribute_names):
        print(
            f"error: delta attributes {delta.attribute_names} do not match "
            f"base attributes {base.attribute_names}", file=sys.stderr,
        )
        return 2
    rows = delta.to_dicts()  # dict rows: column order may differ from base
    request = _request_from_args(args)

    with _session(base, args) as session:
        start = time.perf_counter()
        baseline = session.discover(request)
        baseline_seconds = time.perf_counter() - start

        start = time.perf_counter()
        summary = session.extend(rows)
        outcome = session.discover_incremental(request)
        # One timer across both: extend() already does repair work (kernel
        # calls on delta-touched classes), so splitting the two would
        # overstate the incremental win.
        incremental_seconds = time.perf_counter() - start

    result = outcome.result
    print(f"Baseline: {baseline.num_ocs} OCs, {baseline.num_ofds} OFDs over "
          f"{summary.old_num_rows} rows in {baseline_seconds:.3f}s")
    remapped = sorted(
        name for name, mode in summary.column_modes.items() if mode == "remapped"
    )
    print(f"Appended: {summary.num_appended} rows -> {summary.new_num_rows}; "
          f"{len(summary.affected_contexts)} of "
          f"{summary.patched_partitions} patched contexts changed; memo "
          f"entries: {summary.adjusted_memo_entries} adjusted, "
          f"{summary.invalidated_memo_entries} invalidated, "
          f"{summary.retained_memo_entries} retained"
          + (f"; remapped columns: {remapped}" if remapped else ""))
    print(f"Incremental: {result.num_ocs} OCs, {result.num_ofds} OFDs in "
          f"{incremental_seconds:.3f}s including the append "
          f"({result.stats.validation_memo_hits} validations served from "
          "the memo)")
    for found in outcome.revoked_ocs + outcome.revoked_ofds:
        print(f"  revoked: {found}")
    for found in outcome.added_ocs + outcome.added_ofds:
        print(f"  added:   {found}")
    if not outcome.num_revoked and not outcome.num_added:
        print("  dependency set unchanged")

    if args.verify_cold:
        # Rebuild the concatenated table from the raw inputs: the session's
        # relation carries the delta-extended encoding (adopt_encoding), and
        # a verification run that reused it would hide encoding bugs and
        # skip the re-encoding cost a real cold run pays.
        from repro.dataset.relation import Relation
        from repro.incremental.delta import diff_results

        concatenated = base.concat(Relation(
            base.schema,
            {name: delta.column(name) for name in base.attribute_names},
        ))
        start = time.perf_counter()
        cold = _one_shot(concatenated, args, request)
        cold_seconds = time.perf_counter() - start
        if (cold.ocs, cold.ofds) != (result.ocs, result.ofds):
            print("error: incremental result differs from the cold "
                  "re-discovery", file=sys.stderr)
            return 1
        reported = (outcome.revoked_ocs, outcome.revoked_ofds,
                    outcome.added_ocs, outcome.added_ofds)
        if reported != diff_results(baseline, cold):
            print("error: revoked/added dependencies differ from the diff "
                  "of the baseline and the cold re-discovery",
                  file=sys.stderr)
            return 1
        speedup = (cold_seconds / incremental_seconds
                   if incremental_seconds > 0 else float("inf"))
        print(f"Cold verification: identical result "
              f"({cold_seconds:.3f}s cold vs {incremental_seconds:.3f}s "
              f"incremental, {speedup:.2f}x)")
    return 0


def _cmd_serve(args) -> int:
    from repro.serve import (
        DEFAULT_MAX_INFLIGHT,
        DEFAULT_QUEUE_DEPTH,
        ProfilerService,
        make_server,
    )

    auth_token = args.auth_token or os.environ.get("REPRO_SERVE_TOKEN") or None
    service = ProfilerService(
        backend=args.backend, num_workers=args.workers,
        max_memo_entries=args.max_memo_entries,
        max_cached_partitions=args.max_cached_partitions,
        queue_depth=(args.queue_depth if args.queue_depth is not None
                     else DEFAULT_QUEUE_DEPTH),
        max_inflight=(args.max_inflight if args.max_inflight is not None
                      else DEFAULT_MAX_INFLIGHT),
        default_deadline_seconds=args.default_deadline,
        auth_token=auth_token,
        dataset_ttl_seconds=args.dataset_ttl,
    )
    if args.demo:
        service.add_dataset("demo", employee_salary_table())
    for path in args.csv:
        # Dataset names come from the file stem; colliding stems (two
        # files named data.csv in different directories) get a numeric
        # suffix instead of refusing to start.
        stem = Path(path).stem
        name, n = stem, 2
        while name in service.dataset_names:
            name = f"{stem}-{n}"
            n += 1
        service.add_dataset(name, read_csv(path, max_rows=args.max_rows))
    if not service.dataset_names and auth_token is None:
        # With lifecycle auth configured, starting empty is fine: datasets
        # arrive over PUT /datasets/<name>.  Without it, an empty server
        # is almost certainly a typo'd invocation.
        print("error: provide at least one CSV file or --demo "
              "(or --auth-token to start empty and upload over HTTP)",
              file=sys.stderr)
        service.close()
        return 2

    server = make_server(service, host=args.host, port=args.port, quiet=False,
                         request_timeout=args.request_timeout)
    host, port = server.server_address[:2]
    print(f"repro serve: {len(service.dataset_names)} dataset(s) "
          f"{service.dataset_names} on http://{host}:{port}")
    print("endpoints: GET /healthz | GET /metrics | GET /datasets | "
          'POST /discover {"dataset": ..., "request": {...}, '
          '"stream": false, "deadline_seconds": ...} | '
          "POST /datasets/<name>/append "
          '{"rows": [...], "request": {...}} | '
          "PUT /datasets/<name> (csv or json upload) | "
          "DELETE /datasets/<name>")

    # serve_forever() must not run on the thread that later calls
    # shutdown(): BaseServer.shutdown() blocks until the serve loop
    # acknowledges, and a signal handler interrupting serve_forever's own
    # thread would deadlock.  So the accept loop lives on a worker thread
    # and the main thread sleeps on an Event that SIGINT/SIGTERM set.
    stop = threading.Event()

    def _request_stop(signum, frame):  # noqa: ARG001 - signal signature
        stop.set()

    previous_handlers = {}
    for signum in (signal.SIGINT, signal.SIGTERM):
        previous_handlers[signum] = signal.signal(signum, _request_stop)

    loop = threading.Thread(
        target=server.serve_forever, name="repro-serve-accept", daemon=True
    )
    loop.start()
    try:
        stop.wait()
    finally:
        for signum, handler in previous_handlers.items():
            signal.signal(signum, handler)
        print("repro serve: draining "
              f"(grace {args.grace_period:.0f}s) ...")
        drained = server.shutdown_gracefully(grace_seconds=args.grace_period)
        loop.join(timeout=5.0)
        print("repro serve: shut down "
              + ("cleanly" if drained else "after cancelling in-flight work"))
    return 0


def _print_ranked(result, relation, args) -> None:
    print(f"Top {args.top} order compatibilities:")
    for found in result.ranked_ocs(args.top):
        print(f"  {found}")
    print()
    print(f"Top {args.top} order functional dependencies:")
    for found in result.ranked_ofds(args.top):
        print(f"  {found}")

    if args.outliers:
        report = detect_outliers(relation, result)
        print()
        print("Most suspicious tuples (row index, score):")
        for row, score in report.top(args.top):
            print(f"  row {row}: score={score:.3f}, values={relation.row(row)}")


# -- text tables (also rendered by the benchmark reports) ---------------------


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
    """Render one series per column as a table: one row per x value (plus
    optional annotation columns such as "#AOCs")."""
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


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
