"""Threshold sensitivity through a warm ``Profiler`` session (Exp-3's loop).

Sweeps the approximation threshold from 0% to 25% on an ncvoter-like
workload with **one warm `Profiler` session per validator** — the session
encodes the relation once, shares the partition cache across all ε values
and memoises validation outcomes, so later thresholds revalidate only what
a new removal budget actually changes.  Reported per validator:

* per-threshold runtime *inside the warm session* (the sweep executes
  largest-ε first, so almost all cost lands on the first run and the
  rest is served from the memo — the timing column demonstrates
  warm-cache reuse, **not** per-threshold validator cost),
* number of discovered OCs/AOCs and their average lattice level.

The discovered-dependency series matches the paper: more (and more
general, lower-level) AOCs as the threshold grows.  For the *cold*
per-threshold runtime shape of Figure 4 — optimal flat, iterative roughly
linear in ε — run ``benchmarks/bench_exp3_threshold.py``, which times
every threshold from scratch.

Run with::

    python examples/threshold_sensitivity.py [num_rows]
"""

import sys

from repro import Profiler
from repro.cli import format_series_table
from repro.dataset.generators import generate_ncvoter_like


def main(num_rows: int = 800) -> None:
    workload = generate_ncvoter_like(num_rows, num_attributes=8,
                                     error_rate=0.1, seed=7)
    relation = workload.relation
    print(workload.description)
    print()

    thresholds = [0.0, 0.05, 0.10, 0.15, 0.20, 0.25]
    series = {}
    caches = {}
    for validator in ("optimal", "iterative"):
        with Profiler(relation) as session:
            series[validator] = session.sweep(
                thresholds, validator=validator, max_level=4
            )
            caches[validator] = session.cache_info()

    optimal = series["optimal"]
    levels = []
    for result in optimal:
        average = result.average_oc_level()
        levels.append(round(average, 2) if average else "-")

    print(format_series_table(
        "threshold",
        [f"{t:.0%}" for t in thresholds],
        {
            "optimal (warm) s": [r.stats.total_seconds for r in optimal],
            "iterative (warm) s": [
                r.stats.total_seconds for r in series["iterative"]
            ],
        },
        annotations={
            "#AOCs": [r.num_ocs for r in optimal],
            "avg level": levels,
            "memo hits": [r.stats.validation_memo_hits for r in optimal],
        },
    ))
    print()
    for validator, cache in caches.items():
        print(f"warm session ({validator}): partition cache {cache['hits']} hits"
              f" / {cache['misses']} misses, "
              f"{cache['validation_memo_entries']} memoised validations "
              f"[{cache['backend']} backend]")
    print()
    print("Each validator ran inside ONE Profiler session: the relation was")
    print("encoded once and partitions/validation outcomes were reused across")
    print("all thresholds.  Sweeps execute largest-ε first so removal counts")
    print("transfer to every smaller budget — that is why the timing columns")
    print("concentrate on the largest threshold and the memo serves the rest.")
    print()
    print("The dependency series matches the paper: more (and lower-level)")
    print("AOCs as ε grows.  For Figure 4's COLD per-threshold runtime shape")
    print("(optimal flat, iterative ~linear), run")
    print("benchmarks/bench_exp3_threshold.py.")


if __name__ == "__main__":
    rows = int(sys.argv[1]) if len(sys.argv) > 1 else 800
    main(rows)
