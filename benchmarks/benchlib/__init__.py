"""Measurement harness shared by the ``benchmarks/`` suites.

The paper's evaluation (Section 4) consists of parameter sweeps — over the
number of tuples (Exp-1), the number of attributes (Exp-2) and the
approximation threshold (Exp-3) — each producing one runtime series per
algorithm ("OD", "AOD (optimal)", "AOD (iterative)") plus the number of
discovered dependencies annotated on the plots.  This package provides:

* :mod:`benchlib.harness` — timed runs of the discovery framework
  with each validator, with timeouts and projection for the iterative
  series (the paper projects the points it could not finish within 24h),
* :mod:`benchlib.workloads` — the named workload definitions used by
  the experiments (scaled-down flight-like and ncvoter-like tables),
* :mod:`benchlib.reporting` — figure and summary renderers (on the
  CLI's text tables) that print the same rows/series the paper reports.
"""

from benchlib.harness import (
    DiscoveryMeasurement,
    compare_validators_on_candidates,
    measure_discovery,
    run_sweep,
)
from benchlib.workloads import WorkloadSpec, make_workload
from benchlib.reporting import render_figure

__all__ = [
    "DiscoveryMeasurement",
    "WorkloadSpec",
    "compare_validators_on_candidates",
    "make_workload",
    "measure_discovery",
    "render_figure",
    "run_sweep",
]
