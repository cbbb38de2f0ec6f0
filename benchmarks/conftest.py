"""Shared infrastructure for the benchmark suites.

Every ``bench_exp*.py`` module reproduces one experiment (table or figure)
of the paper's evaluation section.  Benchmarks accumulate their measurements
in module-level dictionaries and, when the module finishes, render the same
series the paper plots via the ``figure_report`` fixture (printed to
stdout).  The persistent artifact is ``results/BENCH_discovery.json``;
``results/summary.txt`` is *regenerated wholesale* from that JSON
(:func:`benchlib.reporting.write_bench_summary`, invoked by the e2e
suite) — it is never appended to, so repeated runs cannot accumulate
duplicate blocks the way the old append-on-report flow did.

The workloads are synthetic, scaled-down stand-ins for the paper's
``flight`` and ``ncvoter`` datasets; the absolute numbers differ from the
paper's Java/Xeon setup, but the *shape* of every series — who wins, by
roughly what factor, where the curves cross — is what the suite
regenerates.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"

# ``conftest.py`` at the repository root already puts ``src`` on sys.path;
# repeat it here so the benchmarks also run when invoked from this directory.
SRC = Path(__file__).parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


@pytest.fixture(scope="session")
def figure_report():
    """Return a callable that renders one figure's data to stdout.

    Persistence happens through ``BENCH_discovery.json`` (and the
    summary regenerated from it), not here: appending the rendered text
    to ``summary.txt`` per call made the file drift — every run grew a
    fresh copy of every figure."""
    RESULTS_DIR.mkdir(exist_ok=True)

    def _report(title, x_label, x_values, series, annotations=None, notes=None):
        from benchlib.reporting import render_figure

        text = render_figure(title, x_label, x_values, series, annotations, notes)
        print()
        print(text)
        return text

    return _report


@pytest.fixture(scope="session")
def small_scale():
    """Global scale factor for the benchmark workloads.

    The paper runs on millions of tuples on a Xeon with a Java
    implementation; this pure-Python reproduction uses thousands.  The
    factor is centralised here so a user with more patience can raise it
    (e.g. ``REPRO_BENCH_SCALE=10 pytest benchmarks/ --benchmark-only``).
    """
    import os

    return int(os.environ.get("REPRO_BENCH_SCALE", "1"))
