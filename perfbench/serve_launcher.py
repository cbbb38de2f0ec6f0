"""Run ``repro serve`` with the layer clock installed in the server process.

Usage: ``python3 perfbench/serve_launcher.py serve <repro serve options>``.
Every SIGUSR1 prints one line, ``PERFBENCH_SNAPSHOT <json>``, holding the
clock's cumulative per-layer totals; the benchmark differences two of them
around its measured phase.
"""

from __future__ import annotations

import json
import signal
import sys

import common
from layers import LayerClock
from servemix import SNAPSHOT_PREFIX


def main() -> int:
    common.use_program_source()
    clock = LayerClock()
    clock.install()

    def dump(signum, frame):  # noqa: ARG001 - signal signature
        print(SNAPSHOT_PREFIX + json.dumps(clock.snapshot()), flush=True)

    signal.signal(signal.SIGUSR1, dump)
    from repro.cli import main as repro_main

    return repro_main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
