"""Repository-level pytest configuration.

Ensures ``src/`` is importable even when the package has not been installed
(e.g. running ``pytest`` straight after a fresh clone on an offline
machine), and ``benchmarks/`` too, for the measurement harness
``benchlib`` that the benchmark suites and some tests import.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).parent
for path in (ROOT / "benchmarks", ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
