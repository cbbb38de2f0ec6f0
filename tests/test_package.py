"""The package and its distribution metadata agree."""

import re
from pathlib import Path

import repro


def test_version_matches_pyproject():
    """``repro.__version__`` is the version ``pyproject.toml`` declares."""
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    declared = re.search(
        r'^version\s*=\s*"([^"]+)"', pyproject.read_text(encoding="utf-8"),
        re.MULTILINE,
    )
    assert declared is not None
    assert repro.__version__ == declared.group(1)
