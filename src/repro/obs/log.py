"""Structured logging for repro (`repro.obs`, satellite).

All loggers live under the ``repro`` namespace and carry a
``NullHandler`` by default, so library users see nothing unless they (or
the CLI) opt in.  The CLI wires ``--log-level`` and the
``REPRO_LOG_LEVEL`` environment variable through :func:`configure`.

Paths that would otherwise degrade silently — the native kernels falling
back to the reference loops, graceful-shutdown cancellations — emit
WARN/INFO records through :func:`get_logger`.
"""

from __future__ import annotations

import logging
import os
import sys
from typing import Optional

#: Environment variable consulted when no explicit level is given.
ENV_VAR = "REPRO_LOG_LEVEL"

_LEVELS = ("CRITICAL", "ERROR", "WARNING", "WARN", "INFO", "DEBUG")

_root = logging.getLogger("repro")
_root.addHandler(logging.NullHandler())

_handler: Optional[logging.Handler] = None


def get_logger(name: Optional[str] = None) -> logging.Logger:
    """A logger under the ``repro`` namespace (the root one if unnamed)."""
    if not name:
        return _root
    return _root.getChild(name)


def resolve_level(level: Optional[str]) -> Optional[int]:
    """Map a level name (or ``None`` → ``$REPRO_LOG_LEVEL``) to an int.

    Returns ``None`` when neither source names a level; raises
    ``ValueError`` on an unknown name so the CLI can report it.
    """
    resolved = level if level is not None else os.environ.get(ENV_VAR)
    if resolved is None or resolved == "":
        return None
    upper = str(resolved).upper()
    if upper not in _LEVELS:
        raise ValueError(
            f"unknown log level {resolved!r} (choose from "
            f"{', '.join(_LEVELS)})"
        )
    return logging.getLevelName("WARNING" if upper == "WARN" else upper)


def configure(level: Optional[str] = None, stream=None) -> Optional[int]:
    """Attach a stderr handler at ``level`` (or ``$REPRO_LOG_LEVEL``).

    No-op when neither names a level — the NullHandler default stands.
    Reconfiguring replaces the previously attached handler, so repeated
    calls (tests, embedded use) never stack duplicate output.  Returns
    the numeric level in effect, or ``None`` when left unconfigured.
    """
    global _handler
    numeric = resolve_level(level)
    if numeric is None:
        return None
    if _handler is not None:
        _root.removeHandler(_handler)
    _handler = logging.StreamHandler(stream or sys.stderr)
    _handler.setFormatter(logging.Formatter(
        "%(asctime)s %(levelname)s %(name)s: %(message)s"
    ))
    _root.addHandler(_handler)
    _root.setLevel(numeric)
    return numeric
