"""Structured logging: namespace and configuration.

Records go out under the ``repro`` namespace and stay silent by default
(NullHandler, library etiquette).
"""

import logging

import pytest

from repro.obs import configure_logging, get_logger
from repro.obs.log import ENV_VAR, resolve_level


def test_loggers_live_under_the_repro_namespace():
    logger = get_logger("serve.http")
    assert logger.name == "repro.serve.http"
    root = logging.getLogger("repro")
    assert any(
        isinstance(handler, logging.NullHandler) for handler in root.handlers
    ), "the library must stay silent by default"


def test_resolve_level_accepts_names_and_env(monkeypatch):
    assert resolve_level("debug") == logging.DEBUG
    assert resolve_level("WARN") == logging.WARNING
    monkeypatch.setenv(ENV_VAR, "INFO")
    assert resolve_level(None) == logging.INFO
    monkeypatch.delenv(ENV_VAR)
    assert resolve_level(None) is None
    with pytest.raises(ValueError):
        resolve_level("chatty")


def test_configure_is_idempotent_and_unconfigured_is_a_noop(monkeypatch):
    monkeypatch.delenv(ENV_VAR, raising=False)
    assert configure_logging(None) is None  # nothing requested: no handler
    root = logging.getLogger("repro")
    before = list(root.handlers)
    assert configure_logging("INFO") == logging.INFO
    assert configure_logging("DEBUG") == logging.DEBUG
    # Reconfiguring replaced its own handler instead of stacking a second.
    added = [h for h in root.handlers if h not in before]
    assert len(added) == 1
    root.removeHandler(added[0])
    root.setLevel(logging.NOTSET)
