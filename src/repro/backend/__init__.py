"""The compute backend (see :mod:`repro.backend.numpy_backend`).

Backend selection
-----------------

Every entry point that touches a hot path accepts a ``backend`` argument:
a :class:`~repro.backend.numpy_backend.NumpyBackend` instance, a registry
name (``"python"`` / ``"numpy"``), ``"auto"`` or ``None``.  Resolution
order:

1. an explicit instance or name wins;
2. ``None`` defers to the ``REPRO_BACKEND`` environment variable;
3. unset (or ``"auto"``) means ``"numpy"``.

Both names select the one backend class, in one of two configurations:
``"numpy"`` runs every fast path (vectorised encoding, and the native
refine and count kernels when the library loads), ``"python"`` is the
reference configuration with every fast path off (the reference encoder,
the lexsort refine and the reference count loops).  NumPy is a required
dependency, imported on first backend use: ``import repro`` and building
requests stay NumPy-free.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Dict, Union

if TYPE_CHECKING:
    from repro.backend.numpy_backend import NumpyBackend

#: Names accepted by ``DiscoveryEngine(backend=...)`` and the CLI ``--backend``.
BACKEND_CHOICES = ("auto", "python", "numpy")

#: Environment variable consulted when no backend is requested explicitly.
BACKEND_ENV_VAR = "REPRO_BACKEND"

_instances: Dict[str, "NumpyBackend"] = {}

BackendSpec = Union[None, str, "NumpyBackend"]


def default_backend_name() -> str:
    """The backend name used when nothing is requested explicitly.

    Honours ``REPRO_BACKEND``; otherwise ``"numpy"``.
    """
    requested = os.environ.get(BACKEND_ENV_VAR, "").strip().lower()
    if requested and requested != "auto":
        return requested
    return "numpy"


def get_backend(name: str) -> "NumpyBackend":
    """Return the (singleton) backend registered under ``name``."""
    name = name.strip().lower()
    if name == "auto":
        name = "numpy"
    if name not in BACKEND_CHOICES:
        raise ValueError(
            f"unknown compute backend {name!r}; expected one of {BACKEND_CHOICES}"
        )
    cached = _instances.get(name)
    if cached is None:
        from repro.backend.numpy_backend import NumpyBackend

        cached = _instances[name] = NumpyBackend(reference=name == "python")
    return cached


def resolve_backend(spec: BackendSpec = None) -> "NumpyBackend":
    """Resolve a backend spec (instance, name, ``"auto"`` or ``None``).

    Anything that is neither ``None`` nor a string is taken to be a
    backend instance, so resolving one never imports NumPy.
    """
    if spec is None:
        return get_backend(default_backend_name())
    if isinstance(spec, str):
        return get_backend(spec)
    return spec


__all__ = [
    "BACKEND_CHOICES",
    "BACKEND_ENV_VAR",
    "BackendSpec",
    "default_backend_name",
    "get_backend",
    "resolve_backend",
]
