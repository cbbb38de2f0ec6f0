"""The compute backend (see :mod:`repro.backend.numpy_backend`).

Backend selection
-----------------

Every entry point that touches a hot path accepts a ``backend`` argument:
a :class:`ComputeBackend` instance, a registry name (``"python"`` /
``"numpy"``), ``"auto"`` or ``None``.  Resolution order:

1. an explicit instance or name wins;
2. ``None`` defers to the ``REPRO_BACKEND`` environment variable;
3. unset (or ``"auto"``) means ``"numpy"``.

Both names select the one backend class, in one of two configurations:
``"numpy"`` runs every fast path (vectorised encoding, and the native
refine and count kernels when the library loads), ``"python"`` is the
reference configuration with every fast path off (the reference encoder,
the lexsort refine and the reference count loops).  NumPy is a required
dependency.
"""

from __future__ import annotations

import os
from typing import Dict, Union

from repro.backend.base import ComputeBackend

#: Values accepted by ``DiscoveryConfig.backend`` and the CLI ``--backend``.
BACKEND_CHOICES = ("auto", "python", "numpy")

#: Environment variable consulted when no backend is requested explicitly.
BACKEND_ENV_VAR = "REPRO_BACKEND"

_instances: Dict[str, ComputeBackend] = {}

BackendSpec = Union[None, str, ComputeBackend]


def default_backend_name() -> str:
    """The backend name used when nothing is requested explicitly.

    Honours ``REPRO_BACKEND``; otherwise ``"numpy"``.
    """
    requested = os.environ.get(BACKEND_ENV_VAR, "").strip().lower()
    if requested and requested != "auto":
        return requested
    return "numpy"


def get_backend(name: str) -> ComputeBackend:
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


def resolve_backend(spec: BackendSpec = None) -> ComputeBackend:
    """Resolve a backend spec (instance, name, ``"auto"`` or ``None``)."""
    if isinstance(spec, ComputeBackend):
        return spec
    if spec is None:
        return get_backend(default_backend_name())
    return get_backend(spec)


__all__ = [
    "BACKEND_CHOICES",
    "BACKEND_ENV_VAR",
    "BackendSpec",
    "ComputeBackend",
    "default_backend_name",
    "get_backend",
    "resolve_backend",
]
