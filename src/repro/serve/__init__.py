"""Resilient HTTP serving for the discovery engine.

This package is the serve layer; its public surface is re-exported here
(``from repro.serve import ProfilerService, make_server``).

Modules
-------
``admission``
    Bounded per-dataset admission queues with a global in-flight cap,
    EWMA-based ``Retry-After`` estimation, drain support.
``service``
    :class:`ProfilerService` — dataset registry, result-cache counters,
    dataset lifecycle (upload / evict / TTL sweep), deadlines, graceful
    shutdown.
``http``
    Request handler, disconnect watchdog, streaming, fault hook points,
    :func:`make_server`.
"""

from repro.serve.admission import (
    DEFAULT_MAX_INFLIGHT,
    DEFAULT_QUEUE_DEPTH,
    AdmissionCancelled,
    AdmissionController,
    AdmissionError,
    AdmissionTicket,
    Draining,
    QueueFull,
    ServerSaturated,
)
from repro.serve.http import (
    DEFAULT_MAX_BODY_BYTES,
    DEFAULT_MAX_UPLOAD_BYTES,
    DEFAULT_REQUEST_SOCKET_TIMEOUT_SECONDS,
    DEFAULT_SHUTDOWN_GRACE_SECONDS,
    ResilientHTTPServer,
    make_server,
)
from repro.serve.service import LIFECYCLE_COUNTERS, ProfilerService, ServiceError

__all__ = [
    "AdmissionCancelled",
    "AdmissionController",
    "AdmissionError",
    "AdmissionTicket",
    "DEFAULT_MAX_BODY_BYTES",
    "DEFAULT_MAX_INFLIGHT",
    "DEFAULT_MAX_UPLOAD_BYTES",
    "DEFAULT_QUEUE_DEPTH",
    "DEFAULT_REQUEST_SOCKET_TIMEOUT_SECONDS",
    "DEFAULT_SHUTDOWN_GRACE_SECONDS",
    "Draining",
    "LIFECYCLE_COUNTERS",
    "ProfilerService",
    "QueueFull",
    "ResilientHTTPServer",
    "ServerSaturated",
    "ServiceError",
    "make_server",
]
