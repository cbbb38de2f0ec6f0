"""The HTTP front of ``repro serve``: routing, deadlines, graceful exit.

Endpoints (JSON in, JSON out; no dependencies beyond the stdlib):

``GET /healthz``
    ``{"status": "ok"|"draining", "backend": <name>, "oc_kernel":
    "native"|"numpy"|"python", "datasets": <count>, "result_cache":
    {...}, "admission": {...}, "lifecycle": {...}, "metrics": {...}}``.  The admission block reports
    queue depth/cap configuration, live in-flight counts, per-dataset
    queue state and every admission decision counter; the lifecycle block
    carries upload/eviction/deadline/disconnect counters, the TTL setting
    and whether lifecycle auth is required.

``GET /metrics``
    Prometheus text exposition of the process-wide registry — engine
    and cache families plus the serve families
    (admissions, rejections, queue-wait and request-latency histograms,
    deadline timeouts, disconnect cancellations, lifecycle counters).

``GET /datasets``
    The loaded datasets with row/attribute counts, pinned/idle state and
    warm-cache info.

``POST /discover``
    Body: ``{"dataset": ..., "request": {...}, "stream": bool,
    "deadline_seconds": <number>}``.  Queues through admission control:
    a full per-dataset queue answers ``429 Too Many Requests``, a
    saturated or draining server ``503``, both with a ``Retry-After``
    header computed from observed run times.  ``deadline_seconds`` bounds
    queue wait plus run time; a deadline that fires mid-run cancels the
    engine and answers ``504``.  With ``"stream": true`` the response is
    NDJSON level events; a client that disconnects mid-stream is detected
    by a socket watchdog and the underlying engine run is cancelled at its
    next group boundary, so abandoned requests stop burning CPU.

``POST /datasets/<name>/append``
    As before (append + optional revalidation), now admission-queued and
    deadline-aware like ``/discover``.

``PUT /datasets/<name>``
    Upload a dataset: ``text/csv`` body (header row first) or JSON
    ``{"attributes": [...], "rows": [[...], ...]}``.  ``409`` when the
    name exists.  Gated by ``Authorization: Bearer <token>`` when the
    server was started with an auth token.

``DELETE /datasets/<name>``
    Evict a dataset: the name disappears immediately, an executing run is
    drained briefly then cancelled, and the session closes.  Same
    bearer-token gate.

Shutdown: :meth:`ResilientHTTPServer.shutdown_gracefully` stops accepting,
refuses queued work with 503, drains executing runs within a bounded grace
period (cancelling stragglers through their tokens), then closes sessions
deterministically.
"""

from __future__ import annotations

import json
import math
import select
import socket
import struct
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional
from urllib.parse import parse_qs, unquote, urlsplit

from repro.discovery.config import DiscoveryRequest
from repro.discovery.session import CancellationToken
from repro.obs import get_logger, get_metrics
from repro.serve.admission import (
    AdmissionCancelled,
    AdmissionError,
    Draining,
    QueueFull,
    ServerSaturated,
)
from repro.serve.service import ProfilerService, ServiceError

log = get_logger("serve.http")

#: Socket-level timeout (reads AND writes), seconds.  Without it, a
#: streaming client that stops reading blocks flush() forever while the
#: handler holds the dataset's admission slot, wedging all discovery on
#: that dataset; a slow-loris body upload would likewise pin its handler
#: thread indefinitely.  Override per server with ``repro serve
#: --request-timeout`` / ``make_server(request_timeout=...)``.
DEFAULT_REQUEST_SOCKET_TIMEOUT_SECONDS = 300.0

#: Upper bound on ordinary request bodies (discover/append JSON).
DEFAULT_MAX_BODY_BYTES = 1 << 20

#: Upper bound on dataset-upload bodies (``PUT /datasets/<name>``).
DEFAULT_MAX_UPLOAD_BYTES = 32 << 20

#: Default bounded grace for draining in-flight work at shutdown.
DEFAULT_SHUTDOWN_GRACE_SECONDS = 10.0

#: How often the disconnect watchdog peeks at the client socket, seconds.
DISCONNECT_POLL_SECONDS = 0.05


class _FaultClose(Exception):
    """Internal: a fault-injection action asked to abort this connection."""


class _DisconnectWatch:
    """Background watcher that cancels a run when its client goes away.

    The engine only touches the socket *between* levels, so without this a
    client that disconnects mid-level keeps the server computing until the
    next write fails.  The watchdog peeks the connection (``MSG_PEEK``
    after ``select``); an EOF or socket error fires the run's cancellation
    token with reason ``"disconnect"`` and the engine stops at its next
    group-boundary check.  A client that *sends* unexpected bytes stops
    the watch instead (never consume, never spin).
    """

    def __init__(self, connection: socket.socket, token: CancellationToken,
                 on_disconnect=None) -> None:
        self._connection = connection
        self._token = token
        self._on_disconnect = on_disconnect
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="repro-disconnect-watch", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()

    def _run(self) -> None:
        while not self._stop.wait(DISCONNECT_POLL_SECONDS):
            try:
                readable, _, _ = select.select(
                    [self._connection], [], [], 0
                )
                if not readable:
                    continue
                data = self._connection.recv(1, socket.MSG_PEEK)
            except (OSError, ValueError):
                self._fire()
                return
            if data == b"":
                self._fire()
                return
            return  # unexpected client bytes: stop watching, don't spin

    def _fire(self) -> None:
        if self._stop.is_set():
            return
        # cancel() reports whether *this* call fired the token, so a
        # watchdog racing a failed socket write attributes the disconnect
        # exactly once between them.
        if self._token.cancel("disconnect") and self._on_disconnect is not None:
            self._on_disconnect()


class _Handler(BaseHTTPRequestHandler):
    """Routes HTTP requests onto the :class:`ProfilerService`."""

    # HTTP/1.0 keeps the streaming path simple: no chunked framing needed,
    # the connection close terminates the NDJSON stream.
    protocol_version = "HTTP/1.0"
    server_version = "repro-serve"
    timeout = DEFAULT_REQUEST_SOCKET_TIMEOUT_SECONDS

    # Populated by make_server().
    service: ProfilerService = None  # type: ignore[assignment]
    quiet = True
    #: Test-only HTTP fault hook (see :mod:`repro.serve.chaos`).
    fault_injector = None

    #: Upper bound on request bodies: requests are small JSON documents,
    #: so anything past this is a client error, not a payload to buffer.
    max_body_bytes = DEFAULT_MAX_BODY_BYTES
    #: Upper bound on dataset uploads, which are legitimately larger.
    max_upload_bytes = DEFAULT_MAX_UPLOAD_BYTES

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if not self.quiet:
            super().log_message(format, *args)

    # -- helpers -----------------------------------------------------------------

    def _send_json(self, status: int, payload: Dict[str, object],
                   headers: Optional[Dict[str, str]] = None) -> None:
        self._fault("pre_response")
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_error_json(self, status: int, message: str,
                         retry_after: Optional[int] = None,
                         **extra: object) -> None:
        payload: Dict[str, object] = {"error": message}
        payload.update(extra)
        headers = {}
        if retry_after is not None:
            payload["retry_after"] = retry_after
            headers["Retry-After"] = str(retry_after)
        self._send_json(status, payload, headers=headers)

    def _send_service_error(self, error: ServiceError) -> None:
        self._send_error_json(error.status, str(error), **error.extra)

    def _send_admission_error(self, error: AdmissionError,
                              token: Optional[CancellationToken]) -> None:
        if isinstance(error, QueueFull):
            self._send_error_json(429, str(error),
                                  retry_after=error.retry_after)
        elif isinstance(error, (ServerSaturated, Draining)):
            self._send_error_json(503, str(error),
                                  retry_after=error.retry_after)
        elif isinstance(error, AdmissionCancelled):
            if token is not None and token.reason == "deadline":
                self.service.note_deadline_timeout()
                self._send_error_json(
                    504, "request deadline exceeded while queued"
                )
            # disconnect/shutdown: nobody is listening — close quietly.
        else:  # pragma: no cover - defensive
            self._send_error_json(503, str(error))

    def _send_metrics(self) -> None:
        self._fault("pre_response")
        body = self.service.metrics_text().encode("utf-8")
        self.send_response(200)
        self.send_header(
            "Content-Type", "text/plain; version=0.0.4; charset=utf-8"
        )
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _fault(self, point: str, **context) -> None:
        """Test-only fault hook; raises :class:`_FaultClose` on drop/reset."""
        injector = self.fault_injector
        if injector is None:
            return
        action = injector.take(point, self.path, **context)
        if action is None:
            return
        if action.kind == "stall":
            time.sleep(action.delay_seconds)
        elif action.kind == "drop":
            raise _FaultClose()
        elif action.kind == "reset":
            try:
                self.connection.setsockopt(
                    socket.SOL_SOCKET, socket.SO_LINGER,
                    # linger on, timeout 0: close() sends RST, not FIN.
                    struct.pack("ii", 1, 0),
                )
            except OSError:
                pass
            raise _FaultClose()

    def _read_raw_body(self, limit: int) -> bytes:
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            raise ServiceError(400, "invalid Content-Length header")
        if length < 0:
            raise ServiceError(400, "invalid Content-Length header")
        if length > limit:
            # 413, with the limit echoed so clients can right-size
            # without reading docs.
            raise ServiceError(
                413,
                f"request body too large ({length} bytes; "
                f"limit {limit})",
                limit_bytes=limit,
            )
        return self.rfile.read(length) if length else b""

    def _read_body(self) -> Dict[str, object]:
        raw = self._read_raw_body(self.max_body_bytes)
        if not raw:
            return {}
        try:
            body = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise ServiceError(400, f"invalid JSON body: {error}")
        if not isinstance(body, dict):
            raise ServiceError(400, "JSON body must be an object")
        return body

    def _require_auth(self) -> None:
        token = self.service.auth_token
        if token is None:
            return
        header = self.headers.get("Authorization") or ""
        if header != f"Bearer {token}":
            raise ServiceError(
                401, "lifecycle endpoints require a bearer token"
            )

    def _parse_deadline(self, body: Dict[str, object]) -> Optional[float]:
        deadline = body.get("deadline_seconds")
        if deadline is None:
            return None
        if isinstance(deadline, bool) or not isinstance(deadline, (int, float)):
            raise ServiceError(
                400, f"deadline_seconds must be a number, got {deadline!r}"
            )
        # json.loads lets bare NaN / Infinity through, and NaN compares
        # False with everything, so test the accepted range.
        if not (math.isfinite(deadline) and deadline > 0):
            raise ServiceError(
                400, f"deadline_seconds must be a finite number > 0, "
                f"got {deadline!r}"
            )
        return float(deadline)

    def _path_only(self) -> str:
        """Request path with any query string stripped."""
        return urlsplit(self.path).path

    def _query_flag(self, name: str) -> bool:
        """True when the query string carries ``name=1`` / ``name=true``."""
        values = parse_qs(urlsplit(self.path).query).get(name) or []
        return any(v.lower() in ("1", "true", "yes") for v in values)

    def _dataset_path(self) -> Optional[str]:
        """Dataset name from a ``/datasets/<name>`` path, else None."""
        parts = self._path_only().split("/")
        if len(parts) == 3 and parts[0] == "" and parts[1] == "datasets" \
                and parts[2]:
            return unquote(parts[2])
        return None

    def _append_path_dataset(self) -> Optional[str]:
        """Dataset name from a ``/datasets/<name>/append`` path, else None."""
        parts = self._path_only().split("/")
        if len(parts) == 4 and parts[0] == "" and parts[1] == "datasets" \
                and parts[2] and parts[3] == "append":
            return unquote(parts[2])
        return None

    # -- routes ------------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        get_metrics().counter("repro_serve_requests_total").inc()
        try:
            if self.path in ("/", "/healthz"):
                draining = self.service.admission.draining
                self._send_json(200, {
                    "status": "draining" if draining else "ok",
                    **self.service.compute_info(),
                    "datasets": len(self.service.dataset_names),
                    "result_cache": self.service.result_cache_stats(),
                    "admission": self.service.admission.snapshot(),
                    "lifecycle": self.service.lifecycle_stats(),
                    "metrics": self.service.metrics_snapshot(),
                })
            elif self.path == "/metrics":
                self._send_metrics()
            elif self.path == "/datasets":
                self._send_json(200, {"datasets": self.service.describe()})
            else:
                self._send_error_json(404, f"unknown path {self.path!r}")
        except ServiceError as error:
            self._send_service_error(error)
        except _FaultClose:
            self.close_connection = True
        except OSError:
            pass  # client went away mid-response: routine disconnect

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        get_metrics().counter("repro_serve_requests_total").inc()
        try:
            self._handle_post()
        except _FaultClose:
            self.close_connection = True
        except OSError:
            pass  # client went away mid-response: routine disconnect

    def do_PUT(self) -> None:  # noqa: N802 - stdlib naming
        get_metrics().counter("repro_serve_requests_total").inc()
        try:
            self._handle_put()
        except ServiceError as error:
            self._send_service_error(error)
        except _FaultClose:
            self.close_connection = True
        except OSError:
            pass

    def do_DELETE(self) -> None:  # noqa: N802 - stdlib naming
        get_metrics().counter("repro_serve_requests_total").inc()
        try:
            self._handle_delete()
        except ServiceError as error:
            self._send_service_error(error)
        except _FaultClose:
            self.close_connection = True
        except OSError:
            pass

    # -- lifecycle routes --------------------------------------------------------

    def _handle_put(self) -> None:
        name = self._dataset_path()
        if name is None:
            self._send_error_json(404, f"unknown path {self.path!r}")
            return
        self._require_auth()
        raw = self._read_raw_body(self.max_upload_bytes)
        if not raw:
            raise ServiceError(400, "upload body must not be empty")
        content_type = (self.headers.get("Content-Type") or "").split(";")[0]
        relation, pinned = self._parse_upload(raw, content_type.strip())
        # CSV uploads can't carry a pinned flag in the body; accept
        # ``?pinned=1`` on the URL for both forms.
        pinned = pinned or self._query_flag("pinned")
        payload = self.service.upload_dataset(name, relation, pinned=pinned)
        self._send_json(201, payload)

    @staticmethod
    def _parse_upload(raw: bytes, content_type: str):
        from repro.dataset.relation import Relation

        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as error:
            raise ServiceError(400, f"upload body is not UTF-8: {error}")
        if content_type in ("text/csv", "application/csv"):
            from repro.dataset.csv_io import read_csv_text

            try:
                return read_csv_text(text), False
            except ValueError as error:
                raise ServiceError(400, f"invalid CSV upload: {error}")
        try:
            body = json.loads(text)
        except json.JSONDecodeError as error:
            raise ServiceError(
                400,
                "upload must be text/csv or a JSON object with "
                f"'attributes' and 'rows' ({error})",
            )
        if not isinstance(body, dict):
            raise ServiceError(400, "JSON upload must be an object")
        attributes = body.get("attributes")
        rows = body.get("rows")
        if not isinstance(attributes, list) or not attributes \
                or not all(isinstance(a, str) for a in attributes):
            raise ServiceError(
                400, "upload 'attributes' must be a non-empty string array"
            )
        if not isinstance(rows, list):
            raise ServiceError(400, "upload 'rows' must be an array of rows")
        pinned = body.get("pinned", False)
        if not isinstance(pinned, bool):
            raise ServiceError(400, "upload 'pinned' must be a boolean")
        try:
            return Relation.from_rows(rows, attributes), pinned
        except (TypeError, ValueError) as error:
            raise ServiceError(400, f"invalid upload rows: {error}")

    def _handle_delete(self) -> None:
        name = self._dataset_path()
        if name is None:
            self._send_error_json(404, f"unknown path {self.path!r}")
            return
        self._require_auth()
        payload = self.service.evict_dataset(name)
        self._send_json(200, payload)

    # -- discovery routes --------------------------------------------------------

    def _handle_post(self) -> None:
        append_dataset = self._append_path_dataset()
        if self.path != "/discover" and append_dataset is None:
            self._send_error_json(404, f"unknown path {self.path!r}")
            return
        token: Optional[CancellationToken] = None
        watch: Optional[_DisconnectWatch] = None
        try:
            body = self._read_body()
            token = self.service.make_token(self._parse_deadline(body))
            watch = _DisconnectWatch(
                self.connection, token,
                on_disconnect=self.service.note_disconnect_cancellation,
            )
            if append_dataset is not None:
                self._handle_append(append_dataset, body, token)
                return
            dataset = body.get("dataset")
            request = self._parse_request(body.get("request") or {})
            stream = body.get("stream", False)
            if not isinstance(stream, bool):
                raise ServiceError(
                    400, f"stream must be a JSON boolean, got {stream!r}"
                )
            if stream:
                self._stream_discovery(dataset, request, token)
            else:
                result = self.service.discover(
                    dataset, request, cancellation=token
                )
                if token.cancelled() and token.reason == "disconnect":
                    return  # nobody is listening
                self._send_json(200, result.to_dict())
        except AdmissionError as error:
            self._send_admission_error(error, token)
        except ServiceError as error:
            self._send_service_error(error)
        except (KeyError, ValueError) as error:
            # e.g. attributes not in the relation (engine KeyError): a bad
            # request, not a server fault — answer with JSON, don't let the
            # handler thread die and drop the connection.
            self._send_error_json(400, str(error))
        except RuntimeError as error:
            # Lifecycle faults (a closed session) are server-side: a
            # 5xx tells the client to retry, not to fix its request.
            self._send_error_json(500, str(error))
        finally:
            if watch is not None:
                watch.stop()

    @staticmethod
    def _parse_request(data: object) -> DiscoveryRequest:
        if not isinstance(data, dict):
            raise ServiceError(
                400, f"request must be a JSON object, got {data!r}"
            )
        try:
            return DiscoveryRequest.from_dict(data)
        except (TypeError, ValueError) as error:
            raise ServiceError(400, f"invalid discovery request: {error}")

    def _handle_append(self, dataset: str, body: Dict[str, object],
                       token: CancellationToken) -> None:
        rows = body.get("rows")
        if not isinstance(rows, list):
            raise ServiceError(
                400, "append body must carry a JSON array under 'rows'"
            )
        request = None
        if body.get("request") is not None:
            request = self._parse_request(body["request"])
        name, summary, outcome = self.service.append(
            dataset, rows, request, cancellation=token
        )
        payload: Dict[str, object] = {
            "dataset": name,
            "delta": summary.to_dict(),
        }
        if outcome is not None:
            payload.update(outcome.to_dict())
        self._send_json(200, payload)

    def _stream_discovery(
        self, dataset: Optional[str], request: DiscoveryRequest,
        token: CancellationToken,
    ) -> None:
        # Bad dataset / bad request / full queue fail here, before any
        # headers go out (admission is eager inside iter_events).
        events = self.service.iter_events(dataset, request, cancellation=token)
        try:
            first = next(events)
        except (AdmissionError, ServiceError):
            events.close()
            raise
        except (KeyError, ValueError) as error:
            events.close()
            raise ServiceError(400, str(error))
        except RuntimeError as error:
            events.close()
            raise ServiceError(500, str(error))
        except StopIteration:
            first = None
        self._fault("pre_response")
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.end_headers()
        index = 0
        try:
            if first is not None:
                self._write_event(first, index)
                index += 1
            for event in events:
                self._write_event(event, index)
                index += 1
        except _FaultClose:
            self.close_connection = True
        except OSError:
            # The client went away mid-stream (reset, broken pipe, timeout):
            # a routine disconnect, not a server fault.  When events flow
            # continuously the failed write detects it before the watchdog
            # polls — cancel (and count) the run here so abandoned streams
            # stop burning CPU either way.
            if token.cancel("disconnect"):
                self.service.note_disconnect_cancellation()
        except (ServiceError, KeyError, ValueError, RuntimeError) as error:
            # Headers are gone; close the stream with an error line instead
            # of silently dropping the connection.
            try:
                self.wfile.write(
                    json.dumps({"event": "error", "error": str(error)},
                               sort_keys=True).encode("utf-8") + b"\n"
                )
            except OSError:
                pass
        finally:
            events.close()

    def _write_event(self, event, index: int) -> None:
        self._fault("stream_event", event_index=index)
        self.wfile.write(
            json.dumps(event.to_dict(), sort_keys=True).encode("utf-8") + b"\n"
        )
        self.wfile.flush()


class ResilientHTTPServer(ThreadingHTTPServer):
    """Threading HTTP server that knows how to stop gracefully."""

    service: ProfilerService = None  # type: ignore[assignment]

    def serve_forever(self, poll_interval: float = 0.05) -> None:
        """Accept until :meth:`shutdown`.  ``shutdown`` waits for the accept
        loop to notice it, up to ``poll_interval`` later, so a short poll
        keeps :meth:`shutdown_gracefully`'s grace period from starting late
        (the stdlib default of 0.5s outlasts short runs and short graces)."""
        super().serve_forever(poll_interval)

    def shutdown_gracefully(
        self, grace_seconds: float = DEFAULT_SHUTDOWN_GRACE_SECONDS
    ) -> bool:
        """Stop accepting, drain-or-cancel in-flight work, close everything.

        Must be called from a thread other than the one running
        :meth:`serve_forever`.  Returns ``True`` when all in-flight work
        drained without cancellation.
        """
        self.service.begin_drain()
        self.shutdown()
        drained = self.service.shutdown_gracefully(grace_seconds)
        self.server_close()
        return drained


def make_server(
    service: ProfilerService,
    host: str = "127.0.0.1",
    port: int = 8080,
    quiet: bool = True,
    request_timeout: Optional[float] = None,
    fault_injector=None,
) -> ResilientHTTPServer:
    """Build the HTTP server (``port=0`` picks a free port; the bound port
    is ``server.server_address[1]``).  Call ``serve_forever()`` to run and
    :meth:`ResilientHTTPServer.shutdown_gracefully` to stop.

    ``request_timeout`` overrides the per-connection socket timeout
    (:data:`DEFAULT_REQUEST_SOCKET_TIMEOUT_SECONDS`); ``fault_injector``
    installs a test-only HTTP chaos hook (:mod:`repro.serve.chaos`).
    """

    class BoundHandler(_Handler):
        pass

    BoundHandler.service = service
    BoundHandler.quiet = quiet
    if request_timeout is not None:
        if request_timeout <= 0:
            raise ValueError("request_timeout must be positive")
        BoundHandler.timeout = request_timeout
    BoundHandler.fault_injector = fault_injector
    server = ResilientHTTPServer((host, port), BoundHandler)
    server.service = service
    return server
