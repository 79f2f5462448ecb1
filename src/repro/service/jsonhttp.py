"""The JSON-over-HTTP scaffold shared by the service and the coordinator.

Both HTTP front ends (:mod:`repro.service.server` and
:mod:`repro.service.coordinator`) speak the same dialect: JSON object
bodies in, sorted-key JSON out, ``{"error": ...}`` with a 4xx status for a
bad request.  :class:`JSONRequestHandler` owns that plumbing; a subclass
supplies only :meth:`~JSONRequestHandler.route`.  :class:`JSONHTTPServer`
is the threaded server both bind, recording its start time for the
``/health`` uptime field.

Reply contract: every JSON reply leaves in one ``send()`` of status line,
headers and body together, on a socket with ``TCP_NODELAY`` set.  Both halves
matter on keep-alive connections.  Written as two segments (headers, then
body), Nagle's algorithm holds the body until the client ACKs the headers,
and the client delays that ACK by about 40 ms, so every request on a
persistent connection would wait out the delayed-ACK timer.  A bad
``Content-Length`` or an unexpected exception is answered in JSON as well,
never with a dropped connection; a reply after which the server closes the
connection says ``Connection: close``.
"""

from __future__ import annotations

import json
import logging
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple, Type
from urllib.parse import parse_qs, urlparse

from ..errors import ConfigurationError, ReproError

__all__ = ["JSONHTTPServer", "JSONRequestHandler", "int_field"]

logger = logging.getLogger(__name__)


def int_field(name: str, value: Any) -> int:
    """``value`` of the request field ``name`` as an int.

    Raises :class:`~repro.errors.ConfigurationError` naming the field when
    the value does not convert, so the handler answers 400 instead of
    dropping the connection.
    """
    try:
        return int(value)
    except (TypeError, ValueError):
        raise ConfigurationError(
            f"field {name!r} must be an integer, got {value!r}"
        ) from None


class JSONHTTPServer(ThreadingHTTPServer):
    """Threaded HTTP server that remembers when it started."""

    daemon_threads = True

    def __init__(
        self, address: Tuple[str, int], handler: Type[BaseHTTPRequestHandler]
    ) -> None:
        super().__init__(address, handler)
        self.started_unix = time.time()  # repro: allow(determinism-clock) -- /health uptime metadata, not result state

    def uptime_seconds(self) -> float:
        """Seconds since the server started, rounded for the ``/health`` body."""
        return round(time.time() - self.started_unix, 3)  # repro: allow(determinism-clock) -- /health uptime metadata, not result state


class JSONRequestHandler(BaseHTTPRequestHandler):
    """Request handler base: JSON bodies, JSON replies, errors as 4xx.

    Subclasses implement :meth:`route`, returning ``(status, body)`` or
    ``None`` for an unknown route (404).  A
    :class:`~repro.errors.ReproError` raised while routing becomes
    ``{"error": ...}`` with the status :meth:`error_status` picks; any other
    exception becomes a last-resort 500 that closes the connection.
    """

    protocol_version = "HTTP/1.1"
    # Replies go out as soon as they are written (see the module docstring).
    disable_nagle_algorithm = True

    # The default handler logs every request with a wall-clock timestamp to
    # stderr; the servers expose their own observability endpoints instead.
    def log_message(self, format: str, *args: Any) -> None:
        pass

    def send_json(self, code: int, payload: Dict[str, Any]) -> None:
        """Write ``payload`` as the sorted-key JSON response, in one write."""
        body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        # end_headers() would write the header block on its own; join it with
        # the body instead so the reply is a single send().
        self._headers_buffer.append(b"\r\n")
        self.wfile.write(b"".join(self._headers_buffer) + body)
        self._headers_buffer = []

    def read_body(self) -> Dict[str, Any]:
        """The request body as a JSON object (``{}`` when empty).

        A ``Content-Length`` that is not a non-negative integer leaves the
        body's extent unknown, so the request is answered 400 and the
        connection closed: the rest of the stream cannot be framed.
        """
        declared = self.headers.get("Content-Length") or "0"
        try:
            length = int(declared)
        except ValueError:
            length = -1
        if length < 0:
            self.close_connection = True
            raise ConfigurationError(f"invalid Content-Length {declared!r}")
        raw = self.rfile.read(length) if length else b""
        if not raw:
            return {}
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ConfigurationError(f"request body is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise ConfigurationError("request body must be a JSON object")
        return payload

    def route(
        self, method: str, path: str, query: Dict[str, Any]
    ) -> Optional[Tuple[int, Dict[str, Any]]]:
        """Answer one request: ``(status, body)``, or None for no such route."""
        raise NotImplementedError

    def error_status(self, exc: ReproError) -> int:
        """The status code a routing error maps to (400 unless overridden)."""
        return 400

    def _handle(self, method: str) -> None:
        url = urlparse(self.path)
        try:
            reply = self.route(method, url.path, parse_qs(url.query))
        except ReproError as exc:
            reply = self.error_status(exc), {"error": str(exc)}
        except Exception as exc:
            # Last resort: the client still gets an answer, but the request
            # may be half read, so the connection is not reused.
            logger.exception("unhandled error answering %s %s", method, url.path)
            self.close_connection = True
            reply = 500, {"error": f"{type(exc).__name__}: {exc}"}
        if reply is None:
            reply = 404, {"error": f"no route for {method} {url.path}"}
        self.send_json(*reply)

    def do_GET(self) -> None:
        """Dispatch a GET request through :meth:`route`."""
        self._handle("GET")

    def do_POST(self) -> None:
        """Dispatch a POST request through :meth:`route`."""
        self._handle("POST")
