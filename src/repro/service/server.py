"""Stdlib HTTP front end of the prefetch service.

The transport layer, and nothing else: JSON in, JSON out, with every
decision routed through :class:`~repro.service.daemon.PrefetchService`.
Built on the stdlib JSON scaffold of :mod:`repro.service.jsonhttp` so the
daemon needs no third-party dependency; concurrency is serialised inside
the service's own lock, so handler threads can be naive.

Routes
------
``POST /session``                     open a session (``algorithm``,
                                      ``cache_size``, ``fetch_time``,
                                      optional ``initial_cache``)
``POST /session/<id>/requests``       feed ``{"requests": [...]}`` and
                                      advance; returns the session summary
``GET  /session/<id>/plan``           committed + upcoming fetch decisions
                                      and the projected batch outcome
                                      (``?limit=N`` caps the upcoming list)
``GET  /session/<id>``                session status summary
``GET  /sessions``                    all session summaries
``GET  /health``                      liveness probe (session count, uptime)

The ``/health`` uptime is the only wall-clock read, pragma-justified in
:mod:`repro.service.jsonhttp`; result state never touches it.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from ..errors import ConfigurationError, ReproError
from .daemon import PrefetchService
from .jsonhttp import JSONHTTPServer, JSONRequestHandler, int_field

__all__ = ["PrefetchHTTPServer", "make_server"]


class PrefetchHTTPServer(JSONHTTPServer):
    """Threaded HTTP server bound to one :class:`PrefetchService`."""

    def __init__(self, address: Tuple[str, int], service: PrefetchService) -> None:
        super().__init__(address, _Handler)
        self.service = service


class _Handler(JSONRequestHandler):
    """Request handler translating the JSON surface onto the service."""

    server_version = "repro-prefetch/1"
    server: PrefetchHTTPServer

    def error_status(self, exc: ReproError) -> int:
        """404 for an unknown session, 400 for every other bad request."""
        if isinstance(exc, ConfigurationError) and "unknown session" in str(exc):
            return 404
        return 400

    def _session_route(self, path: str) -> Tuple[Optional[str], Optional[str]]:
        """Split ``/session/<id>[/<verb>]`` into (session_id, verb)."""
        parts = [part for part in path.split("/") if part]
        if len(parts) >= 2 and parts[0] == "session":
            return parts[1], parts[2] if len(parts) > 2 else None
        return None, None

    def route(
        self, method: str, path: str, query: Dict[str, Any]
    ) -> Optional[Tuple[int, Dict[str, Any]]]:
        """Map one request onto the :class:`PrefetchService` surface."""
        service = self.server.service
        session_id, verb = self._session_route(path)
        if method == "GET":
            if path == "/health":
                return 200, {
                    "ok": True,
                    "sessions": len(service.session_ids),
                    "uptime_seconds": self.server.uptime_seconds(),
                }
            if path == "/sessions":
                return 200, {"sessions": service.describe()}
            if session_id is not None and verb == "plan":
                limit_values = query.get("limit")
                limit = int_field("limit", limit_values[0]) if limit_values else None
                return 200, service.plan(session_id, limit)
            if session_id is not None and verb is None:
                return 200, service.get(session_id).describe()
            return None
        if method == "POST":
            body = self.read_body()
            if path == "/session":
                initial_cache = body.get("initial_cache", [])
                if not isinstance(initial_cache, list):
                    raise ConfigurationError(
                        f"field 'initial_cache' must be a list of blocks, got {initial_cache!r}"
                    )
                session = service.create_session(
                    str(body.get("algorithm", "aggressive")),
                    cache_size=int_field("cache_size", body.get("cache_size", 16)),
                    fetch_time=int_field("fetch_time", body.get("fetch_time", 8)),
                    initial_cache=initial_cache,
                )
                return 201, session.describe()
            if session_id is not None and verb == "requests":
                requests = body.get("requests")
                if not isinstance(requests, list):
                    raise ConfigurationError(
                        'feed body must be {"requests": [<block>, ...]}'
                    )
                return 200, service.feed(session_id, requests)
            return None
        return None


def make_server(
    service: PrefetchService, host: str = "127.0.0.1", port: int = 8642
) -> PrefetchHTTPServer:
    """Bind the service's HTTP front end (``port=0`` picks a free port)."""
    return PrefetchHTTPServer((host, port), service)
