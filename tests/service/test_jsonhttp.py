"""The shared JSON-over-HTTP scaffold: field coercion and request framing.

A minimal :class:`JSONRequestHandler` subclass is served on an ephemeral
port so the base class's body parsing, error mapping and 404 fallback are
tested apart from either real front end.
"""

from __future__ import annotations

import contextlib
import http.client
import json
import threading

import pytest

from repro.errors import ConfigurationError, ReproError
from repro.service.jsonhttp import JSONHTTPServer, JSONRequestHandler, int_field


class _EchoHandler(JSONRequestHandler):
    """Echoes the parsed body on POST /echo; GET /teapot raises a ReproError."""

    def route(self, method, path, query):
        if method == "POST" and path == "/echo":
            return 200, {"body": self.read_body()}
        if method == "GET" and path == "/count":
            return 200, {"n": int_field("n", query.get("n", ["0"])[0])}
        if method == "GET" and path == "/teapot":
            raise ReproError("short and stout")
        return None

    def error_status(self, exc):
        return 418 if "stout" in str(exc) else 400


@contextlib.contextmanager
def _served():
    """Serve the echo handler; yield a raw ``call(method, path, body)`` helper."""
    server = JSONHTTPServer(("127.0.0.1", 0), _EchoHandler)
    port = server.server_address[1]
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()

    def call(method, path, body=b""):
        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
        try:
            connection.request(method, path, body=body or None)
            response = connection.getresponse()
            return response.status, json.loads(response.read())
        finally:
            connection.close()

    try:
        yield call, server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


def test_int_field_converts_integers_and_integer_strings():
    assert int_field("limit", 7) == 7
    assert int_field("limit", "12") == 12
    assert int_field("limit", " -3 ") == -3


@pytest.mark.parametrize("value", ["abc", "1.5", None, [1]])
def test_int_field_rejects_non_integers_naming_the_field(value):
    with pytest.raises(ConfigurationError, match="field 'cache_size' must be an integer"):
        int_field("cache_size", value)


def test_body_round_trips_and_empty_body_reads_as_empty_object():
    with _served() as (call, _server):
        assert call("POST", "/echo", b'{"a": [1, 2]}') == (200, {"body": {"a": [1, 2]}})
        assert call("POST", "/echo") == (200, {"body": {}})


def test_invalid_json_body_answers_400():
    with _served() as (call, _server):
        code, error = call("POST", "/echo", b"{not json")
        assert code == 400 and "not valid JSON" in error["error"]


def test_non_object_body_answers_400():
    with _served() as (call, _server):
        code, error = call("POST", "/echo", b"[1, 2, 3]")
        assert code == 400 and "JSON object" in error["error"]


def test_malformed_query_field_answers_400_and_server_keeps_serving():
    with _served() as (call, _server):
        code, error = call("GET", "/count?n=many")
        assert code == 400 and "'n'" in error["error"]
        assert call("GET", "/count?n=5") == (200, {"n": 5})


def test_unknown_route_answers_404_and_error_status_is_overridable():
    with _served() as (call, _server):
        code, error = call("GET", "/nowhere")
        assert code == 404 and error["error"] == "no route for GET /nowhere"
        assert call("GET", "/teapot") == (418, {"error": "short and stout"})


def test_server_reports_a_nonnegative_uptime():
    with _served() as (_call, server):
        assert server.uptime_seconds() >= 0.0
