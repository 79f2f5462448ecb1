"""The shared JSON-over-HTTP scaffold: field coercion and request framing.

A minimal :class:`JSONRequestHandler` subclass is served on an ephemeral
port so the base class's body parsing, error mapping, 404 fallback and reply
contract (one write per reply, ``TCP_NODELAY`` on) are tested apart from
either real front end.  Framing errors are sent over raw sockets, since
:mod:`http.client` refuses to send a malformed ``Content-Length``.
"""

from __future__ import annotations

import contextlib
import http.client
import json
import socket
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
        if method == "GET" and path == "/nodelay":
            nodelay = self.connection.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
            return 200, {"nodelay": nodelay}
        if method == "GET" and path == "/boom":
            raise RuntimeError("kaboom")
        return None

    def error_status(self, exc):
        return 418 if "stout" in str(exc) else 400


class _WriteLog:
    """Wraps a handler's ``wfile``, recording every write that reaches it."""

    def __init__(self, inner):
        self.inner = inner
        self.writes = []

    def write(self, data):
        self.writes.append(bytes(data))
        return self.inner.write(data)

    def __getattr__(self, name):
        return getattr(self.inner, name)


class _LoggedEchoHandler(_EchoHandler):
    """The echo handler with its ``wfile`` wrapped in a :class:`_WriteLog`."""

    logs = []

    def setup(self):
        super().setup()
        self.wfile = _WriteLog(self.wfile)
        self.logs.append(self.wfile)


@contextlib.contextmanager
def _served(handler=_EchoHandler):
    """Serve ``handler``; yield a ``call(method, path, body)`` helper and the server."""
    server = JSONHTTPServer(("127.0.0.1", 0), handler)
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


def _raw_exchange(server, request):
    """Send raw ``request`` bytes on a fresh socket; parse one reply.

    Returns ``(status, body, connection_header, socket)``; the caller closes
    the socket.
    """
    sock = socket.create_connection(server.server_address[:2], timeout=10)
    sock.sendall(request)
    response = http.client.HTTPResponse(sock)
    response.begin()
    body = json.loads(response.read())
    return response.status, body, response.getheader("Connection"), sock


@pytest.mark.parametrize("length", ["abc", "-5"])
def test_malformed_content_length_answers_400_and_closes(length):
    request = (
        f"POST /echo HTTP/1.1\r\nHost: x\r\nContent-Length: {length}\r\n\r\n{{}}"
    ).encode()
    with _served() as (call, server):
        code, error, connection, sock = _raw_exchange(server, request)
        with sock:
            assert code == 400 and repr(length) in error["error"]
            # The body's extent is unknown, so the server closes the stream.
            assert connection == "close"
            assert sock.recv(1) == b""
        assert call("POST", "/echo", b'{"ok": 1}') == (200, {"body": {"ok": 1}})


def test_request_rejected_before_routing_is_still_answered():
    """``parse_request`` failures answer through ``send_error``, not a silent close."""
    with _served() as (_call, server):
        sock = socket.create_connection(server.server_address[:2], timeout=10)
        with sock:
            # 101 header lines: one more than http.server accepts.
            sock.sendall(b"GET /count HTTP/1.1\r\n" + b"X-Pad: 1\r\n" * 101)
            response = http.client.HTTPResponse(sock)
            response.begin()
            assert response.status == 431
            assert response.getheader("Connection") == "close"


def test_unexpected_exception_answers_500_and_closes():
    with _served() as (call, server):
        code, error, connection, sock = _raw_exchange(
            server, b"GET /boom HTTP/1.1\r\nHost: x\r\n\r\n"
        )
        with sock:
            assert (code, error) == (500, {"error": "RuntimeError: kaboom"})
            assert connection == "close"
            assert sock.recv(1) == b""
        assert call("GET", "/count?n=2") == (200, {"n": 2})


def test_each_reply_is_one_write_on_a_nodelay_socket():
    """The reply contract that keeps keep-alive clients out of the delayed-ACK stall."""
    _LoggedEchoHandler.logs.clear()
    with _served(_LoggedEchoHandler) as (_call, server):
        connection = http.client.HTTPConnection(*server.server_address[:2], timeout=10)
        try:
            replies = []
            for method, path, body in (
                ("GET", "/nodelay", None),
                ("POST", "/echo", b'{"a": 1}'),
                ("GET", "/nowhere", None),
            ):
                connection.request(method, path, body=body)
                response = connection.getresponse()
                replies.append((response.status, json.loads(response.read())))
        finally:
            connection.close()
    assert replies[0][0] == 200 and replies[0][1]["nodelay"] != 0
    assert [status for status, _ in replies] == [200, 200, 404]
    # One connection, one handler: three replies, three writes, each a whole
    # response (status line, headers and body).
    [log] = _LoggedEchoHandler.logs
    assert len(log.writes) == 3
    for write, (_status, body) in zip(log.writes, replies):
        head, _, payload = write.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 ")
        assert json.loads(payload) == body
