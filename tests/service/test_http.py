"""The HTTP front end: routes, error mapping, and restart over real sockets.

The server binds port 0 (a free ephemeral port) and runs in a daemon thread;
requests go through :mod:`urllib` so the whole stack — routing, JSON bodies,
status codes, content-length framing — is exercised the way a real client
sees it.
"""

from __future__ import annotations

import contextlib
import http.client
import json
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.algorithms import make_algorithm
from repro.disksim.executor import simulate
from repro.service import (
    PrefetchService,
    SweepCoordinator,
    make_coordinator_server,
    make_server,
)
from repro.workloads.spec import build_workload_instance


@contextlib.contextmanager
def _served(server):
    """Serve ``server`` on a daemon thread; yield a JSON ``call`` helper."""
    port = server.server_address[1]
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()

    def call(method, path, body=None):
        data = None if body is None else json.dumps(body).encode()
        request = urllib.request.Request(
            f"http://127.0.0.1:{port}{path}", data=data, method=method
        )
        try:
            with urllib.request.urlopen(request, timeout=10) as response:
                return response.status, json.loads(response.read())
        except urllib.error.HTTPError as error:
            return error.code, json.loads(error.read())

    try:
        yield call
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


@pytest.fixture
def http_service():
    """A served PrefetchService; yields (call, service), then shuts down."""
    service = PrefetchService()
    with _served(make_server(service, port=0)) as call:
        yield call, service


def test_full_session_round_trip(http_service):
    call, _service = http_service
    code, health = call("GET", "/health")
    assert code == 200 and health["ok"] and health["sessions"] == 0

    code, created = call(
        "POST", "/session", {"algorithm": "aggressive", "cache_size": 8, "fetch_time": 4}
    )
    assert code == 201
    session_id = created["session"]

    instance = build_workload_instance(
        "zipf:n=120,blocks=40,seed=3", cache_size=8, fetch_time=4, disks=1, layout="striped"
    )
    requests = list(instance.sequence.requests)
    code, fed = call("POST", f"/session/{session_id}/requests", {"requests": requests})
    assert code == 200
    assert fed["horizon"] == len(requests)
    assert fed["accepted"] == len(requests)

    code, plan = call("GET", f"/session/{session_id}/plan")
    assert code == 200
    offline = simulate(instance, make_algorithm("aggressive"))
    assert plan["projected"]["stall_time"] == offline.metrics.stall_time
    assert plan["projected"]["elapsed_time"] == offline.metrics.elapsed_time

    code, limited = call("GET", f"/session/{session_id}/plan?limit=1")
    assert code == 200
    assert limited["upcoming"] == plan["upcoming"][:1]

    code, listing = call("GET", "/sessions")
    assert code == 200
    assert [s["session"] for s in listing["sessions"]] == [session_id]
    code, status = call("GET", f"/session/{session_id}")
    assert code == 200 and status["cursor"] == fed["cursor"]


def test_error_mapping(http_service):
    call, _service = http_service
    assert call("GET", "/session/s404/plan")[0] == 404
    assert call("POST", "/session/s404/requests", {"requests": ["a"]})[0] == 404
    code, error = call("POST", "/session", {"algorithm": "definitely-not-registered"})
    assert code == 400 and "definitely-not-registered" in error["error"]
    code, error = call(
        "POST",
        "/session",
        {"algorithm": "aggressive", "cache_size": 4, "fetch_time": 2},
    )
    assert code == 201
    code, error = call("POST", "/session/s1/requests", {"requests": "not-a-list"})
    assert code == 400 and "requests" in error["error"]
    assert call("GET", "/nope")[0] == 404
    assert call("POST", "/nope")[0] == 404


def test_malformed_numeric_fields_answer_400_naming_the_field(http_service):
    """A non-integer numeric field is a bad request, not a dropped connection."""
    call, _service = http_service
    code, created = call("POST", "/session", {"cache_size": 4, "fetch_time": 2})
    assert code == 201
    session_id = created["session"]
    code, error = call("GET", f"/session/{session_id}/plan?limit=abc")
    assert code == 400 and "'limit'" in error["error"]
    code, error = call("POST", "/session", {"cache_size": "big"})
    assert code == 400 and "'cache_size'" in error["error"]
    code, error = call("POST", "/session", {"fetch_time": None})
    assert code == 400 and "'fetch_time'" in error["error"]
    # The server keeps answering after the bad requests.
    assert call("GET", f"/session/{session_id}/plan?limit=2")[0] == 200


def test_non_list_initial_cache_answers_400_on_a_kept_alive_socket():
    service = PrefetchService()
    server = make_server(service, port=0)
    with _served(server) as call:
        body = json.dumps({"cache_size": 4, "fetch_time": 2, "initial_cache": 5}).encode()
        request = (
            b"POST /session HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\n"
            b"Content-Length: %d\r\n\r\n%s" % (len(body), body)
        )
        with socket.create_connection(server.server_address[:2], timeout=10) as sock:
            replies = []
            for _ in range(2):  # the second request rides the same connection
                sock.sendall(request)
                response = http.client.HTTPResponse(sock)
                response.begin()
                replies.append((response.status, json.loads(response.read())))
        for code, error in replies:
            assert code == 400 and "'initial_cache'" in error["error"]
        assert call("POST", "/session", {"cache_size": 4, "fetch_time": 2})[0] == 201


def test_keep_alive_requests_do_not_wait_for_delayed_acks():
    """20 sequential feeds on one connection; the delayed-ACK stall costs ~40 ms each."""
    server = make_server(PrefetchService(), port=0)
    with _served(server) as call:
        _code, created = call("POST", "/session", {"cache_size": 8, "fetch_time": 4})
        path = f"/session/{created['session']}/requests"
        connection = http.client.HTTPConnection(*server.server_address[:2], timeout=10)
        try:
            started = time.perf_counter()
            for i in range(20):
                connection.request(
                    "POST", path, body=json.dumps({"requests": [f"b{i % 5}"]}),
                    headers={"Content-Type": "application/json"},
                )
                response = connection.getresponse()
                assert response.status == 200, response.read()
                response.read()
            elapsed = time.perf_counter() - started
        finally:
            connection.close()
    assert elapsed < 0.4, f"20 keep-alive requests took {elapsed:.3f} s"


def test_coordinator_malformed_chunk_answers_400_naming_the_field():
    coordinator = SweepCoordinator(lease_timeout=5.0)
    with _served(make_coordinator_server(coordinator)) as call:
        for path in ("/heartbeat", "/complete"):
            code, error = call("POST", path, {"worker": "w", "chunk": "x"})
            assert code == 400 and "'chunk'" in error["error"], path
        code, status = call("GET", "/status")
        assert code == 200 and status["state"] == "waiting"
        assert call("POST", "/lease", {"worker": "w"}) == (200, {"state": "idle"})


def test_restart_resumes_sessions_over_http(tmp_path):
    state_dir = tmp_path / "state"

    def run_server(fn):
        service = PrefetchService(state_dir=state_dir)
        service.load_all()
        server = make_server(service, port=0)
        port = server.server_address[1]
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()

        def call(method, path, body=None):
            data = None if body is None else json.dumps(body).encode()
            request = urllib.request.Request(
                f"http://127.0.0.1:{port}{path}", data=data, method=method
            )
            with urllib.request.urlopen(request, timeout=10) as response:
                return json.loads(response.read())

        try:
            return fn(call)
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)
            service.save_all()
            service.close()

    def first(call):
        created = call("POST", "/session", {"algorithm": "demand:evict=lru",
                                            "cache_size": 4, "fetch_time": 3})
        fed = call("POST", f"/session/{created['session']}/requests",
                   {"requests": [f"b{i % 11}" for i in range(60)]})
        return created["session"], fed, call("GET", f"/session/{created['session']}/plan")

    session_id, fed, plan = run_server(first)

    def second(call):
        listing = call("GET", "/sessions")["sessions"]
        return listing, call("GET", f"/session/{session_id}/plan")

    listing, plan_after = run_server(second)
    assert [s["session"] for s in listing] == [session_id]
    assert listing[0]["cursor"] == fed["cursor"]
    assert listing[0]["time"] == fed["time"]
    assert plan_after["projected"] == plan["projected"]
    assert plan_after["upcoming"] == plan["upcoming"]
