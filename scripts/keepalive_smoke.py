#!/usr/bin/env python
"""Keep-alive latency smoke test of ``repro serve`` (used by the CI service job).

Starts ``repro serve`` on a free port, opens one session and sends 50 feeds
over one persistent HTTP/1.1 connection.  Exits non-zero if the 50 feeds
take more than 1 s in total.  A server whose replies wait for the client's
delayed ACK (about 40 ms per request) needs 2 s or more; a healthy one needs
a few milliseconds per feed.

    python scripts/keepalive_smoke.py
"""

from __future__ import annotations

import http.client
import json
import tempfile
import time
from pathlib import Path

from service_smoke import expect, free_port, start_server, stop_server, wait_for_server

FEEDS = 50
BUDGET_S = 1.0


def main() -> None:
    port = free_port()
    server = start_server(port, Path(tempfile.mkdtemp(prefix="repro-keepalive-smoke-")))
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        wait_for_server(port, server)

        def post(path: str, body: dict) -> dict:
            connection.request(
                "POST", path, body=json.dumps(body),
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            data = response.read()
            expect(200 <= response.status < 300, f"POST {path} -> {response.status}: {data!r}")
            return json.loads(data)

        session = post("/session", {"cache_size": 8, "fetch_time": 4})["session"]
        started = time.perf_counter()
        for i in range(FEEDS):
            post(f"/session/{session}/requests", {"requests": [f"b{i % 13}", f"b{i % 7}"]})
        elapsed = time.perf_counter() - started
    finally:
        connection.close()
        stop_server(server)
    expect(
        elapsed <= BUDGET_S,
        f"{FEEDS} keep-alive feeds took {elapsed:.3f} s (budget {BUDGET_S} s)",
    )
    print(f"{FEEDS} keep-alive feeds took {elapsed:.3f} s; keep-alive smoke OK")


if __name__ == "__main__":
    main()
