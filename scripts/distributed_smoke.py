#!/usr/bin/env python
"""End-to-end smoke test of the distributed sweep fabric (CI's distributed job).

Exercises coordinator + workers over real processes, real HTTP and a real
SIGKILL:

1. start ``repro coordinator`` as a subprocess serving a 16-point grid on a
   free port (short lease timeout so a killed worker's chunks re-issue fast),
2. attach the victim ``repro worker`` alone, slowed with ``--fault-delay``
   so it holds its lease long after evaluating its chunk,
3. ``SIGKILL`` the victim once ``/status`` shows it holding the lease (the
   grid may be a single chunk: the default engine stacks it into one
   kernel pass, so the victim must be the only worker when it leases),
4. attach two surviving workers, which inherit the expired lease, and wait
   for the coordinator to finish: zero lost points — the grid completes,
   the surviving workers exit cleanly,
5. warm re-run the same grid through plain ``repro sweep`` against the same
   run store and assert every point is a cache hit (``0 simulated``).

Exits non-zero with a diagnostic on the first violated expectation.
"""

from __future__ import annotations

import json
import signal
import socket
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request
from pathlib import Path

GRID = [
    "-w", "zipf:n=30,blocks=10",
    "-k", "4,6",
    "-F", "3",
    "-a", "aggressive,demand",
    "--seeds", "0,1,2,3",
    "--name", "distributed-smoke",
]
POINTS = 16  # 1 workload x 4 seeds x 2 cache sizes x 1 fetch time x 2 algorithms


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def fail(message: str) -> None:
    print(f"DISTRIBUTED SMOKE FAILED: {message}", file=sys.stderr)
    sys.exit(1)


def expect(condition: bool, message: str) -> None:
    if not condition:
        fail(message)


def get_status(port: int):
    with urllib.request.urlopen(
        f"http://127.0.0.1:{port}/status", timeout=10
    ) as response:
        return json.loads(response.read())


def wait_for_coordinator(port: int, process: subprocess.Popen, attempts: int = 100):
    for _ in range(attempts):
        if process.poll() is not None:
            fail(f"coordinator exited early with code {process.returncode}")
        try:
            return get_status(port)
        except (urllib.error.URLError, ConnectionError):
            time.sleep(0.2)
    fail(f"coordinator on port {port} never became reachable")


def start_coordinator(port: int, cache_dir: Path) -> subprocess.Popen:
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro", "coordinator", *GRID,
            "--cache-dir", str(cache_dir),
            "--port", str(port),
            "--chunk-size", "2",
            "--lease-timeout", "2",
            "--linger", "2",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )


def start_worker(port: int, name: str, *extra: str) -> subprocess.Popen:
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro", "worker",
            "--coordinator", f"http://127.0.0.1:{port}",
            "--id", name,
            "--poll-interval", "0.05",
            "--backoff-base", "0.1",
            "--backoff-cap", "0.5",
            "--max-retries", "4",
            *extra,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )


def main() -> None:
    cache_dir = Path(tempfile.mkdtemp(prefix="repro-distributed-smoke-"))
    port = free_port()
    coordinator = start_coordinator(port, cache_dir)
    workers = {}
    try:
        wait_for_coordinator(port, coordinator)
        # The victim attaches alone and stalls before every completion POST,
        # so it leases the first chunk and still holds it when the SIGKILL
        # lands.
        workers["w-victim"] = start_worker(port, "w-victim", "--fault-delay", "30")

        # Kill the victim once it holds a lease on the running sweep.
        killed = False
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if coordinator.poll() is not None:
                break
            try:
                status = get_status(port)
            except (urllib.error.URLError, ConnectionError):
                break
            victim = status.get("workers", {}).get("w-victim", {})
            if victim.get("active_chunk") is not None and status["state"] == "running":
                try:
                    workers["w-victim"].send_signal(signal.SIGKILL)
                except ProcessLookupError:
                    pass
                killed = True
                print("killed w-victim mid-sweep")
                break
            time.sleep(0.05)
        expect(killed, "victim worker never held a lease before the sweep finished")
        # The survivors find the victim's lease held until it expires, then
        # finish the grid.
        workers["w-1"] = start_worker(port, "w-1")
        workers["w-2"] = start_worker(port, "w-2")
        reissued = 0
        while coordinator.poll() is None:
            try:
                status = get_status(port)
            except (urllib.error.URLError, ConnectionError):
                break
            reissued = status["reissued_leases"]
            if status["state"] == "done":
                break
            time.sleep(0.05)
        expect(reissued >= 1, "the killed victim's lease was never re-issued")

        code = coordinator.wait(timeout=120)
        output = coordinator.stdout.read()
        print(output)
        expect(code == 0, f"coordinator exited {code}")
        expect(
            f"{POINTS} points" in output,
            f"coordinator did not report all {POINTS} points",
        )
        expect(
            f"{POINTS} simulated" in output,
            "first run should simulate every point",
        )

        workers["w-victim"].wait(timeout=10)
        for name in ("w-1", "w-2"):
            worker_code = workers[name].wait(timeout=60)
            worker_out = workers[name].stdout.read()
            print(worker_out.strip())
            expect(
                worker_code == 0,
                f"surviving worker {name} exited {worker_code}: {worker_out}",
            )
    finally:
        for process in [coordinator, *workers.values()]:
            if process.poll() is None:
                process.kill()

    # Zero lost points: the warm re-run of the identical grid is pure cache.
    rerun = subprocess.run(
        [
            sys.executable, "-m", "repro", "sweep", *GRID,
            "--cache-dir", str(cache_dir), "--resume",
        ],
        capture_output=True,
        text=True,
        timeout=120,
    )
    print(rerun.stdout)
    expect(rerun.returncode == 0, f"warm re-run exited {rerun.returncode}: {rerun.stderr}")
    expect("0 remaining" in rerun.stdout, "resume report shows remaining points")
    expect(
        f"({POINTS} cached, 0 simulated, 0 optimum requests" in rerun.stdout,
        "warm re-run was not a pure cache hit — points were lost",
    )
    print("distributed smoke OK")


if __name__ == "__main__":
    main()
