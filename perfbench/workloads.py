"""The four benchmark workloads: ``sweep``, ``ratios``, ``service``, ``fabric``.

Each class runs *rounds* for :func:`perfbench.harness.drive`.  Inputs come
only from the ``--seed`` argument (see README.md for why each grid looks the
way it does).  The program is always driven through its public entry points:
``run_experiments`` for grids, ``make_server`` over HTTP for the service, and
a ``repro worker`` subprocess for the fabric.
"""

from __future__ import annotations

import dataclasses
import http.client
import json
import random
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from perfbench import checks, layers
from perfbench.harness import (
    Context,
    RoundResult,
    child_env,
    median,
    nearest_rank,
)
from perfbench.spans import Tracer

ALGORITHMS = ("aggressive", "delay:d=3", "conservative", "combination", "demand")


def seed_block(tag: str, seed: int, index: int, count: int) -> Tuple[int, ...]:
    """``count`` consecutive generator seeds for round ``index`` of ``tag``."""
    base = random.Random(f"{tag}:{seed}:{index}").randrange(1, 10**6)
    return tuple(range(base, base + count))


def run_grid(spec: Any, *, store: Any, backend: Any = None) -> Tuple[List[Any], int]:
    """Run ``spec`` as one ``run_experiments`` call; return ``(records, failed points)``.

    A failing point aborts ``run_experiments``, so on failure the grid is run
    again one point at a time (serially, into the same store) to count the
    failing points and still finish the rest.
    """
    from repro.analysis import runner

    try:
        return list(runner.run_experiments(spec, store=store, backend=backend)), 0
    except Exception as exc:  # failure accounting must not abort the workload
        print(f"grid {spec.name!r} failed, isolating points: {exc}", file=sys.stderr)
    records: List[Any] = []
    failed = 0
    for point in spec.points():
        single = dataclasses.replace(
            spec,
            workloads=(point.workload,),
            seeds=(None,),
            cache_sizes=(point.cache_size,),
            fetch_times=(point.fetch_time,),
            disks=(point.disks,),
            layouts=(point.layout,),
            algorithms=(point.algorithm,),
            backend="serial",
        )
        try:
            records.extend(runner.run_experiments(single, store=store))
        except Exception as exc:
            print(f"point [{point.describe()}] failed: {exc}", file=sys.stderr)
            failed += 1
    return records, failed


class Workload:
    """Round hooks shared by all workloads (see :func:`harness.drive`)."""

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.tracer: Optional[Tracer] = None
        self.problems: List[str] = []

    def install_probes(self, tracer: Tracer) -> None:
        self.tracer = tracer
        layers.install_probes(tracer)

    def layer_metrics(self, tracer: Tracer, rounds: int) -> Dict[str, float]:
        return layers.layer_metrics(tracer, rounds)

    def round_dir(self, index: int) -> Path:
        path = self.ctx.workdir / f"round{index}"
        path.mkdir(parents=True)
        return path

    def check(self, label: str, problems: Sequence[str]) -> None:
        self.problems.extend(f"{label}: {problem}" for problem in problems)

    def teardown(self, index: int, state: Any) -> None:
        self.tracer = None

    def finish(self) -> List[str]:
        return self.problems


# ---------------------------------------------------------------------------------
# grid workloads
# ---------------------------------------------------------------------------------


class GridWorkload(Workload):
    """A workload whose round is one or more grid runs into a fresh run store."""

    backend = "serial"

    def specs(self, index: int) -> List[Any]:
        raise NotImplementedError

    def setup(self, index: int) -> Dict[str, Any]:
        from repro.analysis.store import RunStore

        directory = self.round_dir(index)
        return {
            "dir": directory,
            "store": RunStore(directory / "runs.sqlite"),
            "specs": self.specs(index),
        }

    def measure(self, index: int, state: Dict[str, Any]) -> RoundResult:
        ops = attempted = failed = 0
        records: List[Any] = []
        for spec in state["specs"]:
            got, lost = run_grid(spec, store=state["store"], backend=state.get("backend"))
            records.extend(got)
            ops += len(got)
            failed += lost
            attempted += len(spec.points())
        state["records"] = records
        return RoundResult(ops=ops, attempted=attempted, failed=failed)

    def teardown(self, index: int, state: Dict[str, Any]) -> None:
        super().teardown(index, state)
        state["store"].close()
        self.after_round(index, state)
        shutil.rmtree(state["dir"], ignore_errors=True)

    def after_round(self, index: int, state: Dict[str, Any]) -> None:
        """Untimed per-round checks."""


class ReferenceChecked(GridWorkload):
    """A grid workload whose first round is checked against the loop engine."""

    name = ""

    def after_round(self, index: int, state: Dict[str, Any]) -> None:
        if index == 0:
            self.reference_spec = state["specs"][0]
            self.first_records = state["records"]

    def finish(self) -> List[str]:
        self.check(
            "records vs serial loop engine",
            checks.matches_loop_reference(self.first_records, self.reference_spec),
        )
        self.check(
            "records vs pinned digest",
            checks.matches_pinned(self.name, self.ctx.seed, self.first_records),
        )
        return self.problems


class Sweep(ReferenceChecked):
    """``repro sweep`` with ``engine=auto`` on the planner/kernel/MIN grid."""

    name = "sweep"

    workloads = ("zipf:n=200,blocks=200", "loop:blocks=100,loops=3")
    cache_sizes = (16, 32, 64)
    fetch_times = (4, 8, 16)
    seeds_per_round = 8

    def specs(self, index: int) -> List[Any]:
        from repro.analysis.runner import ExperimentSpec

        return [
            ExperimentSpec(
                name=f"perfbench-sweep-{index}",
                workloads=self.workloads,
                cache_sizes=self.cache_sizes,
                fetch_times=self.fetch_times,
                algorithms=ALGORITHMS,
                seeds=seed_block("sweep", self.ctx.seed, index, self.seeds_per_round),
                engine="auto",
                backend=self.backend,
            )
        ]



class Fabric(ReferenceChecked):
    """A sweep served by ``RemoteBackend`` to one ``repro worker`` subprocess."""

    name = "fabric"

    workloads = ("zipf:n=300,blocks=40",)
    cache_sizes = (8, 16)
    fetch_times = (4, 8)
    algorithms = ("aggressive", "delay:d=3", "conservative", "demand")
    seeds_per_round = 15
    #: The worker's idle poll interval; the library default of run_worker.
    poll_interval = "0.05"

    def specs(self, index: int) -> List[Any]:
        from repro.analysis.runner import ExperimentSpec

        return [
            ExperimentSpec(
                name=f"perfbench-fabric-{index}",
                workloads=self.workloads,
                cache_sizes=self.cache_sizes,
                fetch_times=self.fetch_times,
                algorithms=self.algorithms,
                seeds=seed_block("fabric", self.ctx.seed, index, self.seeds_per_round),
                backend="remote",
            )
        ]

    def setup(self, index: int) -> Dict[str, Any]:
        from repro.analysis.remote import RemoteBackend

        state = super().setup(index)
        backend = RemoteBackend(0)
        url = backend.start()
        span = self.tracer.open("fabric.worker_start") if self.tracer else None
        started = time.perf_counter()
        worker = subprocess.Popen(
            [sys.executable, "-m", "repro", "worker", "--coordinator", url,
             "--poll-interval", self.poll_interval],
            env=child_env(self.ctx.root, self.ctx.workdir),
            cwd=self.ctx.root,
            stdout=subprocess.DEVNULL,
        )
        state.update(backend=backend, worker=worker)
        # Ready once the worker's first lease poll reached the coordinator.
        while not backend.coordinator.status()["workers"]:
            if worker.poll() is not None or time.perf_counter() - started > 60:
                self._stop(state)
                raise RuntimeError(f"repro worker did not attach (exit {worker.returncode})")
            time.sleep(0.005)
        if span is not None:
            self.tracer.close(span)
        return state

    def measure(self, index: int, state: Dict[str, Any]) -> RoundResult:
        result = super().measure(index, state)
        if self.tracer is not None:
            status = state["backend"].coordinator.status()
            self.tracer.count("fabric.chunks", status["chunks"]["total"])
            self.tracer.count("fabric.reissued_leases", status["reissued_leases"])
            self.tracer.count(
                "fabric.leases",
                sum(w["leases"] for w in status["workers"].values()),
            )
        return result

    @staticmethod
    def _stop(state: Dict[str, Any]) -> None:
        worker = state["worker"]
        try:
            # The worker exits by itself once it sees the sweep is done.
            worker.wait(timeout=30)
        except subprocess.TimeoutExpired:
            worker.terminate()
            worker.wait(timeout=30)
        state["backend"].close()

    def teardown(self, index: int, state: Dict[str, Any]) -> None:
        self._stop(state)
        super().teardown(index, state)

    def layer_metrics(self, tracer: Tracer, rounds: int) -> Dict[str, float]:
        out = super().layer_metrics(tracer, rounds)
        out["fabric.worker_start_s"] = tracer.totals().get(
            "fabric.worker_start", (0, 0.0)
        )[1] / rounds
        for name in ("fabric.chunks", "fabric.leases", "fabric.reissued_leases"):
            out[name] = tracer.counts.get(name, 0.0) / rounds
        return out


class Ratios(GridWorkload):
    """``repro ratios``: every point's instance goes through the LP optimum.

    The instance set is pinned: LP solve time swings by up to 50x between
    instances of one shape (even between relabelings of one instance), so a
    seed-drawn set would spread ratio throughput far past any usable bound.
    The seed permutes the order of the grid axes instead.
    """

    single_disk = ("zipf:n=50,blocks=40", "loop:blocks=20,loops=2")
    single_seeds = (1, 2, 3, 4)
    two_disk = "zipf:n=60,blocks=20"
    two_disk_seeds = (1,)
    #: ``repro ratios -w 'zipf:n=60,blocks=20,seed=4' -k 6 -F 4 -D 2`` dies
    #: with InvalidScheduleError (ROADMAP item 2).  It is run once per
    #: benchmark run, outside the timed grid, and reported as a known defect.
    known_defect_seed = 4

    def _two_disk_spec(self, name: str, seeds: Tuple[int, ...]) -> Any:
        from repro.analysis.runner import ExperimentSpec

        return ExperimentSpec(
            name=name,
            workloads=(self.two_disk,),
            cache_sizes=(6,),
            fetch_times=(4,),
            disks=(2,),
            algorithms=("parallel-aggressive",),
            seeds=seeds,
            compute_optimum=True,
            backend=self.backend,
        )

    def specs(self, index: int) -> List[Any]:
        from repro.analysis.runner import ExperimentSpec

        rng = random.Random(f"ratios:{self.ctx.seed}:{index}")

        def shuffled(values: Sequence[Any]) -> Tuple[Any, ...]:
            values = list(values)
            rng.shuffle(values)
            return tuple(values)

        return [
            ExperimentSpec(
                name=f"perfbench-ratios-{index}",
                workloads=shuffled(self.single_disk),
                cache_sizes=(8,),
                fetch_times=shuffled((4, 8)),
                algorithms=shuffled(ALGORITHMS),
                seeds=shuffled(self.single_seeds),
                compute_optimum=True,
                backend=self.backend,
            ),
            self._two_disk_spec(
                f"perfbench-ratios2-{index}", shuffled(self.two_disk_seeds)
            ),
        ]

    def after_round(self, index: int, state: Dict[str, Any]) -> None:
        self.check(f"round {index} ratio bounds", checks.ratio_bounds(state["records"]))

    def finish(self) -> List[str]:
        records, failed = run_grid(
            self._two_disk_spec("perfbench-known-defect", (self.known_defect_seed,)),
            store=None,
        )
        self.check("known-defect probe ratio bounds", checks.ratio_bounds(records))
        self.known_defect_failures = failed
        return self.problems

    def layer_metrics(self, tracer: Tracer, rounds: int) -> Dict[str, float]:
        out = super().layer_metrics(tracer, rounds)
        out["ratios.known_defect_failures"] = float(self.known_defect_failures)
        return out


# ---------------------------------------------------------------------------------
# service
# ---------------------------------------------------------------------------------


class _Client:
    """One tenant: a closed-loop client on one persistent HTTP/1.1 connection."""

    def __init__(self, port: int, algorithm: str, blocks: List[Any], config: "Service") -> None:
        self.connection = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
        self.algorithm = algorithm
        self.blocks = blocks
        self.config = config
        self.feed_ms: List[float] = []
        self.plan_ms: List[float] = []
        self.plan_bytes: List[int] = []
        self.attempted = 0
        self.failed = 0
        self.session: Optional[str] = None
        self.fed = 0
        self.last_plan: Optional[Dict[str, Any]] = None

    def call(self, method: str, path: str, body: Optional[dict] = None) -> Tuple[Optional[dict], float, int]:
        self.attempted += 1
        started = time.perf_counter()
        try:
            self.connection.request(
                method,
                path,
                body=None if body is None else json.dumps(body),
                headers={"Content-Type": "application/json"},
            )
            response = self.connection.getresponse()
            data = response.read()
        except (OSError, http.client.HTTPException) as exc:
            print(f"{method} {path} failed: {exc}", file=sys.stderr)
            self.failed += 1
            self.connection.close()  # reconnects on the next request
            return None, 0.0, 0
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        if not 200 <= response.status < 300:
            print(f"{method} {path} -> {response.status}: {data[:200]!r}", file=sys.stderr)
            self.failed += 1
            return None, elapsed_ms, len(data)
        return json.loads(data), elapsed_ms, len(data)

    def run(self) -> None:
        config = self.config
        created, _, _ = self.call(
            "POST",
            "/session",
            {"algorithm": self.algorithm, "cache_size": config.cache_size,
             "fetch_time": config.fetch_time},
        )
        if created is None:
            return
        self.session = created["session"]
        for start in range(0, len(self.blocks), config.feed_batch):
            chunk = self.blocks[start:start + config.feed_batch]
            reply, ms, _ = self.call(
                "POST", f"/session/{self.session}/requests", {"requests": chunk}
            )
            if reply is not None:
                self.fed = start + len(chunk)
                self.feed_ms.append(ms)
            plan, ms, size = self.call(
                "GET", f"/session/{self.session}/plan?limit={config.plan_limit}"
            )
            if plan is not None:
                self.plan_ms.append(ms)
                self.plan_bytes.append(size)
                self.last_plan = plan
        self.connection.close()


class Service(Workload):
    """Two closed-loop tenants against ``make_server`` on loopback."""

    stream = "zipf:n=1000,blocks=300"
    tenants = ("aggressive", "conservative")
    cache_size = 32
    fetch_time = 8
    feed_batch = 50
    plan_limit = 16

    def __init__(self, ctx: Context) -> None:
        super().__init__(ctx)
        self.rounds: Dict[int, Dict[str, Any]] = {}

    def setup(self, index: int) -> Dict[str, Any]:
        from repro.service.daemon import PrefetchService
        from repro.service.server import make_server
        from repro.workloads import spec as workload_spec

        directory = self.round_dir(index)
        service = PrefetchService(state_dir=directory / "state")
        server = make_server(service, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        seeds = seed_block("service", self.ctx.seed, index, len(self.tenants))
        clients = []
        for algorithm, seed in zip(self.tenants, seeds):
            instance = workload_spec.build_workload_instance(
                f"{self.stream},seed={seed}",
                cache_size=self.cache_size,
                fetch_time=self.fetch_time,
                disks=1,
                layout="striped",
            )
            clients.append(
                _Client(server.server_address[1], algorithm, list(instance.sequence), self)
            )
        return {"dir": directory, "service": service, "server": server,
                "thread": thread, "clients": clients, "traced": self.tracer is not None}

    def measure(self, index: int, state: Dict[str, Any]) -> RoundResult:
        from repro.service.daemon import PrefetchService

        clients: List[_Client] = state["clients"]
        threads = [threading.Thread(target=client.run) for client in clients]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        busy = time.perf_counter() - started
        # The round ends with a restart: snapshot every session, then revive
        # them in a fresh service from the same state directory.
        service = state["service"]
        started = time.perf_counter()
        service.save_all()
        revived = PrefetchService(state_dir=service.state_dir)
        revived.load_all()
        state["restart_s"] = time.perf_counter() - started
        state["revived"] = revived
        state["snapshot_bytes"] = sum(
            path.stat().st_size for path in service.state_dir.glob("*.snapshot.json")
        )
        return RoundResult(
            ops=sum(c.attempted - c.failed for c in clients),
            attempted=sum(c.attempted for c in clients),
            failed=sum(c.failed for c in clients),
            busy_s=busy,
        )

    def teardown(self, index: int, state: Dict[str, Any]) -> None:
        super().teardown(index, state)
        state["server"].shutdown()
        state["server"].server_close()
        state["thread"].join(timeout=30)
        sessions = [c.session for c in state["clients"] if c.session]
        before = {sid: state["service"].plan(sid, self.plan_limit) for sid in sessions}
        after = {sid: state["revived"].plan(sid, self.plan_limit) for sid in sessions}
        self.check(f"round {index} restart", checks.same_plans(before, after))
        state["revived"].close()
        state["service"].close()
        for client in state["clients"]:
            self.check(
                f"round {index} tenant {client.algorithm}",
                checks.plan_matches_offline(
                    client.last_plan,
                    client.blocks[: client.fed],
                    client.algorithm,
                    self.cache_size,
                    self.fetch_time,
                ),
            )
        self.rounds[index] = {
            "traced": state["traced"],
            "feed_ms": [ms for c in state["clients"] for ms in c.feed_ms],
            "plan_ms": [ms for c in state["clients"] for ms in c.plan_ms],
            "plan_bytes": [b for c in state["clients"] for b in c.plan_bytes],
            "restart_s": state["restart_s"],
            "snapshot_bytes": state["snapshot_bytes"],
        }
        shutil.rmtree(state["dir"], ignore_errors=True)

    def client_latency(self, traced: bool) -> Dict[str, float]:
        """Client-observed latency figures over the (un)traced rounds."""
        rounds = [r for r in self.rounds.values() if r["traced"] == traced]
        feed = [ms for r in rounds for ms in r["feed_ms"]]
        plan = [ms for r in rounds for ms in r["plan_ms"]]
        return {
            "service.feed_p50_ms": median(feed),
            "service.feed_p90_ms": nearest_rank(feed, 90),
            "service.feed_samples": float(len(feed)) / max(len(rounds), 1),
            "service.plan_p50_ms": median(plan),
            "service.plan_p90_ms": nearest_rank(plan, 90),
            "service.plan_samples": float(len(plan)) / max(len(rounds), 1),
            "service.restart_s": median([r["restart_s"] for r in rounds]),
        }

    def layer_metrics(self, tracer: Tracer, rounds: int) -> Dict[str, float]:
        out = super().layer_metrics(tracer, rounds)
        # Latency percentiles come from the untraced rounds of the traced run,
        # so tracing cost does not inflate them.
        out.update(self.client_latency(traced=False))
        traced = [r for r in self.rounds.values() if r["traced"]]
        requests = sum(len(r["feed_ms"]) + len(r["plan_ms"]) for r in traced)
        client_ms = sum(sum(r["feed_ms"]) + sum(r["plan_ms"]) for r in traced)
        totals = tracer.totals()
        server_ms = 1000.0 * sum(
            totals.get(name, (0, 0.0))[1]
            for name in ("service.feed", "service.plan")
        )
        out["service.transport_ms"] = (client_ms - server_ms) / requests if requests else 0.0
        out["service.plan_bytes"] = median([b for r in traced for b in r["plan_bytes"]])
        out["service.snapshot_bytes"] = median([r["snapshot_bytes"] for r in traced])
        return out


WORKLOADS = {"sweep": Sweep, "ratios": Ratios, "service": Service, "fabric": Fabric}
