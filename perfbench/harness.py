"""Shared machinery of the benchmark: rounds, statistics, failure accounting.

A workload object supplies ``setup`` / ``measure`` / ``teardown`` for one
*round* (one complete unit of user-visible work, such as one grid run into a
fresh store) plus ``finish`` for the correctness checks that run after the
timed rounds.  :func:`drive` repeats rounds until the next one would overrun
``--seconds`` (always at least one), and reports medians over rounds so a
single disturbed round does not move the figures.

With tracing on, rounds alternate untraced / traced: the untraced rounds
give the wall time that ``trace.overhead`` is measured against, and only the
traced rounds feed the per-layer metrics.
"""

from __future__ import annotations

import importlib
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from perfbench.spans import Tracer

#: End-to-end metrics (printed with ``--trace 0``), name -> unit.  Every
#: workload reports all of them; the unit of work behind ``ops_per_s`` is the
#: workload's own (see README.md).
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_per_s": "1/s",
}

#: Per-layer metrics (printed with ``--trace 1``), name -> unit.  Counts and
#: times are per traced round; a workload that does not exercise a layer
#: reports 0 for it.
PER_LAYER: Dict[str, str] = {
    "workloads.build_s": "s",
    "runner.vector_batches": "count",
    "runner.vector_rows": "count",
    "runner.vector_singletons": "count",
    "disksim.loop_s": "s",
    "disksim.loop_requests_per_s": "1/s",
    "disksim.project_s": "s",
    "disksim.vector_batch_s": "s",
    "disksim.vector_requests_per_s": "1/s",
    "disksim.vector_singleton_s": "s",
    "algorithms.aggressive_s": "s",
    "algorithms.delay_s": "s",
    "algorithms.conservative_s": "s",
    "algorithms.combination_s": "s",
    "algorithms.demand_s": "s",
    "algorithms.parallel-aggressive_s": "s",
    "paging.min_victim_calls": "count",
    "paging.min_victim_s": "s",
    "store.writes": "count",
    "store.put_s": "s",
    "store.get_s": "s",
    "store.optimum_put_s": "s",
    "lp.model_build_s": "s",
    "lp.relax_calls": "count",
    "lp.relax_s": "s",
    "lp.milp_calls": "count",
    "lp.milp_s": "s",
    "lp.extract_s": "s",
    "lp.replay_s": "s",
    "lp.optimum_solves": "count",
    "lp.method.single-disk-exact": "count",
    "lp.method.lp-integral": "count",
    "lp.method.milp": "count",
    "lp.relax_integral_ratio": "ratio",
    "ratios.known_defect_failures": "count",
    "service.feed_s": "s",
    "service.plan_s": "s",
    "service.journal_s": "s",
    "service.transport_ms": "ms",
    "service.plan_bytes": "bytes",
    "service.snapshot_s": "s",
    "service.snapshot_bytes": "bytes",
    "service.restore_s": "s",
    "service.feed_p50_ms": "ms",
    "service.feed_p90_ms": "ms",
    "service.feed_samples": "count",
    "service.plan_p50_ms": "ms",
    "service.plan_p90_ms": "ms",
    "service.plan_samples": "count",
    "service.restart_s": "s",
    "fabric.chunks": "count",
    "fabric.leases": "count",
    "fabric.reissued_leases": "count",
    "fabric.payload_bytes_out": "bytes",
    "fabric.payload_bytes_in": "bytes",
    "fabric.result_wait_s": "s",
    "fabric.worker_start_s": "s",
    "trace.overhead": "ratio",
}

#: Modules whose import is part of set-up (what ``repro sweep`` loads).
IMPORTED_MODULES = (
    "repro.analysis.runner",
    "repro.analysis.remote",
    "repro.service.server",
)

#: How many fresh interpreters time the imports; set-up reports the median.
IMPORT_SAMPLES = 5


@dataclass
class RoundResult:
    """What one timed round did."""

    ops: int
    attempted: int
    failed: int
    #: Time the ops took when the round also does untimed-for-throughput
    #: work (the service's restart); defaults to the whole round.
    busy_s: Optional[float] = None
    setup_s: float = 0.0
    wall_s: float = 0.0
    traced: bool = False


@dataclass
class Context:
    """Run parameters every workload receives."""

    seed: int
    seconds: float
    trace: bool
    workdir: Path
    root: Path


@dataclass
class RunOutcome:
    """Everything :func:`drive` measured for one workload run."""

    attempted: int
    failed: int
    problems: List[str]
    metrics: Dict[str, float]
    import_s: List[float] = field(default_factory=list)
    rounds: List[RoundResult] = field(default_factory=list)
    tracer: Optional[Tracer] = None


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def nearest_rank(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile (0 for no samples)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return float(ordered[rank - 1])


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return kib / 1024.0


def machine_info() -> Dict[str, Any]:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }


def child_env(root: Path, workdir: Path) -> Dict[str, str]:
    """Environment for subprocesses: the checkout's ``src`` on the path and
    every temporary file inside the checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["TMPDIR"] = str(workdir)
    env["SQLITE_TMPDIR"] = str(workdir)
    return env


def import_seconds(ctx: Context) -> List[float]:
    """Wall time of a fresh interpreter importing :data:`IMPORTED_MODULES`."""
    code = "import " + ", ".join(IMPORTED_MODULES)
    samples = []
    for _ in range(IMPORT_SAMPLES):
        started = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", code],
            env=child_env(ctx.root, ctx.workdir),
            cwd=ctx.root,
            check=True,
            timeout=120,
        )
        samples.append(time.perf_counter() - started)
    return samples


def drive(workload: Any, ctx: Context) -> RunOutcome:
    """Run rounds of ``workload`` for about ``ctx.seconds`` and its checks."""
    imports = import_seconds(ctx)
    for module in IMPORTED_MODULES:  # this process pays its imports untimed
        importlib.import_module(module)
    tracer = Tracer() if ctx.trace else None
    rounds: List[RoundResult] = []
    started = time.perf_counter()
    index = 0
    while True:
        traced = tracer is not None and index % 2 == 1
        if traced:
            workload.install_probes(tracer)
        try:
            t0 = time.perf_counter()
            state = workload.setup(index)
            t1 = time.perf_counter()
            try:
                result = workload.measure(index, state)
                t2 = time.perf_counter()
            finally:
                if traced:
                    tracer.restore()
                workload.teardown(index, state)
        finally:
            if traced:
                tracer.restore()
        result.setup_s, result.wall_s, result.traced = t1 - t0, t2 - t1, traced
        rounds.append(result)
        index += 1
        per_round = median([r.setup_s + r.wall_s for r in rounds])
        elapsed = time.perf_counter() - started
        if tracer is not None and index < 2:
            continue
        if elapsed + per_round > ctx.seconds:
            break
    rss = peak_rss_mb()
    problems = workload.finish()
    untraced = [r for r in rounds if not r.traced]
    metrics = {
        "setup_s": median(imports) + median([r.setup_s for r in untraced]),
        "peak_rss_mb": rss,
        "ops_per_s": median([r.ops / (r.busy_s or r.wall_s) for r in untraced]),
    }
    if tracer is not None:
        traced_rounds = [r for r in rounds if r.traced]
        layers = {name: 0.0 for name in PER_LAYER}
        for name, value in workload.layer_metrics(tracer, len(traced_rounds)).items():
            if name not in PER_LAYER:
                raise KeyError(f"layer metric {name!r} is not declared in PER_LAYER")
            layers[name] = value
        layers["trace.overhead"] = (
            median([r.wall_s for r in traced_rounds])
            / median([r.wall_s for r in untraced])
            - 1.0
        )
        metrics = layers
    return RunOutcome(
        attempted=sum(r.attempted for r in rounds),
        failed=sum(r.failed for r in rounds),
        problems=problems,
        metrics=metrics,
        import_s=imports,
        rounds=rounds,
        tracer=tracer,
    )

