"""Layer probes: which public calls of ``repro`` are wrapped, and the
per-layer metrics derived from the spans they record.

Every workload installs the same probes; a layer the workload does not
exercise records nothing and reports 0.  Layer times are inclusive (a span's
whole duration); self times, which subtract nested spans, go to the trace
file.
"""

from __future__ import annotations

import functools
from typing import Any, Dict

from perfbench.spans import Span, Tracer


def _family(policy: Any) -> str:
    from repro.algorithms.registry import canonicalize_algorithm_spec

    spec = getattr(policy, "spec", None)
    if not spec:
        return type(policy).__name__.lower()
    return canonicalize_algorithm_spec(spec).split(":", 1)[0]


def install_probes(tracer: Tracer) -> None:
    """Wrap the layer boundaries of every ``repro`` layer the workloads use."""
    from repro.analysis import remote, runner, store
    from repro.disksim import executor, stepped, vector
    from repro.lp import model, service as lp_service, solver
    from repro.paging import belady
    from repro.service import coordinator, daemon, recorder, session
    from repro.workloads import spec

    def count(name: str, amount: float = 1.0) -> None:
        tracer.count(name, amount)

    # workloads
    tracer.wrap_everywhere(spec, "build_workload_instance", "workloads.build")

    # analysis.runner: the grid entry point is the root span of a sweep.
    tracer.wrap_everywhere(runner, "run_experiments", "runner.run")

    # disksim: per-point simulations (loop engine or a batch-of-one vector run)
    def after_simulate(span: Span, result: Any, args: tuple, kwargs: dict) -> None:
        sim, engine = result
        instance, policy = args[0], args[1]
        if engine == "vector":
            span.name = "disksim.vector_singleton"
            count("runner.vector_singletons")
        else:
            span.name = "disksim.loop"
            count("disksim.loop_requests", instance.num_requests)
        count(f"algorithms.{_family(policy)}_s", span.duration)

    tracer.wrap_everywhere(
        executor, "simulate_with_engine", "disksim.simulate", after=after_simulate
    )

    def after_batch(span: Span, outcomes: Any, args: tuple, kwargs: dict) -> None:
        pairs = args[0]
        count("runner.vector_batches")
        for (instance, _policy), outcome in zip(pairs, outcomes):
            if outcome.engine == "vector":
                count("runner.vector_rows")
                count("disksim.vector_requests", instance.num_requests)
        if pairs:
            count(f"algorithms.{_family(pairs[0][1])}_s", span.duration)

    tracer.wrap_everywhere(vector, "run_batch", "disksim.vector_batch", after=after_batch)
    tracer.wrap(stepped.SteppedSimulation, "project", "disksim.project")

    # paging: called per eviction, so aggregated instead of one span per call
    tracer.wrap(belady.BeladyMIN, "choose_victim", "paging.min_victim", aggregate=True)

    # analysis.store
    original_put_runs = store.RunStore.put_runs

    @functools.wraps(original_put_runs)
    def put_runs(self, items):
        items = list(items)
        span = tracer.open("store.put")
        try:
            return original_put_runs(self, items)
        finally:
            tracer.close(span)
            count("store.writes", len(items))

    tracer.patch(store.RunStore, "put_runs", put_runs)
    tracer.wrap(store.RunStore, "get_run", "store.get")
    tracer.wrap(store.RunStore, "put_optimum", "store.optimum_put")

    # lp
    def after_optimum(span: Span, record: Any, args: tuple, kwargs: dict) -> None:
        count(f"lp.method.{record.method_used}")

    def after_relax(span: Span, solution: Any, args: tuple, kwargs: dict) -> None:
        if solution.is_integral:
            count("lp.relax_integral")

    tracer.wrap_everywhere(
        lp_service, "compute_optimum_record", "lp.optimum", after=after_optimum
    )
    tracer.wrap(model.SynchronizedLPModel, "__init__", "lp.model_build")
    tracer.wrap_everywhere(solver, "solve_relaxation", "lp.relax", after=after_relax)
    tracer.wrap_everywhere(solver, "solve_integral", "lp.milp")
    tracer.wrap(model.SynchronizedLPModel, "extract_schedule", "lp.extract")
    tracer.wrap_everywhere(executor, "execute_interval_schedule", "lp.replay")

    # service (server side of each request, plus persistence)
    tracer.wrap(session.Session, "feed", "service.feed")
    tracer.wrap(session.Session, "plan", "service.plan")
    tracer.wrap(daemon.PrefetchService, "create_session", "service.create")
    tracer.wrap(recorder.SessionRecorder, "append", "service.journal")
    tracer.wrap(daemon.PrefetchService, "save_all", "service.snapshot")
    tracer.wrap(daemon.PrefetchService, "load_all", "service.restore")

    # fabric (coordinator side only; the worker is another process)
    def after_submit(span: Span, result: Any, args: tuple, kwargs: dict) -> None:
        payloads = args[1] if len(args) > 1 else kwargs["payloads"]
        count("fabric.payload_bytes_out", sum(len(payload) for payload, _ in payloads))

    def after_complete(span: Span, result: Any, args: tuple, kwargs: dict) -> None:
        payload = args[5] if len(args) > 5 else kwargs["payload"]
        count("fabric.payload_bytes_in", len(payload))

    tracer.wrap(coordinator.SweepCoordinator, "submit", "fabric.submit", after=after_submit)
    tracer.wrap(
        coordinator.SweepCoordinator, "complete_chunk", "fabric.complete", after=after_complete
    )
    tracer.wrap(remote.RemoteBackend, "map", "fabric.result_wait")


def layer_metrics(tracer: Tracer, rounds: int) -> Dict[str, float]:
    """Per-round per-layer metrics from the spans of ``rounds`` traced rounds."""
    totals = tracer.totals()
    counts = {name: value / rounds for name, value in tracer.counts.items()}

    def seconds(name: str) -> float:
        return totals.get(name, (0, 0.0))[1] / rounds

    def calls(name: str) -> float:
        return totals.get(name, (0, 0.0))[0] / rounds

    def rate(amount: float, busy: float) -> float:
        return amount / busy if busy > 0 else 0.0

    out: Dict[str, float] = {
        "workloads.build_s": seconds("workloads.build"),
        "disksim.loop_s": seconds("disksim.loop"),
        "disksim.loop_requests_per_s": rate(
            counts.get("disksim.loop_requests", 0.0), seconds("disksim.loop")
        ),
        "disksim.project_s": seconds("disksim.project"),
        "disksim.vector_batch_s": seconds("disksim.vector_batch"),
        "disksim.vector_requests_per_s": rate(
            counts.get("disksim.vector_requests", 0.0), seconds("disksim.vector_batch")
        ),
        "disksim.vector_singleton_s": seconds("disksim.vector_singleton"),
        "paging.min_victim_calls": calls("paging.min_victim"),
        "paging.min_victim_s": seconds("paging.min_victim"),
        "store.put_s": seconds("store.put"),
        "store.get_s": seconds("store.get"),
        "store.optimum_put_s": seconds("store.optimum_put"),
        "lp.model_build_s": seconds("lp.model_build"),
        "lp.relax_calls": calls("lp.relax"),
        "lp.relax_s": seconds("lp.relax"),
        "lp.milp_calls": calls("lp.milp"),
        "lp.milp_s": seconds("lp.milp"),
        "lp.extract_s": seconds("lp.extract"),
        "lp.replay_s": seconds("lp.replay"),
        "lp.optimum_solves": calls("lp.optimum"),
        "lp.relax_integral_ratio": rate(
            counts.get("lp.relax_integral", 0.0), calls("lp.relax")
        ),
        "service.feed_s": seconds("service.feed"),
        "service.plan_s": seconds("service.plan"),
        "service.journal_s": seconds("service.journal"),
        "service.snapshot_s": seconds("service.snapshot"),
        "service.restore_s": seconds("service.restore"),
        "fabric.result_wait_s": seconds("fabric.result_wait"),
    }
    for name in (
        "runner.vector_batches",
        "runner.vector_rows",
        "runner.vector_singletons",
        "store.writes",
        "fabric.payload_bytes_out",
        "fabric.payload_bytes_in",
    ):
        out[name] = counts.get(name, 0.0)
    for name, value in counts.items():
        if name.startswith(("algorithms.", "lp.method.")):
            out[name] = value
    return out
