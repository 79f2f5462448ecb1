"""Self-tests of the benchmark: metric registry, checks, spans, failure accounting.

Run with ``python -m pytest perfbench/tests -q`` from the checkout root.
Workloads run here on tiny grids (subclasses below) for one round each.
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import checks, harness, workloads
from perfbench.spans import Span, Tracer, self_times

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9_.-]+")

#: Per-layer metrics that are legitimately 0 on the tiny grids: lease
#: re-issues need a faulty worker, and the tiny two-disk shape has no
#: known failing instance.
MAY_BE_ZERO = {"fabric.reissued_leases", "ratios.known_defect_failures"}


class TinySweep(workloads.Sweep):
    workloads = ("zipf:n=40,blocks=12", "loop:blocks=10,loops=2")
    cache_sizes = (4,)
    fetch_times = (2,)


class TinyRatios(workloads.Ratios):
    single_disk = ("zipf:n=14,blocks=8", "loop:blocks=6,loops=2")
    single_seeds = (1,)
    two_disk = "zipf:n=20,blocks=10"
    two_disk_seeds = (1, 2)  # seed 1's relaxation is integral, seed 2 needs the MILP


class TinyService(workloads.Service):
    stream = "zipf:n=120,blocks=30"
    cache_size = 8
    fetch_time = 4
    feed_batch = 20


class TinyFabric(workloads.Fabric):
    workloads = ("zipf:n=30,blocks=10",)
    cache_sizes = (4,)
    fetch_times = (2,)
    seeds_per_round = 2


TINY = {"sweep": TinySweep, "ratios": TinyRatios, "service": TinyService, "fabric": TinyFabric}


def make_ctx(tmp_path: Path, name: str = "run", *, seed: int = 7, trace: bool = False) -> harness.Context:
    """A context for the tiny grids (their records are not the pinned ones,
    so the default seed is not used)."""
    workdir = tmp_path / f"{name}-{seed}-{'traced' if trace else 'plain'}"
    workdir.mkdir()
    return harness.Context(seed=seed, seconds=0.0, trace=trace, workdir=workdir, root=ROOT)


@pytest.fixture(autouse=True)
def one_import_sample(monkeypatch):
    monkeypatch.setattr(harness, "IMPORT_SAMPLES", 1)


@pytest.fixture(scope="module")
def benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# -- metric registry -------------------------------------------------------------


def test_metric_names_are_well_formed_and_declared(benchmark_json):
    declared_e2e = {m["name"]: m["unit"] for m in benchmark_json["end_to_end"]}
    declared_layer = {m["name"]: m["unit"] for m in benchmark_json["per_layer"]}
    assert declared_e2e == harness.END_TO_END
    assert declared_layer == harness.PER_LAYER
    for name in [*declared_e2e, *declared_layer]:
        assert NAME.fullmatch(name), name
    assert [w["name"] for w in benchmark_json["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(TINY))
def test_each_workload_emits_every_end_to_end_metric(tmp_path, name):
    ctx = make_ctx(tmp_path)
    outcome = harness.drive(TINY[name](ctx), ctx)
    assert outcome.problems == []
    assert set(outcome.metrics) == set(harness.END_TO_END)
    assert all(value > 0 for value in outcome.metrics.values()), outcome.metrics
    assert outcome.failed == 0 and outcome.attempted > 0


def test_every_layer_metric_is_emitted_by_some_workload(tmp_path):
    nonzero = set()
    for name, cls in sorted(TINY.items()):
        ctx = make_ctx(tmp_path, name, trace=True)
        outcome = harness.drive(cls(ctx), ctx)
        assert outcome.problems == [], name
        assert set(outcome.metrics) == set(harness.PER_LAYER), name
        nonzero |= {metric for metric, value in outcome.metrics.items() if value != 0}
    assert set(harness.PER_LAYER) - nonzero <= MAY_BE_ZERO


# -- correctness checks catch corrupted outputs ------------------------------------


@pytest.fixture(scope="module")
def sweep_records(tmp_path_factory):
    from repro.analysis import runner

    spec = TinySweep(make_ctx(tmp_path_factory.mktemp("records"))).specs(0)[0]
    return spec, list(runner.run_experiments(spec))


def corrupt(record):
    metrics = dataclasses.replace(record.metrics, stall_time=record.metrics.stall_time + 1)
    return dataclasses.replace(record, metrics=metrics)


def test_loop_reference_check_catches_a_corrupted_record(sweep_records):
    spec, records = sweep_records
    assert checks.matches_loop_reference(records, spec) == []
    bad = list(records)
    bad[3] = corrupt(bad[3])
    assert checks.matches_loop_reference(bad, spec)


def test_pinned_digest_check_catches_a_corrupted_record(sweep_records, tmp_path):
    _, records = sweep_records
    pinned = tmp_path / "pinned.json"
    pinned.write_text(json.dumps({"sweep": checks.records_digest(records)}))
    assert checks.matches_pinned("sweep", checks.DEFAULT_SEED, records, pinned) == []
    bad = [corrupt(records[0]), *records[1:]]
    assert checks.matches_pinned("sweep", checks.DEFAULT_SEED, bad, pinned)
    # Other seeds have no pinned digest; the loop-engine reference covers them.
    assert checks.matches_pinned("sweep", checks.DEFAULT_SEED + 1, bad, pinned) == []


def test_ratio_bound_check_catches_out_of_bound_records():
    from repro.analysis.results import RunRecord
    from repro.core.bounds import aggressive_bound_refined
    from repro.disksim.metrics import SimMetrics

    def record(spec, elapsed, optimal, disks=1):
        return RunRecord(
            point=f"p-{spec}", algorithm=spec, algorithm_spec=spec,
            metrics=SimMetrics(num_requests=100, stall_time=elapsed - 100, num_fetches=1),
            cache_size=8, fetch_time=4, disks=disks, optimal_elapsed=optimal,
        )

    bound = aggressive_bound_refined(8, 4)
    good = [record("aggressive", 120, 110), record("demand", 300, 110),
            record("parallel-aggressive", 150, 110, disks=2)]
    assert checks.ratio_bounds(good) == []
    too_high = record("aggressive", int(110 * bound) + 2, 110)
    below_one = record("delay:d=3", 105, 110)
    two_disk_below_one = record("parallel-aggressive", 105, 110, disks=2)
    for bad in (too_high, below_one, two_disk_below_one):
        assert checks.ratio_bounds([bad]), bad


def test_plan_checks_catch_a_corrupted_plan():
    from repro.service.daemon import PrefetchService
    from repro.workloads.spec import build_workload_instance

    blocks = list(build_workload_instance(
        "zipf:n=80,blocks=20,seed=3", cache_size=6, fetch_time=3, disks=1, layout="striped"
    ).sequence)
    service = PrefetchService()
    session = service.create_session("conservative", cache_size=6, fetch_time=3)
    service.feed(session.session_id, blocks)
    plan = json.loads(json.dumps(service.plan(session.session_id, 16)))
    assert checks.plan_matches_offline(plan, blocks, "conservative", 6, 3) == []

    wrong_metrics = json.loads(json.dumps(plan))
    wrong_metrics["projected"]["metrics"]["stall_time"] += 1
    assert checks.plan_matches_offline(wrong_metrics, blocks, "conservative", 6, 3)
    wrong_fetch = json.loads(json.dumps(plan))
    wrong_fetch["upcoming"][0]["start_time"] += 1
    assert checks.plan_matches_offline(wrong_fetch, blocks, "conservative", 6, 3)

    assert checks.same_plans({"s1": plan}, {"s1": plan}) == []
    assert checks.same_plans({"s1": plan}, {"s1": wrong_fetch})
    assert checks.same_plans({"s1": plan}, {})


# -- spans -------------------------------------------------------------------------


def test_self_time_on_a_synthetic_span_tree():
    spans = [
        Span(0, None, "root", 0.0, 10.0, aggregate_child_s=0.5),
        Span(1, 0, "a", 1.0, 4.0),
        Span(2, 0, "b", 3.0, 6.0),   # overlaps a: the union [1, 6] is covered
        Span(3, 1, "c", 1.5, 2.0),
        Span(4, 2, "d", 5.5, 7.0),   # runs past its parent: clipped to [5.5, 6]
        Span(5, None, "a", 20.0, 21.0),  # a second root "a" adds to the name
    ]
    assert self_times(spans) == pytest.approx(
        {"root": 10 - 5 - 0.5, "a": (3 - 0.5) + 1, "b": 3 - 0.5, "c": 0.5, "d": 1.5}
    )


def test_tracer_wraps_and_restores_module_functions():
    from repro.algorithms import make_algorithm
    from repro.disksim import executor
    from repro.workloads.spec import build_workload_instance

    original = executor.simulate_with_engine
    tracer = Tracer()
    tracer.wrap_everywhere(executor, "simulate_with_engine", "sim")
    assert executor.simulate_with_engine is not original
    instance = build_workload_instance(
        "zipf:n=30,blocks=8,seed=1", cache_size=4, fetch_time=2, disks=1, layout="striped"
    )
    executor.simulate(instance, make_algorithm("aggressive"))
    tracer.restore()
    assert executor.simulate_with_engine is original
    assert [span.name for span in tracer.spans] == ["sim"]


# -- failure accounting ------------------------------------------------------------


class FailingSweep(TinySweep):
    """A tiny sweep whose grid holds one workload that cannot be built."""

    workloads = ("zipf:n=40,blocks=12", "zipf:n=40,blocks=0")
    seeds_per_round = 1


def test_an_injected_failing_point_is_counted_and_the_rest_still_run(tmp_path):
    ctx = make_ctx(tmp_path)
    workload = FailingSweep(ctx)
    state = workload.setup(0)
    result = workload.measure(0, state)
    workload.teardown(0, state)
    per_workload = len(workloads.ALGORITHMS)
    assert result.attempted == 2 * per_workload
    assert result.failed == per_workload
    assert result.ops == per_workload
    assert all("blocks=12" in r.workload for r in state["records"])


# -- seeds and the command ---------------------------------------------------------


def test_inputs_derive_from_the_seed(tmp_path):
    a = workloads.Sweep(make_ctx(tmp_path, "a", seed=7)).specs(0)
    assert a == workloads.Sweep(make_ctx(tmp_path, "b", seed=7)).specs(0)
    assert a != workloads.Sweep(make_ctx(tmp_path, "c", seed=8)).specs(0)


def test_nearest_rank_percentile():
    values = list(range(1, 161))
    assert harness.nearest_rank(values, 90) == 144  # 16 samples beyond p90 of 160
    assert harness.nearest_rank(values, 50) == 80


def test_command_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode != 0
    assert '"correct"' not in run.stdout
