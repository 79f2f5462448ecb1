"""Tests for the shape-bucketing planner and the runner's vector path."""

from __future__ import annotations

import json
import logging

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import TunedConservative
from repro.analysis import runner as runner_module
from repro.analysis.runner import (
    MAX_VECTOR_BATCH,
    MIN_VECTOR_BATCH,
    ExperimentSpec,
    _plan_execution_units,
    _vector_bucket_key,
    point_cache_key,
    run_experiments,
)


def _spec(**overrides) -> ExperimentSpec:
    base = dict(
        name="planner-t",
        workloads=("zipf:n=30,blocks=8",),
        cache_sizes=(4,),
        fetch_times=(3,),
        algorithms=("aggressive",),
        seeds=tuple(range(10)),
        engine="vector",
    )
    base.update(overrides)
    return ExperimentSpec(**base)


def _pending(spec):
    points = spec.points()
    return [(position, point, point_cache_key(point)) for position, point in enumerate(points)]


# -- partition properties ----------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(
    workloads=st.lists(
        st.sampled_from(
            ["zipf:n=30,blocks=8", "zipf:n=24,blocks=6", "uniform:n=30,blocks=8"]
        ),
        min_size=1,
        max_size=3,
        unique=True,
    ),
    cache_sizes=st.lists(st.integers(min_value=2, max_value=8), min_size=1, max_size=2, unique=True),
    algorithms=st.lists(
        st.sampled_from(["aggressive", "delay:d=2", "combination", "conservative", "demand"]),
        min_size=1,
        max_size=3,
        unique=True,
    ),
    num_seeds=st.integers(min_value=1, max_value=12),
    engine=st.sampled_from(["vector", "auto", "loop"]),
)
def test_every_pending_point_lands_in_exactly_one_unit(
    workloads, cache_sizes, algorithms, num_seeds, engine
):
    """Property: the planner partitions the grid — no point dropped, none duplicated."""
    spec = _spec(
        workloads=tuple(workloads),
        cache_sizes=tuple(cache_sizes),
        algorithms=tuple(algorithms),
        seeds=tuple(range(num_seeds)),
        engine=engine,
    )
    pending = _pending(spec)
    units = _plan_execution_units(pending)
    flattened = [item for _kind, items in units for item in items]
    assert sorted(position for position, _p, _k in flattened) == list(range(len(pending)))
    assert {id(item) for item in flattened} == {id(item) for item in pending}
    for kind, items in units:
        if kind == "sim":
            assert len(items) == 1
        else:
            assert MIN_VECTOR_BATCH <= len(items) <= MAX_VECTOR_BATCH
            # A stacked unit holds one shape bucket, in grid order.
            assert [p for p, _point, _k in items] == sorted(p for p, _point, _k in items)
    if engine == "loop":
        assert all(kind == "sim" for kind, _items in units)


def test_small_buckets_demote_to_per_point_tasks():
    spec = _spec(seeds=tuple(range(MIN_VECTOR_BATCH - 1)))
    units = _plan_execution_units(_pending(spec))
    assert all(kind == "sim" for kind, _items in units)
    spec = _spec(seeds=tuple(range(MIN_VECTOR_BATCH)))
    units = _plan_execution_units(_pending(spec))
    assert [kind for kind, _items in units] == ["simbatch"]


def test_oversized_buckets_chunk_at_the_batch_ceiling():
    spec = _spec(seeds=tuple(range(MAX_VECTOR_BATCH + 5)))
    units = _plan_execution_units(_pending(spec))
    assert [kind for kind, _items in units] == ["simbatch", "simbatch"]
    assert [len(items) for _kind, items in units] == [MAX_VECTOR_BATCH, 5]


def test_ineligible_points_run_per_point():
    """Uncovered families and parallel-disk points never enter a bucket."""
    spec = _spec(
        algorithms=("aggressive", "demand", "demand:evict=min", "demand:evict=lru",
                    "demand:evict=fifo"),
        seeds=tuple(range(8)),
    )
    units = _plan_execution_units(_pending(spec))
    kinds = {}
    for kind, items in units:
        for _position, point, _key in items:
            kinds.setdefault(point.algorithm, set()).add(kind)
    # Only demand paging with the MIN backend has a kernel plan.
    assert kinds == {
        "aggressive": {"simbatch"},
        "demand": {"simbatch"},
        "demand:evict=min": {"simbatch"},
        "demand:evict=lru": {"sim"},
        "demand:evict=fifo": {"sim"},
    }
    parallel = _spec(algorithms=("parallel-aggressive",), disks=(2,), seeds=tuple(range(8)))
    assert {kind for kind, _items in _plan_execution_units(_pending(parallel))} == {"sim"}


# -- runner equivalence ------------------------------------------------------------


def _normalized(result_set):
    """Record dumps with the engine provenance normalized away."""
    out = []
    for record in result_set.records:
        payload = record.to_json_dict()
        payload["engine"] = "<engine>"
        out.append(json.dumps(payload, sort_keys=True))
    return out


def test_run_experiments_vector_matches_loop_modulo_engine():
    """Batched grid output == serial loop grid output, in the same order."""
    grid = dict(
        workloads=("zipf:n=40,blocks=10",),
        algorithms=("aggressive", "delay:d=3", "conservative", "demand:evict=lru"),
        seeds=tuple(range(9)),
    )
    loop = run_experiments(_spec(engine="loop", **grid))
    vector = run_experiments(_spec(engine="vector", **grid))
    assert _normalized(vector) == _normalized(loop)
    by_algorithm = {}
    for record in vector.records:
        by_algorithm.setdefault(record.algorithm_spec, set()).add(record.engine)
    assert by_algorithm["aggressive"] == {"vector"}
    assert by_algorithm["delay:d=3"] == {"vector"}
    assert by_algorithm["conservative"] == {"vector"}
    assert by_algorithm["demand:evict=lru"] == {"loop"}  # per-point fallback


def test_batch_fallbacks_log_their_reason(monkeypatch, caplog):
    """A batch row the kernel cannot run logs why, as a per-point fallback does."""

    make = runner_module.make_algorithm
    monkeypatch.setattr(
        runner_module,
        "make_algorithm",
        lambda spec: TunedConservative() if spec == "conservative" else make(spec),
    )
    points = tuple(_spec(algorithms=("aggressive", "conservative"), seeds=(0, 1)).points())
    with caplog.at_level(logging.DEBUG, logger=runner_module.__name__):
        records = runner_module._evaluate_batch(points)
    assert [(r.algorithm_spec, r.engine) for r in records] == [
        (p.algorithm, "vector" if p.algorithm == "aggressive" else "loop") for p in points
    ]
    logged = [r.getMessage() for r in caplog.records if "ineligible" in r.getMessage()]
    assert len(logged) == 2
    for message, point in zip(logged, [p for p in points if p.algorithm == "conservative"]):
        assert message == (
            f"point [{point.describe()}]: vector engine ineligible, ran loop: "
            "no vector kernel plan for policy 'conservative'"
        )


# -- engine selection --------------------------------------------------------------


def test_auto_with_numpy_prefers_the_vector_engine():
    spec = _spec(engine="auto", seeds=tuple(range(MIN_VECTOR_BATCH)))
    assert spec.engine == "vector"
    assert {point.engine for point in spec.points()} == {"vector"}
    results = run_experiments(spec)
    assert {record.engine for record in results.records} == {"vector"}


# -- shape buckets across k, F and algorithm ---------------------------------------


def test_mixed_grid_forms_one_batch_per_workload_shape():
    """Every eligible point of one workload shape shares a single kernel pass."""
    grid = dict(
        workloads=("zipf:n=40,blocks=10", "loop:blocks=6,loops=4"),
        cache_sizes=(4, 6),
        fetch_times=(3, 5),
        algorithms=(
            "aggressive", "delay:d=3", "combination", "conservative", "demand", "demand:evict=lru"
        ),
        seeds=tuple(range(3)),
        engine="auto",
    )
    units = _plan_execution_units(_pending(_spec(**grid)))
    batches = [items for kind, items in units if kind == "simbatch"]
    # zipf: 3 seeds x 2 k x 2 F x 5 covered algorithms; loop (unseeded): 2 x 2 x 5.
    assert sorted(len(items) for items in batches) == [20, 60]
    for items in batches:
        assert len({point.workload.split(":")[0] for _p, point, _k in items}) == 1
    ineligible = [items[0][1] for kind, items in units if kind == "sim"]
    assert {point.algorithm for point in ineligible} == {"demand:evict=lru"}

    loop = run_experiments(_spec(**dict(grid, engine="loop")))
    auto = run_experiments(_spec(**grid))
    assert _normalized(auto) == _normalized(loop)
    assert {r.engine for r in auto.records if r.algorithm_spec == "demand:evict=lru"} == {"loop"}
    assert {r.engine for r in auto.records if r.algorithm_spec != "demand:evict=lru"} == {
        "vector"
    }


def test_instance_kind_buckets_never_mix_lengths():
    """thm2's length depends on k and F, so they stay in its bucket key."""
    spec = _spec(
        workloads=("thm2:phases=3",),
        cache_sizes=(7, 13),
        fetch_times=(4,),
        algorithms=("aggressive", "delay:d=2", "combination"),
        seeds=(None,),
    )
    pending = _pending(spec)
    lengths = {point.cache_size: point.build_instance().num_requests for _p, point, _k in pending}
    assert len(set(lengths.values())) == 2  # the grid really has two lengths
    buckets = {}
    for _position, point, _key in pending:
        buckets.setdefault(_vector_bucket_key(point), set()).add(
            point.build_instance().num_requests
        )
    assert len(buckets) == 2
    assert all(len(lengths_in_bucket) == 1 for lengths_in_bucket in buckets.values())



def test_long_sequences_stack_fewer_rows_per_pass(monkeypatch):
    """Buckets chunk at MAX_VECTOR_CELLS rows x requests, not only at MAX_VECTOR_BATCH."""
    monkeypatch.setattr(runner_module, "MAX_VECTOR_CELLS", 30 * 10)  # 10 rows of n=30
    units = _plan_execution_units(_pending(_spec(seeds=tuple(range(24)))))
    assert [len(items) for _kind, items in units] == [10, 10, 4]
    monkeypatch.setattr(runner_module, "MAX_VECTOR_CELLS", 30)  # floor: MIN_VECTOR_BATCH rows
    units = _plan_execution_units(_pending(_spec(seeds=tuple(range(24)))))
    assert [len(items) for _kind, items in units] == [MIN_VECTOR_BATCH] * 3
