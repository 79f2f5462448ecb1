"""Vector engine vs the loop engine: byte-identical results.

The struct-of-arrays batch engine (``engine="vector"``) must be a pure
performance transformation of the loop engine, exactly as the loop engine is
of the scan engine: on every covered instance and policy the
:class:`SimMetrics` and the :class:`Schedule` — every fetch, start time,
block and victim — must match exactly, and a :class:`RunRecord` produced
through the vector path must serialize to the same bytes as the loop path
(the ``engine`` provenance field is the one permitted difference; these
tests normalize it before comparing).  Mirrors the 225-instance
indexed-vs-scan oracle in ``test_engine_equivalence.py``.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import TunedConservative, random_instance
from repro.algorithms import (
    Aggressive,
    Combination,
    Conservative,
    Delay,
    DemandFetch,
    ParallelAggressive,
)
from repro.algorithms.conservative import _PlannedFetch
from repro.algorithms.registry import make_algorithm
from repro.analysis.runner import evaluate_instances
from repro.disksim import (
    ProblemInstance,
    RequestSequence,
    run_batch,
    simulate,
    simulate_batch,
    simulate_vector,
    simulate_with_engine,
)

# The same five single-disk families as the indexed-vs-scan oracle, all of
# which the kernel covers natively (DemandFetch with its default MIN backend).
SINGLE_DISK_FACTORIES = (
    lambda seed: Aggressive(),
    lambda seed: Conservative(),
    lambda seed: Delay(seed % 11),
    lambda seed: Combination(),
    lambda seed: DemandFetch(),
)

#: Every registered single-disk-capable algorithm spec (both Aggressive
#: tie-breaks, two Delay depths, Combination, Conservative, MIN demand
#: paging and the LRU demand paging that falls back to the loop engine).
ALL_SPECS = (
    "aggressive",
    "aggressive:tiebreak=low",
    "delay:d=2",
    "delay:d=7",
    "combination",
    "conservative",
    "demand",
    "demand:evict=lru",
)


def _assert_fetches_identical(left, right, context):
    """Schedule equality plus per-fetch block/victim (TimedFetch.__eq__ skips them)."""
    assert left.schedule == right.schedule, f"schedules diverge ({context})"
    for ours, theirs in zip(left.schedule.fetches, right.schedule.fetches):
        assert ours.block == theirs.block, f"fetched blocks diverge ({context})"
        assert ours.victim == theirs.victim, f"victims diverge ({context})"


def _assert_equivalent(instance, policy_factory, seed):
    loop = simulate(instance, policy_factory(seed), engine="loop")
    vector, engine = simulate_with_engine(instance, policy_factory(seed), engine="vector")
    assert engine == "vector", f"kernel did not claim a covered policy (seed {seed})"
    _assert_fetches_identical(vector, loop, f"seed {seed}, engine {engine}")
    assert vector.metrics == loop.metrics, f"metrics diverge (seed {seed})"


@pytest.mark.parametrize("seed", range(150))
def test_single_disk_equivalence(seed):
    """150 single-disk instances, two policy families each (rotating)."""
    instance = random_instance(seed)
    _assert_equivalent(instance, SINGLE_DISK_FACTORIES[seed % 5], seed)
    _assert_equivalent(instance, SINGLE_DISK_FACTORIES[(seed + 2) % 5], seed)


@pytest.mark.parametrize("seed", range(150, 225, 3))
def test_parallel_disk_instances_fall_back(seed):
    """The kernel never claims parallel-disk instances; the fallback matches."""
    instance = random_instance(seed, parallel=True)
    assert simulate_vector(instance, ParallelAggressive()) is None
    result, engine = simulate_with_engine(instance, ParallelAggressive(), engine="vector")
    assert engine == "loop"
    reference = simulate(instance, ParallelAggressive(), engine="loop")
    _assert_fetches_identical(result, reference, f"seed {seed}")
    assert result.metrics == reference.metrics


def test_simulate_batch_matches_serial_simulation():
    """One stacked pass over many same-shape instances == one-by-one loop runs."""
    instances = [random_instance(seed) for seed in (3, 9, 21, 33)]
    for spec in ("aggressive", "delay:d=4"):
        outcomes = simulate_batch(instances, spec, schedules=True)
        assert [o.engine for o in outcomes] == ["vector"] * len(instances)
        for instance, outcome in zip(instances, outcomes):
            reference = simulate(instance, make_algorithm(spec), engine="loop")
            assert outcome.metrics == reference.metrics
            _assert_fetches_identical(outcome, reference, instance.sequence[0])


def test_run_batch_mixes_covered_and_fallback_pairs():
    """Per-pair fallback inside one batch: covered rows vector, the rest loop."""
    instance = random_instance(5)
    factories = [
        Aggressive,
        TunedConservative,
        lambda: Delay(3),
        lambda: DemandFetch(evict="lru"),
        Conservative,
        DemandFetch,
    ]
    outcomes = run_batch([(instance, factory()) for factory in factories])
    assert [o.engine for o in outcomes] == ["vector", "loop", "vector", "loop", "vector", "vector"]
    for factory, outcome in zip(factories, outcomes):
        assert outcome.metrics == simulate(instance, factory(), engine="loop").metrics
        if outcome.engine == "loop":
            assert "no vector kernel plan" in outcome.ineligibility_reason
        else:
            assert outcome.ineligibility_reason is None


def test_stacked_batch_of_every_family_matches_the_loop_engine():
    """One kernel pass over all five families (and a Combination choosing
    between Conservative and demand paging) at several k and F on shared
    sequences equals the loop engine fetch for fetch (block and victim)."""
    specs = (
        "aggressive",
        "delay:d=3",
        "conservative",
        "combination",
        "demand",
        "combination:delay=conservative,alt=demand",
    )
    pairs = []
    for seed in (1, 4, 7):
        base = random_instance(seed)
        for cache_size in (2, 4, 6):
            for fetch_time in (1, 3, 8):
                instance = ProblemInstance.single_disk(
                    base.sequence,  # one sequence object across k and F
                    cache_size=cache_size,
                    fetch_time=fetch_time,
                    initial_cache=sorted(base.initial_cache, key=str)[:cache_size],
                )
                pairs.extend((instance, spec) for spec in specs)
    outcomes = run_batch(
        [(instance, make_algorithm(spec)) for instance, spec in pairs], schedules=True
    )
    assert {o.engine for o in outcomes} == {"vector"}
    for (instance, spec), outcome in zip(pairs, outcomes):
        reference = simulate(instance, make_algorithm(spec), engine="loop")
        context = f"{spec} k={instance.cache_size} F={instance.fetch_time}"
        _assert_fetches_identical(outcome, reference, context)
        assert outcome.metrics == reference.metrics, context
        assert outcome.policy_name == reference.policy_name, context


def test_conservative_rows_share_one_min_replay_per_plan(monkeypatch):
    """Rows sharing a sequence object, k and warm set replay MIN once per batch."""
    replays = []
    on_reset = Conservative.on_reset

    def counting(self, instance):
        replays.append(instance.cache_size)
        on_reset(self, instance)

    monkeypatch.setattr(Conservative, "on_reset", counting)
    sequence = random_instance(4).sequence
    pairs = [
        (ProblemInstance.single_disk(sequence, cache_size=k, fetch_time=f), Conservative())
        for k in (3, 5)
        for f in (1, 2, 4)
    ]
    outcomes = run_batch(pairs)
    assert sorted(replays) == [3, 5]
    for (instance, _), outcome in zip(pairs, outcomes):
        assert outcome.metrics == simulate(instance, Conservative(), engine="loop").metrics


# -- Conservative.decide's defensive branches ----------------------------------------
#
# A plan replayed from MIN on the same instance never reaches these branches
# (its fetches keep the cache exactly in step with MIN's), so each test pins a
# plan through ``on_reset``: the kernel reads the plan ``on_reset`` builds, and
# must then follow ``decide`` and the engine's forced demand fetch exactly.


def _pinned_plan_run(monkeypatch, requests, warm, cache_size, entries, fetch_time=2):
    """Kernel vs loop engine for Conservative with the plan ``entries``."""

    def on_reset(self, instance):
        self._plan = [
            _PlannedFetch(block=block, victim=victim, earliest_pos=earliest, miss_pos=earliest)
            for block, victim, earliest in entries
        ]
        self._next_plan_index = 0

    monkeypatch.setattr(Conservative, "on_reset", on_reset)
    instance = ProblemInstance.single_disk(
        RequestSequence(requests), cache_size=cache_size, fetch_time=fetch_time,
        initial_cache=warm,
    )
    loop = simulate(instance, Conservative(), engine="loop")
    (outcome,) = run_batch([(instance, Conservative())], schedules=True)
    assert outcome.engine == "vector"
    _assert_fetches_identical(outcome, loop, "pinned plan")
    assert outcome.metrics == loop.metrics
    return loop.schedule.fetches


def test_kernel_skips_a_planned_block_that_is_already_resident(monkeypatch):
    fetches = _pinned_plan_run(
        monkeypatch, ["a", "b", "a"], warm=["a"], cache_size=2,
        entries=[("a", None, 0), ("b", None, 0)],
    )
    assert [(f.block, f.victim) for f in fetches] == [("b", None)]


def test_kernel_replaces_a_planned_victim_that_was_already_evicted(monkeypatch):
    fetches = _pinned_plan_run(
        monkeypatch, ["a", "b", "c", "z"], warm=["a", "c"], cache_size=2,
        entries=[("b", "z", 0), ("z", "a", 3)],
    )
    assert [(f.block, f.victim) for f in fetches] == [("b", "c"), ("c", "b"), ("z", "a")]


def test_kernel_picks_a_victim_for_a_victimless_entry_in_a_full_cache(monkeypatch):
    fetches = _pinned_plan_run(
        monkeypatch, ["a", "b", "c"], warm=["a", "c"], cache_size=2,
        entries=[("b", None, 0)],
    )
    assert [(f.block, f.victim) for f in fetches] == [("b", "c"), ("c", "b")]


def test_kernel_takes_the_engine_forced_fetch_when_the_plan_waits(monkeypatch):
    fetches = _pinned_plan_run(
        monkeypatch, ["a", "b", "a", "c", "b"], warm=[], cache_size=2,
        entries=[("c", None, 3)],
    )
    assert [(f.block, f.victim) for f in fetches] == [("a", None), ("b", None), ("c", "a")]


def _normalized_json(result_set):
    """Sorted-key record dumps with the engine provenance field normalized."""
    dumps = []
    for record in result_set.records:
        payload = record.to_json_dict()
        payload["engine"] = "<engine>"
        dumps.append(json.dumps(payload, sort_keys=True))
    return dumps


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_run_records_byte_identical_across_engines(warm):
    """Acceptance: vector RunRecords == loop RunRecords, byte for byte.

    All seven algorithm specs over warm- and cold-cache instances; the
    ``engine`` field is the one permitted difference and is normalized on
    both sides before comparing.
    """
    labeled = []
    for seed in (2, 4, 11):
        instance = random_instance(seed if warm else seed + 1)
        if not warm:
            instance = ProblemInstance.single_disk(
                instance.sequence,
                cache_size=instance.cache_size,
                fetch_time=instance.fetch_time,
            )
        labeled.append((f"inst{seed}", instance))
    loop = evaluate_instances(labeled, ALL_SPECS, engine="loop")
    vector = evaluate_instances(labeled, ALL_SPECS, engine="vector")
    assert _normalized_json(vector) == _normalized_json(loop)
    engines = {record.engine for record in vector.records}
    assert "vector" in engines  # the covered families really took the kernel
    assert {record.engine for record in loop.records} == {"loop"}


@settings(max_examples=40, deadline=None)
@given(
    blocks=st.lists(st.integers(min_value=0, max_value=9), min_size=3, max_size=40),
    cache_size=st.integers(min_value=2, max_value=6),
    fetch_time=st.integers(min_value=1, max_value=7),
    delay=st.integers(min_value=0, max_value=9),
)
def test_property_equivalence_on_arbitrary_sequences(blocks, cache_size, fetch_time, delay):
    instance = ProblemInstance.single_disk(
        RequestSequence(blocks), cache_size=cache_size, fetch_time=fetch_time
    )
    for policy_factory in (
        lambda s: Aggressive(),
        lambda s: Aggressive(tiebreak="low"),
        lambda s: Delay(delay),
        lambda s: Combination(),
        lambda s: Conservative(),
        lambda s: DemandFetch(),
    ):
        _assert_equivalent(instance, policy_factory, delay)
