"""Tests for the classical paging substrate (MIN, LRU, FIFO)."""

from __future__ import annotations

from unittest import mock

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.algorithms import Conservative, DemandFetch
from repro.algorithms.parallel_aggressive import ParallelConservative
from repro.disksim import DiskLayout, ProblemInstance, RequestSequence, simulate
from repro.errors import ConfigurationError
from repro.paging import FIFO, LRU, BeladyMIN, min_fault_count, run_paging
from repro.paging.base import EvictionPolicy


class TestRunPaging:
    def test_simple_min_run(self):
        seq = RequestSequence(["a", "b", "c", "a", "b", "d", "a"])
        result = run_paging(seq, 2, BeladyMIN())
        assert result.faults + result.hits == len(seq)
        assert result.faults == min_fault_count(seq, 2)
        assert 0 < result.fault_rate <= 1

    def test_initial_cache_reduces_faults(self):
        seq = RequestSequence(["a", "b", "a", "b"])
        cold = run_paging(seq, 2, BeladyMIN())
        warm = run_paging(seq, 2, BeladyMIN(), initial_cache=["a", "b"])
        assert cold.faults == 2
        assert warm.faults == 0

    def test_eviction_record(self):
        seq = RequestSequence(["a", "b", "c"])
        result = run_paging(seq, 2, BeladyMIN())
        assert result.eviction_at(2) in {"a", "b"}
        assert result.eviction_at(0) is None  # free slot, no eviction

    def test_invalid_cache_size(self):
        with pytest.raises(ConfigurationError):
            run_paging(["a"], 0, BeladyMIN())

    def test_oversized_initial_cache(self):
        with pytest.raises(ConfigurationError):
            run_paging(["a"], 1, BeladyMIN(), initial_cache=["x", "y"])


class TestBelady:
    def test_classic_belady_example(self):
        # A textbook example where MIN beats LRU.
        seq = RequestSequence(["a", "b", "c", "d", "a", "b", "e", "a", "b", "c", "d", "e"])
        assert min_fault_count(seq, 3) <= run_paging(seq, 3, LRU()).faults

    def test_min_evicts_furthest(self):
        seq = RequestSequence(["a", "b", "c", "a", "b"])
        result = run_paging(seq, 2, BeladyMIN())
        # at the fault for c (position 2), a is next used at 3, b at 4 -> evict b
        assert result.eviction_at(2) == "b"

    def test_never_requested_again_evicted_first(self):
        seq = RequestSequence(["a", "b", "z", "a", "b", "a", "b"])
        result = run_paging(seq, 2, BeladyMIN(), initial_cache=["a", "b"])
        # the fault for z must evict a or b, then the evicted one faults back once
        assert result.faults == 2


class TestLRUAndFIFO:
    def test_lru_evicts_least_recent(self):
        seq = RequestSequence(["a", "b", "a", "c", "a", "b"])
        result = run_paging(seq, 2, LRU())
        # at fault for c (pos 3), last uses: a at 2, b at 1 -> evict b
        assert result.eviction_at(3) == "b"

    def test_fifo_evicts_first_loaded(self):
        seq = RequestSequence(["a", "b", "c", "a"])
        result = run_paging(seq, 2, FIFO())
        assert result.eviction_at(2) == "a"

    def test_warm_start_blocks_evicted_before_loaded_blocks(self):
        seq = RequestSequence(["a", "b"])
        result = run_paging(seq, 2, LRU(), initial_cache=["x", "y"])
        # x and y were never accessed, so they are evicted before a and b.
        victims = {victim for _, _, victim in result.evictions if victim}
        assert victims == {"x", "y"}


@settings(max_examples=40, deadline=None)
@given(
    blocks=st.lists(st.integers(min_value=0, max_value=7), min_size=1, max_size=40),
    cache_size=st.integers(min_value=1, max_value=5),
)
def test_property_min_is_optimal_among_policies(blocks, cache_size):
    """MIN never faults more than LRU or FIFO (Belady's optimality)."""
    seq = RequestSequence(blocks)
    min_faults = run_paging(seq, cache_size, BeladyMIN()).faults
    assert min_faults <= run_paging(seq, cache_size, LRU()).faults
    assert min_faults <= run_paging(seq, cache_size, FIFO()).faults
    # faults are at least the number of distinct blocks beyond the (empty) cache
    assert min_faults >= min(len(set(blocks)), 1)


class _ScanMIN(EvictionPolicy):
    """Reference MIN: a max over the whole resident set at every eviction."""

    name = "MIN"

    def reset(self, sequence, cache_size):
        self._sequence = sequence

    def choose_victim(self, position, resident, requested):
        seq = self._sequence
        return max(resident, key=lambda b: (seq.next_use_from(position + 1, b), str(b)))


def _outcome(result):
    return result.metrics, result.schedule, result.policy_name


@seed(13)
@settings(max_examples=80, deadline=None)
@given(
    requests=st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=50),
    cache_size=st.integers(min_value=1, max_value=6),
    warm=st.integers(min_value=0, max_value=6),
    fetch_time=st.integers(min_value=1, max_value=6),
    disks=st.integers(min_value=2, max_value=3),
)
def test_heap_min_matches_the_max_scan_reference(requests, cache_size, warm, fetch_time, disks):
    """Heap-backed MIN evicts exactly what the max-scan over resident blocks does.

    Checked on cold and warm ``run_paging`` runs (the warm set includes
    never-requested blocks, whose next uses tie at infinity) and on the
    schedules of the algorithms that replay MIN: Conservative, demand
    paging and parallel-conservative.
    """
    sequence = RequestSequence([f"b{block}" for block in requests])
    universe = sorted(sequence.distinct_blocks) + ["w0", "w1"]
    warm_set = universe[: min(warm, cache_size)]
    for initial in ((), warm_set):
        assert run_paging(sequence, cache_size, BeladyMIN(), initial) == run_paging(
            sequence, cache_size, _ScanMIN(), initial
        )

    single = ProblemInstance.single_disk(sequence, cache_size, fetch_time, initial_cache=warm_set)
    parallel = ProblemInstance.parallel_disk(
        sequence,
        cache_size,
        fetch_time,
        layout=DiskLayout.striped(sorted(sequence.distinct_blocks), disks),
        initial_cache=warm_set,
    )
    assert _outcome(simulate(single, DemandFetch(BeladyMIN()))) == _outcome(
        simulate(single, DemandFetch(_ScanMIN()))
    )

    def replays():
        return [
            _outcome(simulate(single, Conservative())),
            _outcome(simulate(parallel, ParallelConservative())),
        ]

    heap = replays()
    with mock.patch("repro.algorithms.conservative.BeladyMIN", _ScanMIN), mock.patch(
        "repro.algorithms.parallel_aggressive.BeladyMIN", _ScanMIN
    ):
        assert replays() == heap


def test_min_rebuilds_its_heap_when_positions_are_skipped():
    """Direct calls that skip ``on_access`` still get the furthest next use."""
    seq = RequestSequence(["a", "b", "c", "a", "b", "c", "d", "a"])
    policy = BeladyMIN()
    policy.reset(seq, 2)
    assert policy.choose_victim(2, {"a", "b"}, "c") == "b"
    # positions 3..5 never reported: from 7 on, only "a" is requested again
    assert policy.choose_victim(6, {"a", "c"}, "d") == "c"


def test_min_rebuilds_its_heap_when_a_victim_was_not_applied():
    """Asking twice at one position, cache unchanged, gives the same victim."""
    seq = RequestSequence(["a", "b", "c", "a", "b"])
    policy = BeladyMIN()
    policy.reset(seq, 2)
    assert policy.choose_victim(2, {"a", "b"}, "c") == "b"
    assert policy.choose_victim(2, {"a", "b"}, "c") == "b"
