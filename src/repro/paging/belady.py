"""Belady's optimal offline replacement algorithm MIN.

MIN evicts, on every fault with a full cache, the resident block whose next
reference is furthest in the future (blocks never referenced again are
furthest of all).  Belady (1966) proved MIN minimises the number of faults;
the *Conservative* prefetching algorithm of Cao et al. performs exactly MIN's
replacements while overlapping the fetches with computation as much as the
replacement choice allows.
"""

from __future__ import annotations

from typing import AbstractSet, Optional

from .._typing import BlockId
from ..disksim.index import EvictionHeap
from ..disksim.sequence import RequestSequence
from .base import EvictionPolicy

__all__ = ["BeladyMIN", "min_fault_count"]


class BeladyMIN(EvictionPolicy):
    """Furthest-in-future replacement (optimal offline paging).

    Victims come from a lazy :class:`~repro.disksim.index.EvictionHeap` over
    the resident blocks, so an eviction costs amortised O(log k), not O(k)
    next-use lookups.  The heap is seeded from ``resident`` at the first
    eviction and kept in step afterwards: every hit reported through
    :meth:`on_access` refreshes the served block's key, and each
    :meth:`choose_victim` swaps its victim for the faulting block.  Its keys
    are only exact when every position since the seeding was reported and
    its members are ``resident``, so a skipped position, or a heap whose
    members differ from ``resident`` (a fault into a free slot, a victim the
    caller did not apply, a cache changed behind the policy's back), rebuilds
    it from ``resident``.
    """

    name = "MIN"

    def __init__(self) -> None:
        self._sequence: Optional[RequestSequence] = None
        self._heap: Optional[EvictionHeap] = None
        self._next_position = 0

    def reset(self, sequence: RequestSequence, cache_size: int) -> None:
        self._sequence = sequence
        self._heap = None
        self._next_position = 0

    def on_access(self, position: int, block: BlockId, hit: bool) -> None:
        if position != self._next_position:
            self._heap = None
        self._next_position = position + 1
        if hit and self._heap is not None:
            self._heap.on_serve(position)

    def choose_victim(
        self, position: int, resident: AbstractSet[BlockId], requested: BlockId
    ) -> BlockId:
        assert self._sequence is not None, "reset() must be called before choose_victim()"
        # Furthest next use measured strictly after the faulting position; ties
        # broken by block name for determinism.
        cursor = position + 1
        heap = self._heap
        if heap is None or cursor != self._next_position or not heap.holds(resident):
            heap = self._heap = EvictionHeap(self._sequence)
            for block in resident:
                heap.add(block, cursor)
        victim = heap.best(cursor)
        assert victim is not None, "choose_victim() needs a non-empty resident set"
        heap.discard(victim)
        heap.add(requested, cursor)
        self._next_position = cursor
        return victim


def min_fault_count(
    sequence: RequestSequence,
    cache_size: int,
    initial_cache=(),
) -> int:
    """Number of faults MIN incurs — the offline minimum for demand paging."""
    from .base import run_paging

    return run_paging(sequence, cache_size, BeladyMIN(), initial_cache).faults
