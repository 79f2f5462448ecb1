"""Least-recently-used replacement.

LRU is the classical online paging heuristic (Sleator & Tarjan analysed its
competitiveness).  It is not used by the paper's algorithms, but serves as an
online point of comparison in the experiments and exercises the eviction-
policy substrate with a stateful policy.
"""

from __future__ import annotations

from typing import AbstractSet, Dict

from .._typing import BlockId
from ..disksim.sequence import RequestSequence
from .base import EvictionPolicy

__all__ = ["LRU"]


class LRU(EvictionPolicy):
    """Evict the resident block whose last use is oldest."""

    name = "LRU"

    def __init__(self) -> None:
        self._last_use: Dict[BlockId, int] = {}

    def reset(self, sequence: RequestSequence, cache_size: int) -> None:
        self._last_use = {}

    def on_access(self, position: int, block: BlockId, hit: bool) -> None:
        self._last_use[block] = position

    def choose_victim(
        self, position: int, resident: AbstractSet[BlockId], requested: BlockId
    ) -> BlockId:
        # Blocks never accessed (warm-start residents) have last use -1 and are
        # evicted first; ties broken by name for determinism.
        return min(resident, key=lambda b: (self._last_use.get(b, -1), str(b)))
