"""First-in-first-out replacement.

FIFO evicts the resident block that entered the cache earliest.  Included as
a second online baseline and as a deliberately weak policy for tests that
need a policy other than MIN/LRU.
"""

from __future__ import annotations

from typing import AbstractSet, Dict

from .._typing import BlockId
from ..disksim.sequence import RequestSequence
from .base import EvictionPolicy

__all__ = ["FIFO"]


class FIFO(EvictionPolicy):
    """Evict the resident block with the earliest load time."""

    name = "FIFO"

    def __init__(self) -> None:
        self._load_order: Dict[BlockId, int] = {}
        self._counter = 0

    def reset(self, sequence: RequestSequence, cache_size: int) -> None:
        self._load_order = {}
        self._counter = 0

    def on_access(self, position: int, block: BlockId, hit: bool) -> None:
        if not hit and block not in self._load_order:
            self._load_order[block] = self._counter
            self._counter += 1

    def choose_victim(
        self, position: int, resident: AbstractSet[BlockId], requested: BlockId
    ) -> BlockId:
        return min(resident, key=lambda b: (self._load_order.get(b, -1), str(b)))
