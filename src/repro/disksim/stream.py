"""Append-only request sequences for online (streamed) simulation.

The Cao et al. problem is offline — the whole sequence is known — but the
service layer answers "what would the policy fetch next?" while requests are
still arriving.  :class:`StreamSequence` is the substrate for that: a
:class:`~repro.disksim.sequence.RequestSequence` whose tail can grow via
:meth:`StreamSequence.extend` while every position-query (``next_use_from``,
``distinct_in_window``, ...) stays exact *over the fed prefix*.  A query
whose true answer lies beyond the horizon returns
:data:`~repro._typing.INFINITY` exactly as a finished sequence would for
"never again"; the stepped kernel's guarded view decides when that answer is
safe to act on and when the simulation must pause instead.

Once :meth:`StreamSequence.close` is called the stream is a plain immutable
sequence and all answers are final.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple, cast

from .._typing import INFINITY, BlockId
from ..errors import InvalidSequenceError
from .sequence import RequestSequence

__all__ = ["StreamSequence"]


class StreamSequence(RequestSequence):
    """A request sequence that grows at the tail until it is closed.

    The parent's per-block position lists and next-use chain are maintained
    incrementally: appending one request costs O(1) amortised (one list
    append plus patching the previous occurrence's next-use link), so feeding
    requests one at a time is linear overall.

    Unlike its parent, a stream may start empty; equality and hashing view
    the *current* prefix (they are only stable once the stream is closed).
    """

    __slots__ = ("_closed",)

    def __init__(self, requests: Sequence[BlockId] = ()) -> None:
        # Deliberately no super().__init__(): the parent freezes tuples,
        # whereas the stream keeps list-backed storage it can append to.  The
        # parent's query methods only index/slice/len these containers, which
        # lists support identically.
        self._requests = cast(Tuple[BlockId, ...], [])
        self._positions = cast(Dict[BlockId, List[int]], {})
        self._next_use = cast(Tuple[int, ...], [])
        self._hash = None
        self._closed = False
        if requests:
            self.extend(requests)

    # -- growth -----------------------------------------------------------------

    @property
    def closed(self) -> bool:
        """Whether the stream has been sealed (no further requests accepted)."""
        return self._closed

    def close(self) -> None:
        """Seal the stream: the sequence is now final and fully known."""
        self._closed = True

    def extend(self, blocks: Iterable[BlockId]) -> int:
        """Append ``blocks`` at the tail; returns how many were appended.

        Raises :class:`~repro.errors.InvalidSequenceError` when the stream is
        closed or a block is ``None`` or unhashable.  The batch is checked
        whole before anything is appended, so a rejected batch leaves the
        stream unchanged.
        """
        if self._closed:
            raise InvalidSequenceError("cannot extend a closed StreamSequence")
        requests = cast(List[BlockId], self._requests)
        next_use = cast(List[int], self._next_use)
        batch = list(blocks)
        for offset, block in enumerate(batch):
            position = len(requests) + offset
            if block is None:
                raise InvalidSequenceError(f"request {position} is None")
            try:
                hash(block)
            except TypeError:
                raise InvalidSequenceError(
                    f"request {position} is not a hashable block id: {block!r}"
                ) from None
        for block in batch:
            position = len(requests)
            plist = self._positions.setdefault(block, [])
            if plist:
                # The previous occurrence was the last one so far; its
                # next-use link now points here.
                next_use[plist[-1]] = position
            plist.append(position)
            requests.append(block)
            next_use.append(INFINITY)
        return len(batch)

    # -- identity ----------------------------------------------------------------

    @property
    def requests(self) -> Tuple[BlockId, ...]:
        """Snapshot tuple of the requests fed so far."""
        return tuple(self._requests)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RequestSequence):
            return tuple(self._requests) == tuple(other._requests)
        if isinstance(other, (tuple, list)):
            return tuple(self._requests) == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        # Never cached: the prefix (and therefore the hash) changes on extend.
        return hash(tuple(self._requests))

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        status = "closed" if self._closed else "open"
        return f"StreamSequence(n={len(self._requests)}, {status})"
