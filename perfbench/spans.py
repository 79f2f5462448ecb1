"""In-memory span recorder for the traced benchmark run.

Spans are recorded only from the benchmark's side: :meth:`Tracer.wrap`
replaces a module attribute or class method with a timing wrapper and
:meth:`Tracer.restore` puts the original back.  Nothing inside ``src/repro``
is edited.

Each span carries a name, start, end and the id of the span that was open on
the same thread when it started (its parent).  Calls that happen tens of
thousands of times per round (Belady MIN's victim choice) are wrapped in
*aggregate* mode: they add to a per-name count and total instead of
allocating a span, and their time is charged to the enclosing span's child
time so self times stay right.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple


@dataclass
class Span:
    """One timed call: ``[start, end]`` on the ``perf_counter`` clock."""

    span_id: int
    parent: Optional[int]
    name: str
    start: float
    end: float = 0.0
    #: Time spent in aggregate-mode calls made while this span was open.
    aggregate_child_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    """Span store plus the attribute patches that feed it."""

    clock: Callable[[], float] = time.perf_counter
    spans: List[Span] = field(default_factory=list)
    counts: Dict[str, float] = field(default_factory=lambda: defaultdict(float))
    aggregate_s: Dict[str, float] = field(default_factory=lambda: defaultdict(float))
    _patches: List[Tuple[Any, str, Any]] = field(default_factory=list)
    _local: threading.local = field(default_factory=threading.local)
    _lock: threading.Lock = field(default_factory=threading.Lock)

    # -- recording -----------------------------------------------------------------

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        """Start a span nested under the innermost open span of this thread."""
        stack = self._stack()
        with self._lock:
            span = Span(
                span_id=len(self.spans),
                parent=stack[-1].span_id if stack else None,
                name=name,
                start=self.clock(),
            )
            self.spans.append(span)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()

    def count(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counts[name] += amount

    def _aggregate(self, name: str, elapsed: float) -> None:
        stack = self._stack()
        if stack:
            stack[-1].aggregate_child_s += elapsed
        with self._lock:
            self.counts[name] += 1
            self.aggregate_s[name] += elapsed

    # -- patching ------------------------------------------------------------------

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        *,
        after: Optional[Callable[[Span, Any, tuple, dict], None]] = None,
        aggregate: bool = False,
    ) -> None:
        """Replace the function or method ``owner.attr`` by a wrapper recording
        a span named ``name``.

        ``after(span, result, args, kwargs)`` runs once the call returned, to
        record counts derived from its result (it may rename the span).
        Generator functions get a wrapper that times each ``next`` as its own
        span, because the caller blocks there, not in the call that creates
        the generator.
        """
        function = inspect.getattr_static(owner, attr)
        tracer = self

        if inspect.isgeneratorfunction(function):

            @functools.wraps(function)
            def wrapper(*args, **kwargs):
                iterator = function(*args, **kwargs)
                while True:
                    span = tracer.open(name)
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                    finally:
                        tracer.close(span)
                    yield item

        elif aggregate:

            @functools.wraps(function)
            def wrapper(*args, **kwargs):
                started = tracer.clock()
                try:
                    return function(*args, **kwargs)
                finally:
                    tracer._aggregate(name, tracer.clock() - started)

        else:

            @functools.wraps(function)
            def wrapper(*args, **kwargs):
                span = tracer.open(name)
                try:
                    result = function(*args, **kwargs)
                finally:
                    tracer.close(span)
                if after is not None:
                    after(span, result, args, kwargs)
                return result

        self.patch(owner, attr, wrapper)

    def patch(self, owner: Any, attr: str, replacement: Any) -> None:
        """Set ``owner.attr`` to ``replacement`` until :meth:`restore`."""
        self._patches.append((owner, attr, inspect.getattr_static(owner, attr)))
        setattr(owner, attr, replacement)

    def wrap_everywhere(self, module: Any, attr: str, name: str, **options: Any) -> None:
        """Wrap a module-level function in every ``repro`` module that bound it.

        ``from x import f`` copies the binding, so patching only the defining
        module would miss callers that imported the name.
        """
        original = getattr(module, attr)
        for mod_name, mod in sorted(sys.modules.items()):
            if mod is None or not mod_name.startswith("repro"):
                continue
            for bound_name, value in list(vars(mod).items()):
                if value is original:
                    self.wrap(mod, bound_name, name, **options)

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # -- analysis ------------------------------------------------------------------

    def totals(self) -> Dict[str, Tuple[int, float]]:
        """``name -> (calls, total seconds)`` over spans and aggregate calls."""
        out: Dict[str, Tuple[int, float]] = {}
        for span in self.spans:
            calls, total = out.get(span.name, (0, 0.0))
            out[span.name] = (calls + 1, total + span.duration)
        for name, total in self.aggregate_s.items():
            out[name] = (int(self.counts[name]), total)
        return out

    def self_times(self) -> Dict[str, float]:
        """``name -> self seconds``: durations minus what child spans cover."""
        return self_times(self.spans)

    def as_json(self) -> Dict[str, Any]:
        return {
            "spans": [
                [s.span_id, s.parent, s.name, s.start, s.end] for s in self.spans
            ],
            "counts": dict(self.counts),
            "aggregate_s": dict(self.aggregate_s),
        }


def _covered(intervals: List[Tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    covered = 0.0
    reach = float("-inf")
    for lo, hi in sorted(intervals):
        lo = max(lo, reach)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return covered


def self_times(spans: List[Span]) -> Dict[str, float]:
    """Per-name self time: each span's duration minus the part of its interval
    covered by its children (clipped to the parent) and minus the time of
    aggregate-mode calls made inside it."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    by_id = {span.span_id: span for span in spans}
    for span in spans:
        parent = by_id.get(span.parent) if span.parent is not None else None
        if parent is not None:
            lo, hi = max(span.start, parent.start), min(span.end, parent.end)
            if hi > lo:
                children[parent.span_id].append((lo, hi))
    out: Dict[str, float] = defaultdict(float)
    for span in spans:
        own = span.duration - _covered(children[span.span_id]) - span.aggregate_child_s
        out[span.name] += max(own, 0.0)
    return dict(out)

