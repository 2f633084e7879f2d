"""Spans recorded from outside the program, and the shims that record them.

A :class:`Tracer` keeps spans in memory: name, start, end, parent and, on the
serving path, the request id.  Shims wrap public calls of the program (module
``forward`` methods, ``score_pairs``, ``exact_top_k``, ``plan_for`` …) by
replacing an attribute and putting the original back on exit; the program's
own source stays untouched.  With tracing off no shim is installed at all.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    request: Optional[int] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(intervals) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: List[Span]) -> List[float]:
    """Each span's duration minus the part of it its children cover."""
    children: Dict[int, list] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    result = []
    for index, span in enumerate(spans):
        inside = [
            (max(start, span.start), min(end, span.end))
            for start, end in children.get(index, ())
            if end > span.start and start < span.end
        ]
        result.append(span.duration - covered(inside))
    return result


class Tracer:
    """In-memory span recorder plus per-name counters."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = {}
        self.request: Optional[int] = None
        self._stack: List[int] = []

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def open(self, name: str) -> int:
        """Start a span under the innermost open one; returns its index."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self.clock(), 0.0, parent, self.request))
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        if self._stack.pop() != index:
            raise RuntimeError(f"span {self.spans[index].name!r} closed out of order")
        self.spans[index].end = self.clock()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def self_by_name(self, since: int = 0) -> Dict[str, float]:
        """Summed self time per span name over ``spans[since:]``."""
        spans = self.spans[since:]
        # Re-base parents so a window of spans is self-contained.
        rebased = [
            Span(s.name, s.start, s.end, s.parent - since if s.parent >= since else -1)
            for s in spans
        ]
        totals: Dict[str, float] = {}
        for span, own in zip(rebased, self_times(rebased)):
            totals[span.name] = totals.get(span.name, 0.0) + own
        return totals

    def total_by_name(self, name: str, since: int = 0) -> float:
        return sum(s.duration for s in self.spans[since:] if s.name == name)

    def dump(self, path: Path) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "name": span.name,
                            "start": span.start,
                            "end": span.end,
                            "parent": span.parent,
                            "request": span.request,
                        }
                    )
                    + "\n"
                )


class Shims:
    """Attribute replacements that time calls into the program.

    Every ``wrap`` remembers what it replaced; :meth:`remove` restores the
    originals in reverse order, so the program is left exactly as found.
    """

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._undo: List[Callable[[], None]] = []

    @property
    def installed(self) -> int:
        return len(self._undo)

    def wrap(self, owner, attribute: str, name: str, after=None) -> None:
        """Replace ``owner.attribute`` with a timed call recording span ``name``.

        ``after(result, args)`` may record counters from the call's result.
        For instances the wrapper is set on the instance (shadowing the
        class method, the forward-hook idiom); for classes and modules the
        attribute itself is swapped.
        """
        tracer = self.tracer
        original = getattr(owner, attribute)

        def timed(*args, **kwargs):
            with tracer.span(name):
                result = original(*args, **kwargs)
            if after is not None:
                after(result, args)
            return result

        on_instance = not isinstance(owner, type) and not hasattr(owner, "__file__")
        if on_instance:
            object.__setattr__(owner, attribute, timed)
            self._undo.append(lambda: object.__delattr__(owner, attribute))
        else:
            raw = owner.__dict__[attribute] if isinstance(owner, type) else original
            # A classmethod is fetched already bound, so it is replaced by a
            # staticmethod that forwards to the bound original.
            wrapped = staticmethod(timed) if isinstance(raw, classmethod) else timed
            setattr(owner, attribute, wrapped)
            self._undo.append(lambda: setattr(owner, attribute, raw))

    def replace(self, owner, attribute: str, value) -> None:
        """Swap ``owner.attribute`` for ``value`` until :meth:`remove`."""
        original = getattr(owner, attribute)
        setattr(owner, attribute, value)
        self._undo.append(lambda: setattr(owner, attribute, original))

    def remove(self) -> None:
        while self._undo:
            self._undo.pop()()
