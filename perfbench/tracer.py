"""Span tracing from outside the program.

The traced run patches the public entry points of each layer with a
wrapper that records one span per call: layer name, start, end, parent
span and, where the call carries one, a request id.  Spans stay in memory
and are written out when the run ends.  Nothing under ``src/`` knows it is
being traced; ``Tracer.restore`` puts every original attribute back.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter
from dataclasses import dataclass


@dataclass
class Span:
    """One wrapped call.  ``parent`` indexes the enclosing span (-1: none)."""

    layer: str
    start: float
    end: float
    parent: int
    request: int | None = None


class Tracer:
    """Records nested spans around patched attributes."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, layer: str, request_of=None,
             on_call=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``request_of(args, result)`` names the request a call serves;
        ``on_call(args, result)`` lets the caller count what the call did.
        """
        original = getattr(owner, attr)
        spans, open_ = self.spans, self._open

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = len(spans)
            span = Span(layer, 0.0, 0.0, open_[-1] if open_ else -1)
            spans.append(span)
            open_.append(index)
            span.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                open_.pop()
            if request_of is not None:
                span.request = request_of(args, result)
            if on_call is not None:
                on_call(args, result)
            return result

        self._patched.append((owner, attr, original))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- analysis ------------------------------------------------------------

    def self_seconds(self) -> dict[str, float]:
        """Per layer: span time minus the part its child spans cover.

        Calls run on one thread and nest strictly, so the children of a
        span never overlap and their durations simply add up.
        """
        out: Counter = Counter()
        for span in self.spans:
            out[span.layer] += span.end - span.start
            if span.parent >= 0:
                out[self.spans[span.parent].layer] -= span.end - span.start
        return dict(out)

    def outermost(self, layers: set[str]) -> list[Span]:
        """Spans in ``layers`` with no ancestor in ``layers``."""
        inside: list[bool] = []
        out = []
        for span in self.spans:
            parent_inside = span.parent >= 0 and inside[span.parent]
            inside.append(parent_inside or span.layer in layers)
            if span.layer in layers and not parent_inside:
                out.append(span)
        return out

    def reaching(self, layers: set[str], targets: set[str]) -> int:
        """How many outermost ``layers`` spans have a ``targets`` descendant."""
        top: list[int] = []     # outermost `layers` ancestor-or-self, or -1
        hits = set()
        for i, span in enumerate(self.spans):
            up = top[span.parent] if span.parent >= 0 else -1
            if up < 0 and span.layer in layers:
                up = i
            top.append(up)
            if span.layer in targets and up >= 0:
                hits.add(up)
        return len(hits)

    def write(self, path) -> None:
        """Dump every span as one JSON object per line."""
        with open(path, "w") as f:
            for span in self.spans:
                f.write(json.dumps({
                    "layer": span.layer, "start": span.start,
                    "end": span.end, "parent": span.parent,
                    "request": span.request}) + "\n")
