"""Spans recorded around calls into each layer, from the benchmark side.

The traced run wraps public methods of the layers at class level (the
program itself is not edited).  Each wrapped call is one span: name,
start, end and parent.  A span opened with no parent starts a new
request id, which every span nested under it shares.  Spans are
aggregated by path in memory (so self time can be computed exactly) and
also fed to the program's own :class:`~repro.obs.TraceRecorder`, which
writes the Chrome trace at the end of the run.

A layer's *self time* is its spans' time minus the part covered by
their child spans; with strictly nested spans on one thread that is the
path total minus the totals of its direct child paths.
"""

from __future__ import annotations

import functools
import time
from typing import Callable, Dict, List, Optional, Tuple

#: Chrome events kept (the newest win); the aggregates are never dropped.
MAX_EVENTS = 60_000


class SpanTracer:
    def __init__(self, recorder=None) -> None:
        self.recorder = recorder
        self.totals: Dict[str, float] = {}
        self.counts: Dict[str, int] = {}
        self._stack: List[Tuple[str, int]] = []  # (path, request id)
        self._next_id = 0
        self._undo: List[Tuple[object, str, object]] = []
        #: Outcome counts taken by ``observe`` hooks at span boundaries.
        self.counters: Dict[str, float] = {}

    # ------------------------------------------------------------------
    # Wrapping

    def wrap(
        self,
        owner,
        attr: str,
        name: str,
        observe: Optional[Callable[["SpanTracer", tuple, object], None]] = None,
    ) -> None:
        """Replace method ``attr`` of class ``owner`` (so every instance
        is traced) with a span-recording wrapper.

        ``observe(tracer, args, result)`` may count outcomes at the same
        boundary as the span.  :meth:`unwrap_all` restores the original.
        """
        original = owner.__dict__[attr]
        tracer = self
        clock = time.perf_counter

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            if stack:
                parent, rid = stack[-1]
                path = parent + "/" + name
            else:
                parent = None
                tracer._next_id += 1
                rid = tracer._next_id
                path = name
            stack.append((path, rid))
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                tracer.totals[path] = tracer.totals.get(path, 0.0) + elapsed
                tracer.counts[path] = tracer.counts.get(path, 0) + 1
                if tracer.recorder is not None:
                    tracer.recorder.complete(
                        name,
                        start,
                        elapsed,
                        cat=name.rsplit(".", 1)[0],
                        args={"id": rid, "parent": parent},
                    )
            if observe is not None:
                observe(tracer, args, result)
            return result

        self._undo.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def unwrap_all(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def count(self, name: str, n: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    # ------------------------------------------------------------------
    # Aggregates

    def total(self, name: str) -> float:
        """Inclusive seconds over every path ending in span ``name``."""
        return sum(
            t for path, t in self.totals.items() if _leaf(path) == name
        )

    def calls(self, name: str) -> int:
        return sum(
            n for path, n in self.counts.items() if _leaf(path) == name
        )

    def mean_us(self, name: str) -> float:
        calls = self.calls(name)
        return self.total(name) / calls * 1e6 if calls else 0.0

    def self_times(self) -> Dict[str, float]:
        """Self seconds per layer (span name minus its last dotted part)."""
        child_cover: Dict[str, float] = {}
        for path, total in self.totals.items():
            parent = path.rpartition("/")[0]
            if parent:
                child_cover[parent] = child_cover.get(parent, 0.0) + total
        layers: Dict[str, float] = {}
        for path, total in self.totals.items():
            layer = _leaf(path).rsplit(".", 1)[0]
            own = total - child_cover.get(path, 0.0)
            layers[layer] = layers.get(layer, 0.0) + own
        return layers


def _leaf(path: str) -> str:
    return path.rpartition("/")[2]


def new_recorder():
    from repro.obs import TraceRecorder

    return TraceRecorder(max_events=MAX_EVENTS, process_name="perfbench")
