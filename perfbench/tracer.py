"""In-memory tracer that wraps ouq's public functions from outside the package.

Every wrapped call adds to an aggregate per name: calls, total time, self
time (total minus the time of wrapped calls made inside it) and calls that
raised.  Names passed with ``span=True`` also keep one span record per call
(name, parent span, start, end), so the coarse structure of a run (restarts,
outer and inner DE runs, inner repairs) can be written out when the run
ends.  Hot leaf calls (the response, the measure codec) are aggregated only,
which keeps memory flat however long the run is.
"""

from __future__ import annotations

import itertools
import time


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s, errors]
        self.spans: list[tuple] = []  # (id, name, parent_id, start, end)
        self._frames = [[0.0]]  # child-time accumulator per open call; root first
        self._open_spans: list[int] = []
        self._span_ids = itertools.count()
        self._active: dict[str, int] = {}
        self._undo: list = []

    def active(self, name: str) -> bool:
        """True while a call recorded under `name` is open."""
        return self._active.get(name, 0) > 0

    def wrap(self, name, fn, span=False, after=None):
        """Return fn wrapped; `name` may be a callable picking the name per call.

        `after(result)` runs on each successful return, outside the timing.
        """
        clock = self.clock
        frames = self._frames
        stats = self.stats
        active = self._active
        open_spans = self._open_spans
        spans = self.spans
        span_ids = self._span_ids
        pick = name if callable(name) else (lambda: name)

        def wrapped(*args, **kwargs):
            key = pick()
            frame = [0.0]
            frames.append(frame)
            active[key] = active.get(key, 0) + 1
            if span:
                span_id = next(span_ids)
                parent = open_spans[-1] if open_spans else -1
                open_spans.append(span_id)
            ok = False
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                dt = clock() - t0
                frames.pop()
                frames[-1][0] += dt
                active[key] -= 1
                agg = stats.get(key)
                if agg is None:
                    agg = stats[key] = [0, 0.0, 0.0, 0]
                agg[0] += 1
                agg[1] += dt
                agg[2] += dt - frame[0]
                if not ok:
                    agg[3] += 1
                if span:
                    open_spans.pop()
                    spans.append((span_id, key, parent, t0, t0 + dt))
            if after is not None:
                after(result)
            return result

        return wrapped

    def patch(self, owner, attr: str, name, span=False, after=None):
        """Replace owner.attr by its wrapped form until restore()."""
        original = getattr(owner, attr)
        setattr(owner, attr, self.wrap(name, original, span=span, after=after))
        self.defer(lambda: setattr(owner, attr, original))

    def defer(self, undo):
        """Register a callable that restore() runs, last registered first."""
        self._undo.append(undo)

    def restore(self):
        while self._undo:
            self._undo.pop()()

    def _stat(self, name: str, field: int):
        agg = self.stats.get(name)
        return agg[field] if agg else 0

    def calls(self, name: str) -> int:
        return self._stat(name, 0)

    def total_s(self, name: str) -> float:
        return self._stat(name, 1)

    def self_s(self, name: str) -> float:
        return self._stat(name, 2)

    def errors(self, name: str) -> int:
        return self._stat(name, 3)
