"""In-memory spans and counters recorded around calls into pathrisk.

The benchmark traces the program from outside: for one traced repetition
it rebinds public functions, in every module that looks them up, to
wrappers that record a span (name, start, end, parent) or bump a counter.
`restore` puts the original functions back. Spans stay in memory until the
repetition ends; `self_times` derives each layer's self time from them.
"""

import functools
import time
from collections import defaultdict


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []          # {"id", "name", "parent", "start", "end"}
        self.counters = defaultdict(float)
        self._stack = []
        self._patches = []

    def timed(self, fn, name, after=None):
        """Wrap fn so each call records a span. `name` is a string or a
        function of the call's arguments; `after(args, kwargs, result,
        exc)` runs once the call has returned or raised."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {"id": len(self.spans),
                    "name": name(*args, **kwargs) if callable(name) else name,
                    "parent": self._stack[-1] if self._stack else None,
                    "start": self.clock(), "end": None}
            self.spans.append(span)
            self._stack.append(span["id"])
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                span["end"] = self.clock()
                self._stack.pop()
                if after is not None:
                    after(args, kwargs, result, exc)

        return wrapper

    def counted(self, fn, counter):
        """Wrap fn so each call adds 1 to `counter`; no span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counters[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    def patch(self, wrapper, *targets):
        """Bind `wrapper` as (module, attribute) on every target."""
        for module, attr in targets:
            self._patches.append((module, attr, getattr(module, attr)))
            setattr(module, attr, wrapper)

    def restore(self):
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def totals(self):
        """Inclusive seconds per span name."""
        out = defaultdict(float)
        for span in self.spans:
            out[span["name"]] += span["end"] - span["start"]
        return out


def _covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the intervals."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals
                     if min(b, hi) > max(a, lo))
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans):
    """Self seconds per span name: each span's duration minus the part of
    its interval that its child spans cover."""
    children = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append((span["start"], span["end"]))
    out = defaultdict(float)
    for span in spans:
        out[span["name"]] += (span["end"] - span["start"]) - _covered(
            children[span["id"]], span["start"], span["end"])
    return out
