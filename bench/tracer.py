"""Spans and counters around dyhat's public functions, installed from outside.

Wrappers replace a function in every loaded ``dyhat`` module that holds it
(``dyhat.hats.normalize`` and ``dyhat.classify.normalize`` alike), so calls
made inside the package are seen too.  Spans stay in memory until the run
ends.  Counting the ~10^6 ``DyadicRational`` operations is a separate pass,
so that the counter cost does not land inside span times.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from contextlib import contextmanager

#: Span name -> (module, function) timed in the traced pass.
SPAN_TARGETS = {
    "hats.normalize": ("dyhat.hats", "normalize"),
    "hats.encoding_triples": ("dyhat.hats", "all_encoding_triples"),
    "hats.canonical_form": ("dyhat.hats", "canonical_form"),
    "oracle.solve": ("dyhat.oracle", "solve_correspondence"),
    "oracle.isomorphic": ("dyhat.oracle", "oracle_isomorphic"),
    "classify.aut": ("dyhat.classify", "automorphism_group"),
    "classify.isomorphic": ("dyhat.classify", "isomorphic"),
    "classify.census": ("dyhat.classify", "census"),
}

#: Counter name -> (module, function) counted in the counting pass.
COUNT_FUNCTIONS = {
    "classify.iso_case.calls": ("dyhat.classify", "iso_case"),
}

#: Counter name -> (module, class, methods) counted in the counting pass.
COUNT_METHODS = {
    "dyadic.constructed": ("dyhat.dyadic", "DyadicRational", ("__init__",)),
    "dyadic.arith_ops": ("dyhat.dyadic", "DyadicRational", (
        "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
        "__truediv__", "__neg__", "__abs__",
    )),
    "geometry.affine_compose.calls": ("dyhat.geometry", "AffineMap", ("__matmul__",)),
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "request", "hit")

    def __init__(self, name, start, end, parent, request, hit):
        self.name, self.start, self.end = name, start, end
        self.parent, self.request, self.hit = parent, request, hit

    @property
    def duration(self) -> int:
        return self.end - self.start


class Tracer:
    """Records one span per wrapped call: name, times, parent, request id.

    ``hit`` records whether the call returned something other than None,
    which is how a correspondence solve reports success.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.request = 0
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                spans[index] = Span(name, start, end, parent, self.request,
                                    result is not None)

        return timed

    def installed(self):
        return _patched_functions(SPAN_TARGETS, self.wrap)



def span_cost_ns(calls: int = 20000, repeats: int = 5) -> float:
    """What one span adds to a call: a wrapped no-op minus a bare one.

    The fastest of `repeats` loops, so that host noise does not show.
    """
    def noop():
        return None

    tr = Tracer()
    wrapped, clock, best = tr.wrap("noop", noop), time.perf_counter_ns, float("inf")
    for _ in range(repeats):
        tr.spans.clear()
        start = clock()
        for _ in range(calls):
            wrapped()
        middle = clock()
        for _ in range(calls):
            noop()
        end = clock()
        best = min(best, ((middle - start) - (end - middle)) / calls)
    return best


def to_json(spans: list[Span]) -> list:
    return [[s.name, s.start, s.end, s.parent, s.request, s.hit] for s in spans]


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the time its direct children cover."""
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.duration
    return own


@contextmanager
def _patched_functions(targets: dict, make_wrapper):
    """Swap each target function for a wrapper in every dyhat module."""
    undo = []
    for name, (module, attr) in targets.items():
        original = getattr(sys.modules[module], attr)
        wrapper = make_wrapper(name, original)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] != "dyhat":
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    undo.append((mod, key, original))
    try:
        yield
    finally:
        for mod, key, original in reversed(undo):
            setattr(mod, key, original)


@contextmanager
def counting(counts: Counter):
    """Count calls of COUNT_FUNCTIONS and COUNT_METHODS into counts."""

    def counter(name, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    undo = []
    for name, (module, cls_name, methods) in COUNT_METHODS.items():
        cls = getattr(sys.modules[module], cls_name)
        for method in methods:
            original = cls.__dict__[method]
            setattr(cls, method, counter(name, original))
            undo.append((cls, method, original))
    try:
        with _patched_functions(COUNT_FUNCTIONS, counter):
            yield
    finally:
        for cls, method, original in reversed(undo):
            setattr(cls, method, original)
