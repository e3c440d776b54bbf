"""Span tracing of deathcast's public functions, installed from outside.

The tracer replaces a function at every place it is bound among the loaded
`deathcast` modules (for example `forward` in `model`, and the copies that
`train` and `evaluation` import by name), so calls through any of those
names record a span. A span holds its name, layer, parent span, thread,
start and end on `time.perf_counter`, and calling-thread CPU time from
`time.thread_time`. Spans stay in memory until the benchmark writes them.

`ordered_map` is special-cased: each item it hands to a worker thread
gets an `ordered_map.item` span whose parent is the `ordered_map` call, so
work done on worker threads still hangs off the stage that started it.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import namedtuple

Span = namedtuple("Span", "sid parent name layer thread t0 t1 cpu counters")

ITEM = "ordered_map.item"


def layer_of(fn):
    """Package module a function belongs to: deathcast.model -> model."""
    return getattr(fn, "__module__", "").rpartition(".")[2] or "?"


class Tracer:
    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, layer, fn, args=(), kwargs=None, count=None, parent=None):
        """Run fn(*args, **kwargs) inside a span; returns fn's result.

        `count` is a dict of counters, or a callable (args, result) -> dict
        evaluated after a successful call. `parent` overrides the calling
        thread's current span (used for work handed to worker threads).
        """
        stack = self._stack()
        sid = next(self._ids)
        if parent is None and stack:
            parent = stack[-1]
        stack.append(sid)
        c0 = time.thread_time()
        t0 = time.perf_counter()
        counters = None
        try:
            result = fn(*args, **(kwargs or {}))
            if count is not None:
                counters = count(args, result) if callable(count) else count
            return result
        finally:
            t1 = time.perf_counter()
            cpu = time.thread_time() - c0
            stack.pop()
            self.spans.append(Span(sid, parent, name, layer, threading.get_ident(),
                                   t0, t1, cpu, counters))

    def span(self, name, layer, fn, *args, **kwargs):
        """Benchmark-side span (a stage, a check) around fn(*args, **kwargs)."""
        return self.call(name, layer, fn, args, kwargs)

    # -- installation -------------------------------------------------------

    def _wrapper(self, original, name, count):
        layer = layer_of(original)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            return self.call(name, layer, original, args, kwargs, count)

        return traced

    def _ordered_map_wrapper(self, original):
        @functools.wraps(original)
        def traced(fn, items, threads=1):
            items = list(items)
            workers = threads if threads > 1 and len(items) > 1 else 1

            def body():
                parent = self._stack()[-1]
                item_layer = layer_of(fn)

                def item(it):
                    return self.call(ITEM, item_layer, fn, (it,), parent=parent)

                return original(item, items, threads)

            return self.call("ordered_map", layer_of(original), body,
                             count={"workers": workers, "items": len(items)})

        return traced

    def install(self, targets):
        """Wrap each (module, attribute, count) target everywhere it is bound."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "deathcast" or n.startswith("deathcast."))]
        for module, attr, count in targets:
            original = getattr(module, attr)
            if attr == "ordered_map":
                wrapper = self._ordered_map_wrapper(original)
            else:
                wrapper = self._wrapper(original, attr, count)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patches.append((mod, key, original))

    def uninstall(self):
        while self._patches:
            mod, key, original = self._patches.pop()
            setattr(mod, key, original)


# ---------------------------------------------------------------------------
# Span arithmetic


def union(intervals):
    """Sorted, disjoint cover of (start, end) intervals."""
    out = []
    for a, b in sorted(intervals):
        if out and a <= out[-1][1]:
            if b > out[-1][1]:
                out[-1][1] = b
        else:
            out.append([a, b])
    return out


def covered(intervals):
    return sum(b - a for a, b in union(intervals))


def subtract(interval, cover):
    """Parts of one interval not inside a sorted disjoint cover."""
    a, b = interval
    out = []
    for c, d in cover:
        if d <= a or c >= b:
            continue
        if c > a:
            out.append((a, c))
        a = max(a, d)
    if a < b:
        out.append((a, b))
    return out


def self_intervals(spans):
    """sid -> the parts of each span's interval its child spans do not cover."""
    children = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.t0, s.t1))
    return {s.sid: subtract((s.t0, s.t1), union(children.get(s.sid, ())))
            for s in spans}


def clip(intervals, window):
    lo, hi = window
    return [(max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi]
