"""Span recorder that wraps the package's public functions from outside.

The benchmark must not change the program to measure it, so the traced run
replaces selected functions with timing wrappers in every `twoway_cvqkd`
module namespace that holds them (a function imported with `from .x import
f` lives under several names). Each call records one span: id, name,
start, end, parent span, thread id and the exception type that ended it,
if any. Spans stay in memory; `layer_totals` turns the span tree into
per-function call counts, inclusive (busy) and exclusive (self) times.

Threshold sweeps solve grid points on pool threads. A span opened on a
thread with no open span of its own takes as parent the innermost open
span of the thread that installed the recorder, so the points of a sweep
are children of its `sweep_curve` span.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import defaultdict
from itertools import count

PACKAGE = "twoway_cvqkd"


class Recorder:
    def __init__(self):
        self.spans = []            # (id, name, start, end, parent, thread, error)
        self.counts = defaultdict(int)
        self.active = True         # False: wrappers call straight through
        self._ids = count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._root_stack = self._stack()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counts[name] += n

    def span_wrapper(self, name: str, fn, on_call=None):
        """Wrap `fn` so each call records a span; `on_call(args, kwargs,
        result)` may add counters after a call that returned."""
        spans, ids, stack_of, root = self.spans, self._ids, self._stack, self._root_stack
        clock, ident = time.perf_counter, threading.get_ident

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stack = stack_of()
            if stack:
                parent = stack[-1]
            else:
                parent = root[-1] if root else 0
            sid = next(ids)
            stack.append(sid)
            error = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, name, start, end, parent, ident(), error))
            if on_call is not None:
                on_call(args, kwargs, result)
            return result

        return traced

    def count_wrapper(self, name: str, fn):
        """Wrap `fn` so each call only bumps a counter (for microsecond calls
        whose timing would cost more than the call)."""
        key = name + ".calls"

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self.active:
                self.add(key)
            return fn(*args, **kwargs)

        return counted


def patch(module: str, func: str, wrapper) -> int:
    """Replace `<module>.<func>` by `wrapper(original)` in every loaded
    package namespace that holds the original; returns the names patched."""
    original = getattr(importlib.import_module(f"{PACKAGE}.{module}"), func)
    wrapped = wrapper(original)
    patched = 0
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapped)
                patched += 1
    return patched


def _covered(start: float, end: float, intervals: list) -> float:
    """Length of [start, end] covered by the union of `intervals`."""
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, start), min(hi, end)
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def layer_totals(spans: list) -> dict:
    """Per span name: calls, busy_s, self_s, child_busy_s, errors by type,
    and child calls by (child name)."""
    children = defaultdict(list)
    for _sid, name, start, end, parent, _thread, _error in spans:
        if parent:
            children[parent].append((start, end, name))
    totals = {}
    for sid, name, start, end, _parent, _thread, error in spans:
        t = totals.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0,
                                     "child_busy_s": 0.0, "errors": defaultdict(int),
                                     "child_calls": defaultdict(int)})
        kids = children.get(sid, [])
        t["calls"] += 1
        t["busy_s"] += end - start
        t["self_s"] += (end - start) - _covered(start, end, [(lo, hi) for lo, hi, _ in kids])
        for lo, hi, kid_name in kids:
            t["child_busy_s"] += hi - lo
            t["child_calls"][kid_name] += 1
        if error:
            t["errors"][error] += 1
    return totals
