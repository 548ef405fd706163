"""In-memory tracing of the library's layers, installed from outside.

The tracer replaces library functions and methods with wrappers for
the duration of a `with tracer.installed(...)` block and restores them
afterwards, so untraced runs execute the library unchanged.

Three kinds of wrapper exist, chosen per function:

* span: records (id, parent, name, start, end) in memory and adds to
  the function's calls, total time and self time, where self time is
  the span's duration minus the time of the spans and timers it
  directly encloses;
* timer: the same accounting without a recorded span, for functions
  called too often to keep one record per call;
* counter: counts calls, true results and cache hits only, for
  per-comparison functions called millions of times per run.  Their
  time stays in the self time of the enclosing span.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from array import array
from dataclasses import dataclass
from typing import Callable, Optional

SPAN, TIMER, COUNTER = "span", "timer", "counter"

SPAN_COLUMNS = ("id", "parent", "name", "start_ns", "end_ns")
PACKAGE = "resilire"


class Stat:
    """Accumulated figures for one traced name."""

    __slots__ = ("calls", "total_ns", "self_ns", "true", "hits", "items_in",
                 "items_out")

    def __init__(self):
        self.calls = 0
        self.hits = 0
        self.total_ns = 0
        self.self_ns = 0
        self.true = 0
        self.items_in = 0
        self.items_out = 0

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}


@dataclass(frozen=True)
class Hook:
    """Where and how to wrap one library function.

    target is "module:function" or "module:Class.method".  `sized_in`
    passes the first non-self argument on as a list and adds its length
    to `items_in`; `materialize` drains a returned iterator inside the
    measured interval; `out` maps the result to a number added to
    `items_out`.  For a counter, `hit_unless` names another traced
    function: a call during which that function was never called counts
    as a hit (a cache answered it).
    """

    target: str
    name: str
    kind: str = SPAN
    sized_in: bool = False
    materialize: bool = False
    out: Optional[Callable] = None
    hit_unless: Optional[str] = None


class Tracer:
    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self.clock = clock
        self.stats: dict = {}
        self.names: list = []
        self.spans = array("q")
        self._stack: list = []  # frames: [span id, start, child time]
        self._next_id = 0
        self._restore: list = []

    def stat(self, name: str) -> Stat:
        if name not in self.stats:
            self.stats[name] = Stat()
        return self.stats[name]

    # -- wrappers --------------------------------------------------------

    def wrap(self, fn: Callable, hook: Hook, is_method: bool = False) -> Callable:
        stat = self.stat(hook.name)
        if hook.kind == COUNTER:
            probe = self.stat(hook.hit_unless) if hook.hit_unless else Stat()

            def counted(*args):
                before = probe.calls
                result = fn(*args)
                stat.calls += 1
                if result:
                    stat.true += 1
                if probe.calls == before:
                    stat.hits += 1
                return result
            return counted
        if hook.kind not in (SPAN, TIMER):
            raise ValueError("unknown hook kind %r" % hook.kind)
        record = hook.kind == SPAN
        if record and hook.name not in self.names:
            self.names.append(hook.name)
        name_id = self.names.index(hook.name) if record else -1
        clock, stack, spans = self.clock, self._stack, self.spans
        skip = 1 if is_method else 0

        def measured(*args, **kwargs):
            if hook.sized_in:
                args = list(args)
                args[skip] = items = list(args[skip])
                stat.items_in += len(items)
            span_id = self._next_id
            self._next_id += 1
            frame = [span_id, clock(), 0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
                if hook.materialize:
                    result = list(result)
            finally:
                stack.pop()
                end = clock()
                duration = end - frame[1]
                stat.calls += 1
                stat.total_ns += duration
                stat.self_ns += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
                if record:
                    parent = stack[-1][0] if stack else -1
                    spans.extend((span_id, parent, name_id, frame[1], end))
            if result:
                stat.true += 1
            if hook.out is not None:
                stat.items_out += hook.out(result)
            return result
        return measured

    # -- installation ----------------------------------------------------

    @contextlib.contextmanager
    def installed(self, hooks):
        """Wrap every hooked function in every loaded module of the
        library that holds it, and restore the originals on exit."""
        try:
            for hook in hooks:
                self._install(hook)
            yield self
        finally:
            for owner, attr, original in reversed(self._restore):
                setattr(owner, attr, original)
            self._restore.clear()

    def _install(self, hook: Hook) -> None:
        module_name, _, path = hook.target.partition(":")
        module = sys.modules[module_name]
        if "." in path:
            cls_name, method = path.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[method]
            self._restore.append((cls, method, original))
            setattr(cls, method, self.wrap(original, hook, is_method=True))
            return
        original = getattr(module, path)
        wrapper = self.wrap(original, hook)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    # -- results ---------------------------------------------------------

    def self_s(self, name: str) -> float:
        return self.stats[name].self_ns / 1e9 if name in self.stats else 0.0

    def write(self, stem: str, extra: dict) -> None:
        """Write the spans as raw int64 rows (`SPAN_COLUMNS`) to
        `<stem>.spans` and a JSON description to `<stem>.json`."""
        with open(stem + ".spans", "wb") as fh:
            self.spans.tofile(fh)
        header = dict(extra, columns=list(SPAN_COLUMNS), names=self.names,
                      spans=len(self.spans) // len(SPAN_COLUMNS),
                      stats={k: v.as_dict() for k, v in sorted(self.stats.items())})
        with open(stem + ".json", "w", encoding="utf-8") as fh:
            json.dump(header, fh, indent=1, sort_keys=True)
