"""Span recording at the public layer boundaries of rsgame, from outside it.

The traced pass replaces each boundary function with a wrapper in every
rsgame module that binds it (``from .x import f`` makes a second binding),
so calls between modules are recorded too. Spans are kept in memory as
``[name, start, end, parent, child_s, info]`` and written out when the
pass ends; self time is the span's duration minus the time its child
spans cover. A boundary that no longer exists is reported as absent.
"""

from __future__ import annotations

import contextlib
import json
import math
import time


class Tracer:
    def __init__(self, pass_id: int):
        self.pass_id = pass_id
        self.spans = []
        self.absent = []
        self.paused = False
        self._stack = []

    def wrap(self, modules, module, name: str, observe=None):
        """Record a span around every call of ``module.name``.

        ``observe(args, kwargs, result)`` may return a value kept with the
        span, for counts that only the call's inputs or result know; it is
        None when observe fails.
        """
        label = f"{module.__name__.rsplit('.', 1)[-1]}.{name}"
        fn = getattr(module, name, None)
        if not callable(fn):
            self.absent.append(label)
            return

        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            parent = self._stack[-1] if self._stack else -1
            rec = [label, 0.0, 0.0, parent, 0.0, None]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                self._stack.pop()
                if parent >= 0:
                    self.spans[parent][4] += rec[2] - rec[1]
            if observe is not None:
                try:
                    rec[5] = observe(args, kwargs, result)
                except Exception:  # a changed signature must not break the call
                    rec[5] = None
            return result

        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    setattr(mod, attr, wrapper)

    @contextlib.contextmanager
    def pause(self):
        """Calls made inside this block (the benchmark's own checks) are
        not recorded."""
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    def named(self, label: str):
        return [s for s in self.spans if s[0] == label]

    def parent_name(self, span) -> str | None:
        return self.spans[span[3]][0] if span[3] >= 0 else None

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"pass": self.pass_id,
                       "fields": ["name", "start", "end", "parent", "child_s", "info"],
                       "absent": self.absent,
                       "spans": self.spans}, fh)


def duration(span) -> float:
    return span[2] - span[1]


def self_time(span) -> float:
    return span[2] - span[1] - span[4]


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q / 100.0 * len(ordered))) - 1]
