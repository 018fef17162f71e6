"""Run-time instrumentation of rmcorr's public module functions.

`Tracer.install` replaces every public function defined in the traced
modules with a timing wrapper, in the running interpreter only, so the
library source stays untouched and only a traced pass pays for the
wrappers.  Each wrapper pushes a frame on one call stack; when it
returns, its duration minus the time of the wrapped calls it made is the
self time of its layer (the module).  Layers are named after the modules.

Hot functions (every `calculus` rule, `frames.check_frame`) are kept as
aggregated counters plus time.  Pipeline phases and oracle calls also keep
one span per call, grouped per formula.  The `enumerate_frames` generator is
timed by the time spent in its `next()` calls.  The recursive
`frames.extension` is only counted, at its top level: its recursion is
rebound to the original so that the inner calls cost nothing extra.
"""

from __future__ import annotations

import inspect
import types
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("syntax", "pipeline", "calculus", "translate", "render", "frames")

# Functions that keep one span per call; every other wrapped function is
# aggregated only.
SPAN_FUNCTIONS = frozenset({
    "syntax.parse",
    "pipeline.correspondent", "pipeline.preprocess", "pipeline.approximate",
    "pipeline.eliminate", "pipeline.simplify",
    "translate.tr_quasi", "translate.fo_simplify",
    "render.render",
    "frames.correspondence_check", "frames.frame_valid", "frames.eval_fo",
})
COUNT_ONLY = "frames.extension"
GENERATOR = "frames.enumerate_frames"


class Tracer:
    def __init__(self, modules):
        self.modules = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
        self.stack: list[list[float]] = []
        self.active: Counter = Counter()
        self.calls: Counter = Counter()
        self.returned: Counter = Counter()
        self.inclusive: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.covered = 0.0  # time inside outermost wrapped calls
        self.next_span = 0
        # spans of the current formula: (id, parent id, key, start, end)
        self.spans: list[tuple] = []
        self.formula_spans: list[tuple[str, list[tuple]]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        for layer, mod in self.modules.items():
            for name, fn in list(vars(mod).items()):
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                key = f"{layer}.{name}"
                if key == COUNT_ONLY:
                    wrapped = self._count_only(mod, fn, key)
                elif key == GENERATOR:
                    wrapped = self._generator(fn, layer, key)
                else:
                    wrapped = self._timed(fn, layer, key, key in SPAN_FUNCTIONS)
                setattr(mod, name, wrapped)

    # -- wrappers ---------------------------------------------------------

    def call(self, layer: str, key: str, span: bool, fn, *args, **kwargs):
        stack = self.stack
        # [time of wrapped children, id of the nearest enclosing span]
        parent = stack[-1][1] if stack else None
        sid = parent
        if span:
            sid = self.next_span
            self.next_span += 1
        frame = [0.0, sid]
        stack.append(frame)
        self.active[key] += 1
        ok = False
        t0 = perf_counter()
        try:
            out = fn(*args, **kwargs)
            ok = True
            return out
        finally:
            t1 = perf_counter()
            stack.pop()
            self.active[key] -= 1
            d = t1 - t0
            self.self_time[layer] += d - frame[0]
            if stack:
                stack[-1][0] += d
            else:
                self.covered += d
            if not self.active[key]:
                self.inclusive[key] += d
            self.calls[key] += 1
            if ok:
                self.returned[key] += 1
            if span:
                self.spans.append((sid, parent, key, t0, t1))

    def _timed(self, fn, layer, key, span):
        call = self.call

        def wrapper(*args, **kwargs):
            return call(layer, key, span, fn, *args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _generator(self, fn, layer, key):
        call = self.call

        class TimedIterator:
            def __init__(self, gen):
                self.gen = gen

            def __iter__(self):
                return self

            def __next__(self):
                return call(layer, key, False, next, self.gen)

        def wrapper(*args, **kwargs):
            return TimedIterator(fn(*args, **kwargs))

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_only(self, mod, fn, key):
        inner_globals = dict(vars(mod))
        inner = types.FunctionType(fn.__code__, inner_globals, fn.__name__,
                                   fn.__defaults__, fn.__closure__)
        inner_globals[fn.__name__] = inner
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return inner(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- per-formula spans --------------------------------------------------

    def end_formula(self, label: str) -> None:
        self.formula_spans.append((label, self.spans))
        self.spans = []

    def slowest_formula(self) -> dict:
        """Span time per function for the formula whose top-level spans
        took longest."""
        best = None
        for label, spans in self.formula_spans:
            total = sum(e - s for _, parent, _, s, e in spans if parent is None)
            if best is None or total > best[0]:
                best = (total, label, spans)
        if best is None:
            return {}
        total, label, spans = best
        parts: defaultdict = defaultdict(float)
        for _, _, key, s, e in spans:
            parts[key] += e - s
        return {"formula": label, "total_s": total, "spans": len(spans),
                "span_s": dict(sorted(parts.items()))}
