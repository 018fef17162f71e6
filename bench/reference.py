"""A fixed piece of pure-Python work that tells how fast the host runs now.

The benchmark shares a host whose speed changes in steps: the same work
runs up to 1.7x slower for stretches of seconds to minutes, and a run
cannot outlast that.  So each pass times this reference work between its
formulas (see `Sampler`), and scales the time of every formula by
REFERENCE_S over the mean of the reference times measured nearest to it.
The times the benchmark reports are therefore what the work would have
taken on a host on which one reference slice takes REFERENCE_S.

The work resembles rmcorr's own (frozen dataclass trees built recursively,
rewritten with a memo, exceptions for rules that do not apply), so that
host contention slows it about as much.  It imports nothing of rmcorr, so
no change to rmcorr changes its time, and it runs with the garbage
collector off and frees everything it allocates, so it leaves the
collector's counts as it found them."""

from __future__ import annotations

import bisect
import gc
import statistics
from dataclasses import dataclass
from time import perf_counter

# Seconds one slice took on the host the benchmark was written on, in its
# slower phase (Xeon, 2 vCPUs, Python 3.11; 1.8 ms in the faster phase).
# It only sets the scale of the reported times; it is the same constant on
# every commit.
REFERENCE_S = 0.003
# Slices are taken so that about this share of a pass is reference work.
SHARE = 0.1
# A time is scaled by the mean of this many slices, the nearest to it.
WINDOW = 8


@dataclass(frozen=True)
class _Node:
    op: str
    kids: tuple


class _NotApplicable(Exception):
    pass


def _build(state: int, depth: int) -> tuple[_Node, int]:
    state = (state * 1103515245 + 12345) & 0x7FFFFFFF
    if depth == 0 or state % 4 == 0:
        return _Node(f"p{state % 4}", ()), state
    if state % 4 == 1:
        kid, state = _build(state, depth - 1)
        return _Node("neg", (kid,)), state
    left, state = _build(state, depth - 1)
    right, state = _build(state, depth - 1)
    return _Node(("and", "or", "imp")[state % 3], (left, right)), state


def _rule(node: _Node) -> _Node:
    if node.op != "neg" or node.kids[0].op != "neg":
        raise _NotApplicable(node.op)
    return node.kids[0].kids[0]


def _rewrite(node: _Node, memo: dict) -> _Node:
    hit = memo.get(node)
    if hit is not None:
        return hit
    new = _Node(node.op, tuple(_rewrite(k, memo) for k in node.kids))
    try:
        new = _rule(new)
    except _NotApplicable:
        pass
    memo[node] = new
    return new


def _size(node: _Node) -> int:
    return 1 + sum(_size(k) for k in node.kids)


def reference_slice() -> int:
    """The fixed work: build, rewrite and measure twelve small trees."""
    total = 0
    for seed in range(12):
        tree, _ = _build(seed + 1, 8)
        total += _size(_rewrite(tree, {}))
    return total


class Sampler:
    """Takes reference slices between formulas, in proportion to the time
    since the last ones, so that the slices sample the whole pass, and
    scales a time by the host speed measured around it."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.times: list[float] = []
        self.owed = 0.0
        self.take(WINDOW)

    def take(self, n: int) -> float:
        """Take n slices; return the seconds they took."""
        enabled = gc.isenabled()
        gc.disable()
        t_in = perf_counter()
        try:
            for _ in range(n):
                t0 = perf_counter()
                reference_slice()
                self.starts.append(t0)
                self.times.append(perf_counter() - t0)
        finally:
            if enabled:
                gc.enable()
        return perf_counter() - t_in

    def after(self, seconds: float) -> float:
        """Call after a formula that took `seconds`; return the seconds the
        slices taken now took."""
        self.owed += seconds * SHARE / REFERENCE_S
        n = int(self.owed)
        self.owed -= n
        return self.take(n) if n else 0.0

    def scale(self, t: float) -> float:
        """REFERENCE_S over the mean of the WINDOW slices nearest to the
        moment t (a perf_counter reading)."""
        j = bisect.bisect(self.starts, t)
        lo = max(0, min(j - WINDOW // 2, len(self.times) - WINDOW))
        return REFERENCE_S / statistics.fmean(self.times[lo:lo + WINDOW])
