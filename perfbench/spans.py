"""Span recorder, self-time arithmetic and the tail-percentile rule.

Spans are recorded from outside the package: ``install`` rebinds a public
function in every loaded ``overhear`` module that imported it, so calls the
package makes internally (``cli`` -> ``harness`` -> ``yoyo``) are timed too.
Spans stay in memory and are written once, when the run ends.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from dataclasses import dataclass

# A tail percentile needs this many samples beyond it.
TAIL_BEYOND = 10


@dataclass(frozen=True)
class Span:
    id: int
    parent: int  # -1 for a root span
    name: str    # "<module>.<function>"
    start_ns: int
    end_ns: int
    run_id: str
    tag: str = ""  # "quiet" / "evidence" for recognizer ticks

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class SpanRecorder:
    """In-memory spans of one benchmark process; single-threaded."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self.run_id = ""
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def open(self, name: str, tag: str = "") -> tuple:
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        return sid, parent, name, tag, time.perf_counter_ns()

    def close(self, token: tuple):
        end = time.perf_counter_ns()
        sid, parent, name, tag, start = token
        self._stack.pop()
        self.spans[sid] = Span(sid, parent, name, start, end, self.run_id, tag)

    def wrap(self, name: str, fn, tag_of=None):
        """``fn`` recording one span per call; ``tag_of(args)`` labels it."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = self.open(name, tag_of(args) if tag_of else "")
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(token)

        return traced

    def install(self, module, func: str, tag_of=None):
        """Trace ``module.func`` wherever an ``overhear`` module bound it."""
        original = getattr(module, func)
        traced = self.wrap(f"{module.__name__.rsplit('.', 1)[-1]}.{func}", original, tag_of)
        for mod in list(sys.modules.values()):
            if mod is None or not mod.__name__.startswith("overhear"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, traced)
                    self._restore.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    def finished(self) -> list[Span]:
        return [s for s in self.spans if s is not None]

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.finished():
                fh.write(json.dumps({"id": s.id, "parent": s.parent, "name": s.name,
                                     "start_ns": s.start_ns, "end_ns": s.end_ns,
                                     "run_id": s.run_id, "tag": s.tag}) + "\n")


def covered_ns(start: int, end: int, intervals) -> int:
    """Length of [start, end) covered by the union of ``intervals``."""
    total = 0
    reach = start
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, end)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans) -> dict[int, int]:
    """Span id -> duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        children.setdefault(s.parent, []).append((s.start_ns, s.end_ns))
    return {s.id: s.duration_ns - covered_ns(s.start_ns, s.end_ns, children.get(s.id, ()))
            for s in spans}


def tail_percentile(samples: int) -> float:
    """Highest percentile that leaves ``TAIL_BEYOND`` of ``samples`` beyond
    it; never below the median."""
    return max(50.0, 100.0 * (samples - TAIL_BEYOND) / max(samples, 1))


def best_per_step(replays) -> list:
    """Each step's least latency over replays of the same steps.

    ``replays`` are dicts of step -> latency; a step missing from one
    replay (it failed there) takes its best over the others.
    """
    best: dict = {}
    for replay in replays:
        for step, latency in replay.items():
            if step not in best or latency < best[step]:
                best[step] = latency
    return [best[step] for step in sorted(best)]


def percentile(samples, pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(pct / 100.0 * len(ordered) - 1e-9))
    return ordered[rank - 1]
