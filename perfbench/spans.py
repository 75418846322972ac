"""Outside-in tracing: timing wrappers installed on module attributes.

A wrapped function records a span (name, start, end, parent) per call; a
hot function called ~1e5 times per run instead adds to a per-name call
count and total, and its time is charged to the innermost open span so
that span's self time excludes it.  Spans stay in memory until the run
writes them out.
"""

from __future__ import annotations

import functools
import inspect
import json
import time


class Tracer:
    def __init__(self, run_id: str, clock=time.perf_counter):
        self.run_id = run_id
        self.clock = clock
        self.spans: list[dict] = []
        self.hot: dict[str, list] = {}  # name -> [calls, total_s, tagged calls]
        self.errors: list[Exception] = []  # distinct exceptions seen leaving spans
        self._stack: list[int] = []
        self._hot_depth = 0
        self._undo: list[tuple] = []

    def _install(self, owner, attr: str, wrapper) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _error_index(self, exc: Exception) -> int:
        for i, seen in enumerate(self.errors):
            if seen is exc:
                return i
        self.errors.append(exc)
        return len(self.errors) - 1

    def wrap(self, owner, attr: str, name: str | None = None, hook=None) -> None:
        """Record a span per call of owner.attr.

        hook(arguments, result) may return extra fields for the span; it
        runs after the span's end time is taken.
        """
        fn = getattr(owner, attr)
        name = name or f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        signature = inspect.signature(fn) if hook else None
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {"name": name, "parent": stack[-1] if stack else None, "hot_s": 0.0}
            stack.append(len(spans))
            spans.append(span)
            span["start"] = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span["error"] = type(exc).__name__
                span["error_id"] = self._error_index(exc)
                raise
            finally:
                span["end"] = clock()
                stack.pop()
            if hook is not None:
                span.update(hook(signature.bind(*args, **kwargs).arguments, result))
            return result

        self._install(owner, attr, wrapper)

    def wrap_hot(self, owner, attr: str, name: str, tag=None) -> None:
        """Count calls of owner.attr and total their time; tag(result) marks
        calls to count separately."""
        fn = getattr(owner, attr)
        stat = self.hot.setdefault(name, [0, 0.0, 0])
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._hot_depth += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self._hot_depth -= 1
                stat[0] += 1
                stat[1] += elapsed
                if stack and self._hot_depth == 0:  # nested hot calls are inside this one
                    spans[stack[-1]]["hot_s"] += elapsed
            if tag is not None and tag(result):
                stat[2] += 1
            return result

        self._install(owner, attr, wrapper)

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as fp:
            for i, span in enumerate(self.spans):
                fp.write(json.dumps({"run": self.run_id, "span": i, **span}) + "\n")
            for name, (calls, total, tagged) in self.hot.items():
                fp.write(json.dumps({"run": self.run_id, "hot": name, "calls": calls,
                                     "total_s": total, "tagged": tagged}) + "\n")


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time its child spans cover and the
    hot calls made directly under it."""
    children: list[list[tuple]] = [[] for _ in spans]
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append((span["start"], span["end"]))
    return [
        s["end"] - s["start"] - union_length(children[i], s["start"], s["end"])
        - s.get("hot_s", 0.0)
        for i, s in enumerate(spans)
    ]


def outermost(spans: list[dict], names) -> list[int]:
    """Indices of spans named in `names` with no ancestor named in `names`."""
    out = []
    for i, span in enumerate(spans):
        if span["name"] not in names:
            continue
        parent = span["parent"]
        while parent is not None and spans[parent]["name"] not in names:
            parent = spans[parent]["parent"]
        if parent is None:
            out.append(i)
    return out
