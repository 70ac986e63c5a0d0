"""In-memory span tracing around odkit's public functions, plus the
statistics the benchmark reports.

Spans are made by replacing module attributes that callers look up at
call time (``odkit.matching.build_rankings``, ``odkit.sparse_labels.
SparseLabelBatch.validate``, ...) with timing wrappers, and restoring them
afterwards. Nothing inside the library changes. A span records its name,
start, end, parent span, operation id and thread.

Threads started inside a wrapped call (the matcher's chunk workers, the
pipeline's stage threads) begin with no open span. Their spans take as
parent the most recently opened span still open among those marked
``fanout``, i.e. the calls known to start worker threads.
"""

from __future__ import annotations

import importlib
import itertools
import json
import threading
import time
from dataclasses import dataclass
from typing import NamedTuple


class Span(NamedTuple):
    sid: int
    name: str
    t0: float
    t1: float
    parent: int | None
    op: object
    thread: int

    @property
    def ms(self) -> float:
        return (self.t1 - self.t0) * 1000.0


@dataclass
class _Open:
    sid: int
    op: object


class Tracer:
    """Collects spans and counters; wraps and unwraps module attributes."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._fanout: list[_Open] = []
        self._restore: list[tuple[object, str, object]] = []

    # -------------------------------------------------------------- spans

    def _stack(self) -> list[_Open]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self) -> _Open | None:
        stack = self._stack()
        if stack:
            return stack[-1]
        with self._lock:
            return self._fanout[-1] if self._fanout else None

    def span(self, name: str, op=None, fanout: bool = False) -> "_SpanCtx":
        return _SpanCtx(self, name, op, fanout)

    def count(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0.0) + value

    # ----------------------------------------------------------- wrapping

    def wrap(self, target: str, name: str, fanout: bool = False, on_result=None) -> bool:
        """Replace ``module[.Class].attr`` with a spanning wrapper.

        ``on_result(result)`` sees each return value, for counters. A
        target that no longer exists is recorded in ``missing`` and left
        alone, so a removed function reports a missing layer instead of
        failing the run.
        """
        owner, attr, fn = _resolve(target)
        if fn is None:
            self.missing.append(target)
            return False
        tracer = self

        def wrapper(*args, **kwargs):
            with tracer.span(name, fanout=fanout):
                result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(result)
            return result

        wrapper.__wrapped__ = fn
        self._install(owner, attr, fn, wrapper)
        return True

    def wrap_iter(self, target: str, name: str) -> bool:
        """Wrap a generator function. Each item's production time adds to
        counters ``<name>.ms`` and ``<name>.items``; a span per item would
        cost more than reading a small record. One span covers the
        iteration from its first item to its end, so a caller that drains
        the generator in one go sees it as a child."""
        owner, attr, fn = _resolve(target)
        if fn is None:
            self.missing.append(target)
            return False
        tracer = self

        def wrapper(*args, **kwargs):
            it = iter(fn(*args, **kwargs))
            parent = tracer._parent()
            busy, items, start = 0.0, 0, time.perf_counter()
            try:
                while True:
                    t0 = time.perf_counter()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    busy += time.perf_counter() - t0
                    items += 1
                    yield item
            finally:
                tracer.count(name + ".ms", busy * 1000.0)
                tracer.count(name + ".items", items)
                tracer.spans.append(Span(next(tracer._ids), name, start, time.perf_counter(),
                                         parent.sid if parent else None,
                                         parent.op if parent else None, threading.get_ident()))

        wrapper.__wrapped__ = fn
        self._install(owner, attr, fn, wrapper)
        return True

    def _install(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def unwrap_all(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # ------------------------------------------------------------- output

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for s in self.spans:
                f.write(json.dumps({"id": s.sid, "name": s.name, "start": s.t0, "end": s.t1,
                                    "parent": s.parent, "op": s.op, "thread": s.thread}))
                f.write("\n")


class _SpanCtx:
    __slots__ = ("tracer", "name", "op", "fanout", "open", "parent", "t0")

    def __init__(self, tracer: Tracer, name: str, op, fanout: bool):
        self.tracer, self.name, self.op, self.fanout = tracer, name, op, fanout

    def __enter__(self):
        tr = self.tracer
        parent = tr._parent()
        self.parent = parent.sid if parent else None
        op = self.op if self.op is not None else (parent.op if parent else None)
        self.open = _Open(next(tr._ids), op)
        tr._stack().append(self.open)
        if self.fanout:
            with tr._lock:
                tr._fanout.append(self.open)
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        t1 = time.perf_counter()
        tr = self.tracer
        tr._stack().pop()
        if self.fanout:
            with tr._lock:
                tr._fanout.remove(self.open)
        tr.spans.append(Span(self.open.sid, self.name, self.t0, t1, self.parent,
                             self.open.op, threading.get_ident()))
        return False


def _resolve(target: str):
    """Split ``odkit.mod.Attr[.method]`` into (owner, attribute, value);
    value is None when any part is missing."""
    parts = target.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for p in parts[cut:-1]:
            owner = getattr(owner, p, None)
            if owner is None:
                return None, parts[-1], None
        return owner, parts[-1], getattr(owner, parts[-1], None)
    return None, parts[-1], None


# ------------------------------------------------------------- analysis

def union_length(intervals) -> float:
    """Total length covered by a set of possibly overlapping intervals."""
    total, end = 0.0, None
    for a, b in sorted(intervals):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


def self_ms(spans) -> dict[int, float]:
    """Each span's duration minus the part of its interval that its child
    spans cover. Children running concurrently on several threads are
    counted once where they overlap."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.t0, s.t1))
    out = {}
    for s in spans:
        kids = [(max(a, s.t0), min(b, s.t1)) for a, b in children.get(s.sid, ())]
        covered = union_length([(a, b) for a, b in kids if b > a])
        out[s.sid] = (s.t1 - s.t0 - covered) * 1000.0
    return out


def percentile(values, q: float) -> float:
    """Linear-interpolated ``q``-th percentile (numpy's default rule)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def summarize(values) -> dict:
    """Median, 90th percentile and sample count of a timing series."""
    xs = list(values)
    return {"p50": percentile(xs, 50), "p90": percentile(xs, 90), "n": len(xs)}
