"""Spans recorded from outside the program, written as Chrome trace events.

The benchmark never edits ``src/``: it wraps the public functions of each
``repro`` module it measures (:meth:`Tracer.patch`) for the length of a
traced run and restores them afterwards. Every call then becomes a span
with a name, start, end, the span that caused it (its parent on the same
thread) and an operation id shared by every span of one pull or one layer.

:meth:`Tracer.chrome_trace` emits the Trace Event Format that Perfetto and
``chrome://tracing`` open directly: complete ``X`` events with
``ts``/``dur`` in microseconds and ``pid``/``tid``.
"""

from __future__ import annotations

import functools
import os
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    tid: int
    op: str | None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans per thread; patches and restores call sites."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []
        #: work counted at the same call sites: span name -> units
        self.counts: dict[str, float] = defaultdict(float)
        self.origin = time.perf_counter()

    # -- recording ---------------------------------------------------------------

    def _stack(self) -> list[tuple[int, str | None]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, *, op: str | None = None):
        """Time the enclosed block as one span. Children on the same thread
        nest under it and inherit its *op* id unless they name their own."""
        stack = self._stack()
        parent, inherited = stack[-1] if stack else (None, None)
        with self._lock:
            self._next_id += 1
            span_id = self._next_id
        op = op if op is not None else inherited
        stack.append((span_id, op))
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            stack.pop()
            span = Span(span_id, parent, name, start, end, threading.get_ident(), op)
            with self._lock:
                self.spans.append(span)

    def wrap(self, name: str, fn, *, op_of=None, count_of=None):
        """*fn* with every call recorded as a span called *name*.
        ``op_of(*args)`` names the operation id a call starts, if any;
        ``count_of(result, *args)`` adds the call's work to ``counts[name]``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            op = op_of(*args) if op_of is not None else None
            with self.span(name, op=op):
                result = fn(*args, **kwargs)
            if count_of is not None:
                amount = count_of(result, *args)
                with self._lock:
                    self.counts[name] += amount
            return result

        return traced

    # -- patching ----------------------------------------------------------------

    def patch(
        self, owner: object, attr: str, name: str, *, op_of=None, count_of=None
    ) -> None:
        """Replace ``owner.attr`` with a traced wrapper until :meth:`restore`."""
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, op_of=op_of, count_of=count_of))

    def patch_everywhere(self, fn, name: str, *, op_of=None, count_of=None) -> None:
        """Trace *fn* in every loaded ``repro`` module that imported it by
        name, so ``from x import f`` call sites are covered too."""
        wrapped = self.wrap(name, fn, op_of=op_of, count_of=count_of)
        for module_name, module in list(sys.modules.items()):
            if not module_name.startswith("repro") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patched.append((module, attr, fn))
                    setattr(module, attr, wrapped)

    def patch_dict(self, table: dict, prefix: str) -> None:
        """Trace every callable value of *table* as ``prefix + key``."""
        for key, fn in list(table.items()):
            self._patched.append((table, key, fn))
            table[key] = self.wrap(f"{prefix}{key}", fn)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.restore()

    # -- analysis ----------------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the part of it its children cover."""
        children: dict[int, list[Span]] = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                children[span.parent].append(span)
        out: dict[int, float] = {}
        for span in self.spans:
            covered = 0.0
            cursor = span.start
            for child in sorted(children.get(span.id, ()), key=lambda s: s.start):
                lo = max(child.start, cursor)
                hi = min(child.end, span.end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            out[span.id] = span.duration - covered
        return out

    def _since(self, since: float | None) -> list[Span]:
        if since is None:
            return list(self.spans)
        return [span for span in self.spans if span.start >= since]

    def totals(self, since: float | None = None) -> dict[str, dict[str, float]]:
        """Per span name: call count, total seconds and total self seconds,
        over the spans that started at or after *since*."""
        self_s = self.self_times()
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        for span in self._since(since):
            row = out[span.name]
            row["calls"] += 1
            row["total_s"] += span.duration
            row["self_s"] += self_s[span.id]
        return dict(out)

    def top_level_seconds(self, since: float | None = None) -> float:
        """Seconds covered by spans that have no parent, summed per thread
        as a union (overlapping roots on one thread count once)."""
        by_thread: dict[int, list[Span]] = defaultdict(list)
        for span in self._since(since):
            if span.parent is None:
                by_thread[span.tid].append(span)
        covered = 0.0
        for roots in by_thread.values():
            cursor = float("-inf")
            for span in sorted(roots, key=lambda s: s.start):
                lo = max(span.start, cursor)
                if span.end > lo:
                    covered += span.end - lo
                    cursor = span.end
        return covered

    def chrome_trace(self) -> dict:
        """The spans as a Trace Event Format document."""
        pid = os.getpid()
        tids: dict[int, int] = {}
        events = []
        for span in sorted(self.spans, key=lambda s: (s.start, s.id)):
            tid = tids.setdefault(span.tid, len(tids) + 1)
            args = {"span_id": span.id, "parent_id": span.parent}
            if span.op is not None:
                args["op"] = span.op
            events.append({
                "name": span.name,
                "cat": span.name.split(".", 1)[0],
                "ph": "X",
                "ts": round((span.start - self.origin) * 1e6, 3),
                "dur": round(span.duration * 1e6, 3),
                "pid": pid,
                "tid": tid,
                "args": args,
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}
