"""In-memory span recorder that wraps functions at module attributes.

A wrapper is installed where callers look a function up, for example
``gravent.experiments.trig_moments``, so every call through that name
opens a span.  Each span records its name, start, end and parent span.
Spans stay in flat arrays until ``summary`` turns them into per-name call
counts and self time; self time is a span's duration minus its
children's.
"""

from __future__ import annotations

import time
from array import array
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []
        # layer counters filled by the wrappers' hooks
        self.counts: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = {}
        self.samples: dict[str, list[float]] = defaultdict(list)

    # -- counters -------------------------------------------------------
    def add(self, key: str, value: float = 1.0) -> None:
        self.counts[key] += value

    def note_max(self, key: str, value: float) -> None:
        if value > self.maxima.get(key, float("-inf")):
            self.maxima[key] = value

    # -- spans ----------------------------------------------------------
    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, module, attr: str, name: str, before=None, after=None) -> None:
        """Replace module.attr by a traced wrapper until ``uninstall``.

        ``before(args, kwargs)`` may return replacement (args, kwargs);
        ``after(args, kwargs, result, exc)`` sees the outcome.  Both run
        outside the span, so their cost is not charged to the layer.
        """
        original = getattr(module, attr)
        tracer = self

        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            idx = tracer._open(name)
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                tracer._close(idx)
                if after is not None:
                    after(args, kwargs, None, exc)
                raise
            tracer._close(idx)
            if after is not None:
                after(args, kwargs, result, None)
            return result

        traced.__wrapped__ = original
        setattr(module, attr, traced)
        self._installed.append((module, attr, original))

    def uninstall(self) -> None:
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)

    def first_duration(self, name: str) -> float | None:
        """Duration in seconds of the first span called `name`."""
        nid = self._name_ids.get(name)
        if nid is None:
            return None
        idx = self.name_id.index(nid)
        return self.end[idx] - self.start[idx]

    def summary(self) -> dict:
        """Per-name calls and self seconds, plus the counters."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        spans: dict[str, dict] = {}
        for i in range(n):
            entry = spans.setdefault(self.names[self.name_id[i]],
                                     {"calls": 0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += dur[i] - child[i]
        return {
            "spans": spans,
            "counts": dict(self.counts),
            "maxima": dict(self.maxima),
            "samples": {k: list(v) for k, v in self.samples.items()},
        }
