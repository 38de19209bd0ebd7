"""In-memory spans recorded at delayboost's layer boundaries.

A span is one call across a boundary: its name, start and end times, the id
of the span that was open when it began, and counts read from the call's
arguments or result.  Spans stay in a list while a run measures and are
written out when it ends.

Boundaries are patched by attribute name.  Patching the package namespace
catches the benchmark's own calls; patching a name one module imported from
another (``delayboost.boost.fit_tree``) catches calls between layers, so
spans nest.  A boundary whose attribute no longer exists is skipped, and one
that is never called simply has no spans; callers report both as absent.

Only the standard library is imported here, so the set-up child can load
this module before it times ``import delayboost``.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter(),
            "end": None,
            "counts": {},
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def _wrap(self, fn, name, count):
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            if count is not None:
                record["counts"] = count(args, result)
            return result

        return traced

    @contextmanager
    def installed(self, boundaries):
        """Patch every boundary that exists; restore the originals on exit.

        `boundaries` holds (module, attribute, span name, count) tuples, where
        count maps (args, result) to a dict of counts, or is None.
        """
        patched = []
        try:
            for module_name, attr, name, count in boundaries:
                module = importlib.import_module(module_name)
                original = getattr(module, attr, None)
                if original is None:
                    continue
                setattr(module, attr, self._wrap(original, name, count))
                patched.append((module, attr, original))
            yield
        finally:
            for module, attr, original in reversed(patched):
                setattr(module, attr, original)


def descendants(spans: list[dict], root_id: int) -> list[dict]:
    """Every span below `root_id`, in start order."""
    below = {root_id}
    out = []
    for s in spans:  # spans are appended in start order, so parents come first
        if s["parent"] in below:
            below.add(s["id"])
            out.append(s)
    return out


class Layers:
    """Per-name totals over a set of spans: time, self time, calls and counts.

    Self time is a span's duration minus its direct children's durations; in
    one thread children never overlap, so that is the part they do not cover.
    """

    def __init__(self, spans: list[dict]):
        self.spans = spans
        child_time: dict[int, float] = {}
        for s in spans:
            if s["parent"] is not None:
                child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + _dur(s)
        self._child_time = child_time
        self._ids = {s["id"]: s for s in spans}

    def named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]

    def calls(self, name: str) -> int:
        return len(self.named(name))

    def seconds(self, name: str) -> float:
        return sum(_dur(s) for s in self.named(name))

    def self_seconds(self, name: str) -> float:
        return sum(_dur(s) - self._child_time.get(s["id"], 0.0) for s in self.named(name))

    def count(self, name: str, key: str, under: str | None = None) -> int:
        spans = self.named(name)
        if under is not None:
            spans = [s for s in spans if self._has_ancestor(s, under)]
        return sum(s["counts"].get(key, 0) for s in spans)

    def _has_ancestor(self, span: dict, name: str) -> bool:
        parent = self._ids.get(span["parent"])
        while parent is not None:
            if parent["name"] == name:
                return True
            parent = self._ids.get(parent["parent"])
        return False


def _dur(span: dict) -> float:
    return span["end"] - span["start"]
