"""In-memory span recorder that wraps public functions from outside the package.

A span is (name, parent, start, end).  Wrappers are installed on module or
class attributes, so the package itself is never edited: a call that looks
the attribute up at call time (``scenario.run_protocol(...)`` inside
``run_scenario``, ``schedule.edges_at(t)`` inside the engine) goes through the
wrapper.  Spans nest through a stack, which is exact because the benchmark
runs one scenario at a time on one thread.  Counters are cheaper wrappers
for functions called hundreds of thousands of times per scenario, where a
span per call would distort the layer it measures.
"""

from __future__ import annotations

import functools
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, list[int]] = {}
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []

    def _nid(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        sid = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self._stack.append(sid)
        self.end.append(0.0)
        self.start.append(perf_counter())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        sid = self._open(self._nid(name))
        try:
            yield
        finally:
            self._close(sid)

    def _replace(self, owner, attr: str, value) -> None:
        # restore from __dict__ so a class keeps its own function object
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._restore.append((owner, attr, original))
        setattr(owner, attr, value)

    def wrap(self, owner, attr: str, name, after=None) -> None:
        """Record a span around every call of ``owner.attr``.

        ``name`` is a span name or a function of the call arguments that
        returns one.  ``after(result, args)`` runs outside the span.
        """
        fn = getattr(owner, attr)
        fixed = None if callable(name) else self._nid(name)
        opener, closer, nid_of = self._open, self._close, self._nid

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = opener(fixed if fixed is not None else nid_of(name(args)))
            try:
                result = fn(*args, **kwargs)
            finally:
                closer(sid)
            if after is not None:
                after(result, args)
            return result

        self._replace(owner, attr, traced)

    def count(self, owner, attr: str, key: str) -> None:
        """Count calls of ``owner.attr`` under ``key`` without recording spans."""
        fn = getattr(owner, attr)
        box = self.counts.setdefault(key, [0])

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            box[0] += 1
            return fn(*args, **kwargs)

        self._replace(owner, attr, counted)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def self_times(self, excluded=()) -> np.ndarray:
        """Each span's duration minus the time its child spans cover, and
        minus the ``(start, seconds)`` intervals of ``excluded`` that fall
        inside it and in none of its children."""
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        duration = end - start
        covered = np.zeros_like(duration)
        nested = parent >= 0
        np.add.at(covered, parent[nested], duration[nested])
        for t, seconds in excluded:
            # spans open in time order: walk out from the last one opened
            # before t to the innermost one still open at t + seconds
            sid = int(np.searchsorted(start, t, side="right")) - 1
            while sid >= 0 and end[sid] < t + seconds:
                sid = int(parent[sid])
            if sid >= 0:
                covered[sid] += seconds
        return duration - covered

    def write_csv(self, path) -> None:
        """Write every span as ``id,name,parent,start_s,end_s``."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,name,parent,start_s,end_s\n")
            names = self.names
            for sid, (nid, par, s, e) in enumerate(
                zip(self.name_id, self.parent, self.start, self.end)
            ):
                fh.write(f"{sid},{names[nid]},{par},{s:.9f},{e:.9f}\n")
