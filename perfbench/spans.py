"""In-memory span tracer that wraps a package's public functions from outside.

Every wrapped call records one span (name, start, end, parent) in flat
arrays; nothing is written until :meth:`Tracer.save`.  A span's self time
is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import time
from array import array

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("q")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        #: exact counters filled by return hooks, keyed by metric name
        self.counts: dict[str, float] = {}
        self._patched: list[tuple] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str, hook=None):
        """``fn`` recording a span per call; ``hook(counts, args, kwargs, result)``."""
        nid = self.name_id(name)
        names, parents, starts, ends, stack = (
            self.name, self.parent, self.start, self.end, self._stack)
        counts = self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, layers: dict, importers, hooks: dict) -> None:
        """Wrap the public functions, constructors and methods of ``layers``.

        ``layers`` maps a short layer name to its module.  Spans are named
        ``layer.function``, ``layer.Class`` (constructor) and
        ``layer.Class.method``.  Every module in ``importers`` that bound one
        of the wrapped functions by name gets the wrapper too.
        """
        wrapped = {}
        for short, mod in layers.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    name = f"{short}.{attr}"
                    wrapped[id(obj)] = (obj, self.wrap(obj, name, hooks.get(name)))
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._install_class(short, obj, hooks)
        for mod in importers:
            for attr, obj in list(vars(mod).items()):
                entry = wrapped.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._patch(mod, attr, entry[1])

    def _install_class(self, short: str, cls, hooks: dict) -> None:
        for attr, member in list(vars(cls).items()):
            if attr == "__init__":
                name = f"{short}.{cls.__name__}"
            elif attr.startswith("_"):
                continue
            else:
                name = f"{short}.{cls.__name__}.{attr}"
            if inspect.isfunction(member):
                self._patch(cls, attr, self.wrap(member, name, hooks.get(name)))
            elif isinstance(member, (classmethod, staticmethod)):
                inner = self.wrap(member.__func__, name, hooks.get(name))
                self._patch(cls, attr, type(member)(inner))

    def patch_counter(self, owner, attr: str, counter: str) -> None:
        """Count calls of ``owner.attr`` in ``counts[counter]``, without a span."""
        fn, counts = getattr(owner, attr), self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[counter] = counts.get(counter, 0) + 1
            return fn(*args, **kwargs)

        self._patch(owner, attr, counted)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def arrays(self):
        """(name, parent, duration, self time) as numpy arrays, one entry per span."""
        name, parent, start, end = self._copies()
        dur = end - start
        child = parent >= 0
        covered = np.bincount(parent[child], weights=dur[child], minlength=dur.size)
        return name, parent, dur, dur - covered

    @staticmethod
    def roots(parent):
        """Index of each span's root span, by pointer jumping."""
        root = np.where(parent < 0, np.arange(parent.size), parent)
        while True:
            nxt = root[root]
            if np.array_equal(nxt, root):
                return root
            root = nxt

    def save(self, path) -> None:
        name, parent, start, end = self._copies()
        np.savez(path, names=np.array(self.names), name=name, parent=parent,
                 start=start, end=end)

    def _copies(self):
        # copies, so the arrays stay free to grow while results are held
        return (np.array(self.name, dtype=np.int64), np.array(self.parent, dtype=np.int64),
                np.array(self.start, dtype=float), np.array(self.end, dtype=float))
