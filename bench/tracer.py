"""In-memory span tracer that wraps functions from outside the program.

A span is (name, start, end, parent).  Spans live in flat arrays while the
run goes on and are reduced to per-name self and inclusive times only when
asked, so the cost inside the run is a few appends per call.  Self time is a
span's duration minus the durations of its direct children; inclusive time
counts only the outermost span of a name, so recursion is not counted twice.

Wrappers replace a function in its defining module and in every module that
imported it by name (``from .basis import quadrature_rule``), because a
wrapper installed only in the defining module would miss those call sites.
Methods are wrapped on their class.
"""

import contextlib
import functools
import sys
import time
from array import array
from collections import Counter

import numpy as np


class Tracer:
    """Records nested spans and named counts; reduces them on demand."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self._name = array("i")
        self._start = array("q")
        self._end = array("q")
        self._parent = array("i")
        self._outer = array("b")
        self._stack = []
        self._depth = Counter()
        self.counts = Counter()

    def _name_id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def enter(self, name):
        nid = self._name_id(name)
        idx = len(self._name)
        self._name.append(nid)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._outer.append(self._depth[nid] == 0)
        self._end.append(0)
        self._depth[nid] += 1
        self._stack.append(idx)
        self._start.append(time.perf_counter_ns())
        return idx

    def exit(self, idx):
        self._end[idx] = time.perf_counter_ns()
        self._stack.pop()
        self._depth[self._name[idx]] -= 1

    @contextlib.contextmanager
    def span(self, name):
        """Record a span around a block of code."""
        idx = self.enter(name)
        try:
            yield
        finally:
            self.exit(idx)

    def wrap(self, fn, name, classify=None):
        """Wrapper of ``fn`` that records a span per call.

        ``classify(args, kwargs)`` may return ``(suffix, counts)``: the suffix
        (or None) is appended to the span name and ``counts`` is a dict of
        counter increments.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name
            if classify is not None:
                suffix, counts = classify(args, kwargs)
                if suffix:
                    span_name = f"{name}[{suffix}]"
                tracer.counts.update(counts)
            idx = tracer.enter(span_name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.exit(idx)

        return traced

    def __len__(self):
        return len(self._name)

    def arrays(self):
        """Spans as numpy arrays: name ids, start and end in ns, parent index."""
        if self._stack:
            raise RuntimeError("spans are still open")
        return (
            np.frombuffer(self._name, dtype=np.int32).astype(np.int64),
            np.frombuffer(self._start, dtype=np.int64),
            np.frombuffer(self._end, dtype=np.int64),
            np.frombuffer(self._parent, dtype=np.int32).astype(np.int64),
            np.frombuffer(self._outer, dtype=np.int8).astype(bool),
        )

    def span_self_ns(self):
        """Self time of every span: its duration minus its children's."""
        _, start, end, parent, _ = self.arrays()
        duration = (end - start).astype(np.float64)
        has_parent = parent >= 0
        child_sum = np.bincount(
            parent[has_parent], weights=duration[has_parent], minlength=len(duration)
        )
        return duration - child_sum

    def times(self):
        """Per span name: (self seconds, inclusive seconds, calls)."""
        names, start, end, _, outer = self.arrays()
        n_names = len(self.names)
        duration = (end - start).astype(np.float64)
        own = self.span_self_ns()
        self_s = np.bincount(names, weights=own, minlength=n_names) * 1e-9
        incl_s = np.bincount(names[outer], weights=duration[outer], minlength=n_names) * 1e-9
        calls = np.bincount(names, minlength=n_names)
        return {
            name: (float(self_s[i]), float(incl_s[i]), int(calls[i]))
            for i, name in enumerate(self.names)
        }

    def root_seconds(self):
        """Summed duration of the spans that have no parent."""
        _, start, end, parent, _ = self.arrays()
        roots = parent < 0
        return float(np.sum(end[roots] - start[roots])) * 1e-9

    def write(self, path):
        """Write every span as CSV: index, name, start_ns, end_ns, parent."""
        names, start, end, parent, _ = self.arrays()
        origin = int(start[0]) if len(start) else 0
        with open(path, "w") as handle:
            handle.write("index,name,start_ns,end_ns,parent\n")
            for i in range(len(names)):
                handle.write(
                    f"{i},{self.names[names[i]]},{start[i] - origin},"
                    f"{end[i] - origin},{parent[i]}\n"
                )


def install(tracer, package, targets):
    """Wrap every target; returns ``(restore, missing)``.

    ``targets`` is a list of ``(module, attribute path, classify)``, where the
    path is ``"function"`` or ``"Class.method"`` inside ``package.module``.
    A target missing from the program is skipped and named in ``missing``,
    so a renamed function shows up as a missing span rather than a crash;
    ``restore()`` puts the originals back.
    """
    modules = [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == package or name.startswith(package + "."))
    ]
    undo = []
    missing = []
    for module_name, path, classify in targets:
        module = sys.modules.get(f"{package}.{module_name}")
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        if owner is None or attr not in vars(owner):
            missing.append(f"{module_name}.{path}")
            continue
        original = vars(owner)[attr]
        traced = tracer.wrap(original, f"{module_name}.{path}", classify)
        if owner_name:
            undo.append((owner, attr, original))
            setattr(owner, attr, traced)
            continue
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    undo.append((mod, key, original))
                    setattr(mod, key, traced)

    def restore():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return restore, missing
