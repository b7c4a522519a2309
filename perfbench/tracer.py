"""Span tracer installed around leafcoh's public functions from outside.

Every public module-level function of every leafcoh module gets a span
wrapper.  A wrapper is installed by rebinding every module-level reference
to the original function, because modules import each other's functions by
name (``leafwise`` and ``skewflow`` hold their own ``frame_derivative``).
The per-coefficient hot methods get count-only wrappers, which keeps the
trace small.  Spans and counts are recorded only while a job is open, so
input generation and the oracles never show up in a trace.

A span is ``[name, layer, start, end, parent, job, raised]``; spans live in
memory and are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter

LAYERS = (
    "cli",
    "scalars",
    "exact",
    "diophantine",
    "fourier",
    "leafwise",
    "toral",
    "skewflow",
    "liealg",
)

# methods that get a span of their own: the float TrigPoly hot paths
SPAN_METHODS = (
    ("fourier", "TrigPoly", "__mul__"),
    ("fourier", "TrigPoly", "evaluate"),
)

# per-coefficient methods that are only counted: (module, class, method, key)
COUNT_METHODS = (
    ("exact", "ExactCoeff", "__mul__", "exact.mul.calls"),
    ("exact", "ExactCoeff", "inverse", "exact.inverse.calls"),
    ("exact", "PhaseCoeff", "is_zero", "exact.phase_zero.calls"),
    ("scalars", "QuadraticIrrational", "circle_distance", "scalars.circle_distance.calls"),
    ("scalars", "QuadraticIrrational", "to_float", "scalars.to_float.calls"),
)

NAME, LAYER, START, END, PARENT, JOB, RAISED = range(7)


def _loaded_modules():
    """The leafcoh modules imported so far, by layer name, and the package.

    A process that never imported leafcoh (the cli-cold harness) gets none.
    """
    mods = {layer: sys.modules.get(f"leafcoh.{layer}") for layer in LAYERS}
    mods = {k: m for k, m in mods.items() if m is not None}
    package = sys.modules.get("leafcoh")
    return mods, [package] if package is not None else []


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.job = None
        self._stack: list = []
        self._saved: list = []
        self.clock = time.perf_counter

    # ------------------------------------------------------------------
    # installation

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        mods, package = _loaded_modules()
        wrappers = {}
        for layer, mod in mods.items():
            for name, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not name.startswith("_")
                ):
                    wrappers[obj] = self._span_wrapper(obj, f"{layer}.{name}", layer)
        for owner in [*mods.values(), *package]:
            for name, obj in list(vars(owner).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._rebind(owner, name, obj, wrappers[obj])
        for layer, cls_name, meth in SPAN_METHODS:
            if layer in mods:
                cls = getattr(mods[layer], cls_name)
                orig = cls.__dict__[meth]
                self._rebind_all(cls, orig, self._span_wrapper(orig, f"{layer}.{cls_name}.{meth}", layer))
        for layer, cls_name, meth, key in COUNT_METHODS:
            if layer in mods:
                cls = getattr(mods[layer], cls_name)
                orig = cls.__dict__[meth]
                self._rebind_all(cls, orig, self._count_wrapper(orig, key))

    def uninstall(self):
        for owner, name, orig in reversed(self._saved):
            setattr(owner, name, orig)
        self._saved.clear()

    def _rebind(self, owner, name, orig, wrapper):
        self._saved.append((owner, name, orig))
        setattr(owner, name, wrapper)

    def _rebind_all(self, cls, orig, wrapper):
        # aliases such as ``__rmul__ = __mul__`` share the wrapper
        for name, obj in list(vars(cls).items()):
            if obj is orig:
                self._rebind(cls, name, orig, wrapper)

    def _span_wrapper(self, fn, name, layer):
        spans = self.spans
        stack = self._stack
        clock = self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.job is None:
                return fn(*args, **kwargs)
            rec = [name, layer, clock(), 0.0, stack[-1] if stack else None, self.job, False]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                rec[RAISED] = True
                raise
            finally:
                rec[END] = clock()
                stack.pop()

        return wrapper

    def _count_wrapper(self, fn, key):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.job is not None:
                counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # ------------------------------------------------------------------
    # spans opened by the benchmark itself

    def open(self, name, layer, job):
        """Open a span from the harness (a job root, or a CLI process)."""
        parent = self._stack[-1] if self._stack else None
        self._stack.append(len(self.spans))
        self.spans.append([name, layer, self.clock(), 0.0, parent, job, False])
        if parent is None:
            self.job = job
        return self._stack[-1]

    def close(self, idx, raised=False):
        rec = self.spans[idx]
        rec[END] = self.clock()
        rec[RAISED] = raised
        self._stack.pop()
        if not self._stack:
            self.job = None

    def adopt(self, child_spans, child_counts, parent):
        """Merge spans recorded in a child process under ``parent``."""
        base = len(self.spans)
        job = self.spans[parent][JOB]
        for rec in child_spans:
            rec = list(rec)
            rec[PARENT] = parent if rec[PARENT] is None else rec[PARENT] + base
            rec[JOB] = job
            self.spans.append(rec)
        self.counts.update(child_counts)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)

    # ------------------------------------------------------------------
    # per-layer summary

    def layer_stats(self) -> dict:
        """calls, self time (s) and boundary-crossing exceptions per layer."""
        covered = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[PARENT] is not None:
                covered[rec[PARENT]] += rec[END] - rec[START]
        stats = {layer: {"calls": 0, "self_s": 0.0, "raised": 0} for layer in LAYERS}
        for i, rec in enumerate(self.spans):
            layer = rec[LAYER]
            if layer is None:
                continue
            st = stats[layer]
            st["calls"] += 1
            st["self_s"] += (rec[END] - rec[START]) - covered[i]
            if rec[RAISED]:
                parent = rec[PARENT]
                if parent is None or self.spans[parent][LAYER] != layer:
                    st["raised"] += 1
        return stats
