"""Wrappers around svilab's public functions that time each layer.

A :class:`Probe` patches names where the solvers look them up (module
globals and class attributes), runs the caller's code, and restores
every patched attribute on exit. Two levels:

* ``fine=False`` wraps only per-row and per-cell entry points (the
  problem constructors and the three solvers as called by the harness).
  It costs a few microseconds per cell and is on in every run, because
  set-up time and the per-cell ledgers come from it.
* ``fine=True`` also wraps the per-call layers (projection, maps,
  noise, batch means, metrics, CSV writing). Those calls run millions of
  times per cell, so they record only per-cell counts: calls, total ns,
  ns spent in wrapped children, and an amount: samples for calls that
  take a batch size, bytes for CSV writes. A call made while a call of
  the same count key is open (a ``ShiftedMap`` calling its base map) is
  part of that call and is not counted on its own.

Spans are recorded down to one cell, one PPAWSS subproblem or one
reference solve. A span's self time is its duration minus the time its
wrapped children took. Pauses reported through :meth:`Probe.pause`
(the speed sampler's kernel runs) are left out of every time the probe
records.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections import defaultdict


def _stat():
    # calls, total ns, child ns, amount (samples or bytes)
    return [0, 0, 0, 0]


def _counts_json(table):
    return {key: dict(zip(("calls", "ns", "child_ns", "amount"), stat))
            for key, stat in sorted(table.items())}


class Span:
    """One timed call at a layer boundary."""

    __slots__ = ("index", "name", "parent", "start_ns", "end_ns", "child_ns",
                 "pause_ns", "counts", "info")

    def __init__(self, index, name, parent):
        self.index = index
        self.name = name
        self.parent = parent
        self.start_ns = self.end_ns = self.child_ns = self.pause_ns = 0
        self.counts = None
        self.info = {}

    @property
    def ns(self):
        return self.end_ns - self.start_ns

    @property
    def self_ns(self):
        return self.ns - self.pause_ns - self.child_ns

    def as_json(self):
        record = {
            "id": self.index,
            "parent": None if self.parent is None else self.parent.index,
            "name": self.name,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "self_ns": self.self_ns,
        }
        record.update({k: v for k, v in self.info.items()
                       if isinstance(v, (int, float, str))})
        if self.counts is not None:
            record["counts"] = _counts_json(self.counts)
        return record


def _cell_info(args, kwargs, result):
    """Scheme, seed, map Lipschitz constant, ledger and trace of one solver
    call, as the harness makes it: solver(problem, start, config, budget,
    scheme=..., seed=...)."""
    problem, _, _, budget = args[:4]
    return {"scheme": kwargs["scheme"], "seed": kwargs["seed"],
            "lipschitz": problem.oracle.mean_map.lipschitz,
            "budget": budget, "trace": result[1]}


# (module, attribute, span name, opens its own count table, info hook)
_COARSE = [
    ("svilab.bench", "make_bimatrix", "setup", True, None),
    ("svilab.bench", "make_affine_strongly_monotone", "setup", True, None),
    ("svilab.bench", "run_ppawss", "cell", True, _cell_info),
    ("svilab.bench", "run_extragradient", "cell", True, _cell_info),
    ("svilab.bench", "run_vs_ave", "cell", True, _cell_info),
]
_FINE_SPANS = [
    ("svilab.problems", "reference_solution", "reference", True, None),
    ("svilab.ppawss", "run_vs_ave", "subproblem", False, None),
]


def _batch_size(args):
    return int(args[2])


def _file_size(args):
    return os.path.getsize(args[1])


# (module, owner or None, attribute, count key, amount per call)
_FINE_CALLS = [
    ("svilab.sets", "Product", "project", "sets.project", None),
    ("svilab.sets", "Box", "project", "sets.project", None),
    ("svilab.maps", "BimatrixMap", "__call__", "maps.call", None),
    ("svilab.maps", "ShiftedMap", "__call__", "maps.call", None),
    ("svilab.maps", "AffineMap", "__call__", "maps.call", None),
    ("svilab.oracle", "MatrixPerturbation", "noise_sum", "oracle.noise_sum",
     _batch_size),
    ("svilab.oracle", "AdditiveGaussian", "noise_sum", "oracle.noise_sum",
     _batch_size),
    ("svilab.vs_ave", None, "batch_mean", "oracle.batch_mean.vs_ave",
     _batch_size),
    ("svilab.extragradient", None, "batch_mean",
     "oracle.batch_mean.extragradient", _batch_size),
    ("svilab.vs_ave", None, "evaluate_point", "metrics.evaluate_point", None),
    ("svilab.ppawss", None, "evaluate_point", "metrics.evaluate_point", None),
    ("svilab.extragradient", None, "evaluate_point", "metrics.evaluate_point",
     None),
    ("svilab.trace", "RunTrace", "write_csv", "trace.write_csv",
     _file_size),
]


class Probe:
    """Context manager that wraps svilab's layers while it is open."""

    def __init__(self, fine=False):
        self.fine = fine
        self.spans = []
        self.stats = defaultdict(_stat)   # table of the innermost owner span
        self.harness = self.stats         # calls outside set-up and cells
        self.missing = []
        self._open = []
        self._stack = [[0, 0]]            # [child ns, pause ns] per open call
        self._inside = set()              # count keys with an open call
        self._patches = []

    # -- patching ---------------------------------------------------------

    def __enter__(self):
        spans = _COARSE + (_FINE_SPANS if self.fine else [])
        try:
            for module, attr, name, owns, info in spans:
                self._patch(importlib.import_module(module), attr,
                            functools.partial(self._span, name, owns, info))
            for module, owner, attr, key, amount in (
                    _FINE_CALLS if self.fine else ()):
                target = importlib.import_module(module)
                if owner is not None:
                    target = getattr(target, owner)
                self._patch(target, attr,
                            functools.partial(self._counted, key, amount))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def _patch(self, owner, attr, make):
        if attr not in vars(owner):
            # a layer the program no longer has; reported, not fatal
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        original = vars(owner)[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(make(original)))

    def pause(self, ns):
        """Leave ``ns`` of the innermost open call out of its times."""
        self._stack[-1][1] += ns

    def restore(self):
        """Put every patched attribute back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, owns_counts, info, fn):
        probe = self
        stack = self._stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            parent = probe._open[-1] if probe._open else None
            span = Span(len(probe.spans), name, parent)
            probe.spans.append(span)
            probe._open.append(span)
            outer_stats = probe.stats
            if owns_counts:
                probe.stats = span.counts = defaultdict(_stat)
            acc = [0, 0]
            stack.append(acc)
            result = None
            span.start_ns = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span.end_ns = clock()
                stack.pop()
                span.child_ns, span.pause_ns = acc
                stack[-1][0] += span.ns - span.pause_ns
                stack[-1][1] += span.pause_ns
                probe.stats = outer_stats
                probe._open.pop()
                if info is not None and result is not None:
                    span.info = info(args, kwargs, result)

        return wrapper

    def _counted(self, key, amount, fn):
        probe = self
        stack = self._stack
        inside = self._inside
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if key in inside:
                # part of an open call of the same layer (a ShiftedMap's
                # base map): its time stays in that call
                return fn(*args, **kwargs)
            inside.add(key)
            acc = [0, 0]
            stack.append(acc)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ns = clock() - start - acc[1]
                inside.discard(key)
                stack.pop()
                stack[-1][0] += ns
                stack[-1][1] += acc[1]
                stat = probe.stats[key]
                stat[0] += 1
                stat[1] += ns
                stat[2] += acc[0]
                if amount is not None:
                    stat[3] += amount(args)

        return wrapper

    # -- results ----------------------------------------------------------

    def named(self, name):
        return [s for s in self.spans if s.name == name]

    def write_spans(self, path):
        """Write every recorded span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.as_json(), sort_keys=True) + "\n")
            fh.write(json.dumps({"name": "harness",
                                 "counts": _counts_json(self.harness)}) + "\n")
