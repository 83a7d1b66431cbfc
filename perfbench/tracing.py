"""Spans around quadricfit's layer boundaries, recorded from outside.

:class:`Tracer` replaces the names each caller looks up at call time (a
module attribute such as ``quadricfit.solver._linearize`` or a class
attribute such as ``CameraFrame.projection_rt``) with a wrapper that
records a span: name, start, end and the enclosing span. A function that
other modules imported by name is replaced in every quadricfit module that
holds it. Nothing under ``src/`` changes; :meth:`Tracer.uninstall` puts
the originals back.

Spans are kept in memory and written out once, after the measurement.
A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import Counter

import numpy as np


def _rows(position: int):
    def hook(tracer, name, args, out):
        tracer.counts[name + ".rows"] += len(args[position])
    return hook


def _cells(tracer, name, args, out):
    tracer.counts[name + ".cells"] += int(args[8]) ** 3


def _bytes(tracer, name, args, out):
    tracer.counts[name + ".bytes"] += os.path.getsize(args[0])


def _report(tracer, name, args, out):
    tracer.reports.append(out)


# (owner, attribute, span name, hook run on the call's arguments and result)
TARGETS = [
    ("quadricfit.cli", "main", "cli.main", None),
    ("quadricfit.sim", "make_trial", "sim.make_trial", None),
    ("quadricfit.sim", "run_trial", "sim.run_trial", None),
    ("quadricfit.solver", "solve", "solver.solve", _report),
    ("quadricfit.solver", "_linearize", "solver.linearize", None),
    ("quadricfit.solver", "_cost_of", "solver.cost_eval", None),
    ("quadricfit.solver", "retract_value", "manifold.retract", None),
    ("quadricfit.solver", "factor_residual", "costs.factor_residual", None),
    ("quadricfit.costs", "box_edge_planes", "costs.box_edge_planes", None),
    ("quadricfit.costs:CameraFrame", "projection_rt", "costs.projection_rt", None),
    ("quadricfit.quadric", "rts_from_dual", "quadric.rts_from_dual", None),
    ("quadricfit._kernels", "boxes_from_duals", "_kernels.boxes_from_duals", _rows(5)),
    ("quadricfit._kernels", "tangency_values", "_kernels.tangency_values", _rows(1)),
    ("quadricfit._kernels", "voxel_box_overlap", "_kernels.voxel_box_overlap", _cells),
    ("quadricfit.evaluation", "iou_duals", "evaluation.iou_duals", None),
    ("quadricfit.evaluation", "orientation_error", "evaluation.orientation_error", None),
    ("quadricfit.graphio", "problem_from_graph", "graphio.problem_from_graph", None),
    ("quadricfit.graphio", "write_result", "graphio.write_result", _bytes),
]


def _owner(path: str):
    module, _, cls = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """In-memory span recorder that wraps quadricfit's layer entry points."""

    def __init__(self):
        self.names: list[str] = []
        self._name_index: dict = {}  # stable across repeated install()
        self.spans: list = []  # (name index, start, end, parent span index or -1)
        self.counts: Counter = Counter()
        self.reports: list = []  # SolveReports returned by solver.solve
        self._stack: list[int] = []
        self._saved: list = []

    def _wrap(self, name: str, fn, hook):
        if name not in self._name_index:
            self._name_index[name] = len(self.names)
            self.names.append(name)
        nid = self._name_index[name]
        spans, stack, clock, counts = self.spans, self._stack, time.perf_counter, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            except Exception:
                counts[name + ".errors"] += 1
                raise
            finally:
                stack.pop()
                spans[idx] = (nid, start, clock(), parent)
            if hook is not None:
                hook(self, name, args, out)
            return out

        return wrapper

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if key == "quadricfit" or key.startswith("quadricfit.")]
        for path, attr, name, hook in TARGETS:
            owner = _owner(path)
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, hook)
            holders = [owner] if ":" in path else [
                m for m in modules if getattr(m, attr, None) is original]
            for holder in holders:
                self._saved.append((holder, attr, original))
                setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._saved):
            setattr(holder, attr, original)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def arrays(self) -> dict:
        """Spans as parallel arrays: name index, start, end, parent."""
        table = np.array(self.spans, dtype=float).reshape(-1, 4)
        return {"name": table[:, 0].astype(np.int32), "start": table[:, 1],
                "end": table[:, 2], "parent": table[:, 3].astype(np.int64)}

    def totals(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds."""
        a = self.arrays()
        duration = a["end"] - a["start"]
        child = np.zeros_like(duration)
        nested = a["parent"] >= 0
        np.add.at(child, a["parent"][nested], duration[nested])
        size = len(self.names)
        calls = np.bincount(a["name"], minlength=size)
        incl = np.bincount(a["name"], weights=duration, minlength=size)
        own = np.bincount(a["name"], weights=duration - child, minlength=size)
        return {n: {"calls": int(calls[i]), "s": float(incl[i]), "self_s": float(own[i])}
                for i, n in enumerate(self.names)}

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())
