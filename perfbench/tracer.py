"""Span tracing of the `crn` layers from outside the program.

``Tracer.install`` replaces every public function (and the few private ones
in ``EXTRA``) in each module's namespace with a wrapper that records a span:
name, start, end, parent span and item id.  Wrapping happens where callers
look a function up, so ``crn.stoch.propensity`` (bound in ``stoch``) and
``crn.detbal.det_rates`` are traced, and a span is named after the module
that defines the function (``kinetics.propensity``).  ``uninstall`` puts the
originals back.  Spans stay in memory; self times are computed afterwards.
"""

from __future__ import annotations

import functools
import importlib
import types
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("parser", "model", "graph", "kinetics", "detbal", "stoch", "ssa", "cli")
# Private functions that carry a layer's work: the implication map, and the
# JSON writer plus print (called once per command).
EXTRA = {"cli": ("_implications", "_emit", "_load_system")}
# Counters read from a function's result, named <span>.<counter>.
COUNTERS = {
    "stoch.communicating_class": ("states", lambda out: len(out.states)),
    "stoch.stationary_distribution": ("support", lambda out: len(out.weights)),
    "stoch.classify_measure": ("boundary_skipped", lambda out: out.boundary_skipped),
    "detbal.solve_rvb": ("found", len),
    "detbal.integrate": ("steps", lambda out: len(out) - 1),
}


class Tracer:
    def __init__(self):
        self.labels: list[str] = []
        self.label_ids: dict[str, int] = {}
        self.saved: list[tuple[types.ModuleType, str, object]] = []
        self.item = -1
        self.reset()

    def reset(self):
        self.name = array("i")
        self.parent = array("i")
        self.item_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}

    def install(self):
        if self.saved:
            return
        for layer in LAYERS:
            module = importlib.import_module(f"crn.{layer}")
            for attr, obj in list(vars(module).items()):
                if not isinstance(obj, types.FunctionType):
                    continue
                if not obj.__module__.startswith("crn."):
                    continue
                if attr.startswith("_") and attr not in EXTRA.get(layer, ()):
                    continue
                label = f"{obj.__module__[4:]}.{obj.__name__}"
                self.saved.append((module, attr, obj))
                setattr(module, attr, self._wrap(obj, label))

    def uninstall(self):
        for module, attr, obj in reversed(self.saved):
            setattr(module, attr, obj)
        self.saved = []

    def _wrap(self, fn, label):
        if label not in self.label_ids:
            self.label_ids[label] = len(self.labels)
            self.labels.append(label)
        label_id = self.label_ids[label]
        counter = COUNTERS.get(label)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(tracer.name)
            tracer.name.append(label_id)
            tracer.parent.append(tracer.stack[-1] if tracer.stack else -1)
            tracer.item_id.append(tracer.item)
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            tracer.stack.append(idx)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tracer.stack.pop()
                tracer.start[idx] = t0
                tracer.end[idx] = t1
            if counter is not None:
                key = f"{label}.{counter[0]}"
                tracer.counts[key] = tracer.counts.get(key, 0) + int(counter[1](out))
            return out

        return traced

    def summary(self) -> dict:
        """Per-label self time (s) and calls, per-layer self time, counters."""
        names = np.frombuffer(self.name, dtype=np.int32) if len(self.name) else np.zeros(0, np.int32)
        parents = np.frombuffer(self.parent, dtype=np.int32) if len(self.parent) else np.zeros(0, np.int32)
        dur = np.asarray(self.end) - np.asarray(self.start)
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = dur - child
        size = len(self.labels)
        per_label_self = np.bincount(names, weights=self_time, minlength=size)
        per_label_calls = np.bincount(names, minlength=size)
        out = {"trace.spans": int(len(dur))}
        layer_self = {layer: 0.0 for layer in LAYERS}
        for i, label in enumerate(self.labels):
            out[f"{label}.s"] = float(per_label_self[i])
            out[f"{label}.calls"] = int(per_label_calls[i])
            layer_self[label.split(".")[0]] += float(per_label_self[i])
        for layer, value in layer_self.items():
            out[f"{layer}.self_s"] = value
        out.update(self.counts)
        return out

    def save(self, path):
        """Write the spans of the last traced pass as a compressed archive."""
        np.savez_compressed(
            path,
            labels=np.array(self.labels),
            name=np.asarray(self.name), parent=np.asarray(self.parent),
            item=np.asarray(self.item_id), start=np.asarray(self.start),
            end=np.asarray(self.end),
        )
