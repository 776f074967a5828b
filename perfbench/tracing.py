"""Spans and counts around chi2chaos's public functions, from outside ``src``.

``Tracer.install`` replaces every public module-level function of the traced
modules, and the public methods of ``TargetLaw``, with a wrapper that records
a span (name, start, end, parent) in memory.  Some calls go through names
bound at import (``chaos`` binds ``symmetrize``), so every binding of a
function is wrapped, each under the name of the module that defines it.
``uninstall`` restores the originals.

Counts are exact and computed from arguments or results, so they repeat
between runs:

* ``chaos.coeffs_stored`` -- coefficients held by the expansions that
  ``gamma_sequence`` returns;
* ``chaos.peak_order`` -- highest chaos order among them;
* ``chaos.evaluate.rows`` -- rows passed to outermost ``evaluate`` calls;
* ``sym_tensor.elem_ops`` -- sum over ``symmetrize`` calls of tensor size
  times arrangement count (computed from the arguments, not measured);
* ``montecarlo.cdf_nodes`` -- calls into ``TargetLaw.cdf``;
* ``montecarlo.samples`` -- rows requested from ``sample_chaos``.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
from collections import Counter
from time import perf_counter

import numpy as np

from chi2chaos import chaos, cli, criteria, montecarlo, sym_tensor

MODULES = (cli, criteria, chaos, sym_tensor, montecarlo)
CLASS_METHODS = ((montecarlo.TargetLaw, ("cdf", "cdf_batch")),)


def _symmetrize_ops(args, kwargs) -> int:
    t = np.asarray(args[0])
    blocks = args[1] if len(args) > 1 else kwargs.get("blocks")
    if t.ndim <= 1:
        return t.size
    blocks = blocks or (1,) * t.ndim
    count = math.factorial(t.ndim)
    for b in blocks:
        count //= math.factorial(b)
    return t.size * count


def _stored(seq) -> int:
    return sum(F.kernel(q).size for F in seq for q in F.orders())


class Tracer:
    """Records spans and counts while installed."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, outermost]
        self.counts = Counter()
        self.peak_order = 0
        self._stack = []
        self._active = Counter()
        self._saved = []

    def _count(self, name, args, kwargs, result):
        if name == "sym_tensor.symmetrize":
            self.counts["sym_tensor.elem_ops"] += _symmetrize_ops(args, kwargs)
        elif name == "chaos.gamma_sequence":
            self.counts["chaos.coeffs_stored"] += _stored(result)
            self.peak_order = max([self.peak_order] + [F.max_order for F in result])
        elif name == "chaos.evaluate" and self._active[name] == 0:
            self.counts["chaos.evaluate.rows"] += np.atleast_2d(args[1]).shape[0]
        elif name == "montecarlo.sample_chaos":
            self.counts["montecarlo.samples"] += args[1]

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            span = [name, perf_counter(), None,
                    self._stack[-1] if self._stack else -1,
                    self._active[name] == 0]
            self.spans.append(span)
            self._stack.append(index)
            self._active[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                self._active[name] -= 1
                self._stack.pop()
                span[2] = perf_counter()
            self._count(name, args, kwargs, result)
            return result
        return wrapper

    def install(self):
        for module in MODULES:
            for attr, fn in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or not fn.__module__.startswith("chi2chaos.")):
                    continue
                name = f"{fn.__module__.rsplit('.', 1)[1]}.{fn.__name__}"
                self._saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(name, fn))
        for cls, methods in CLASS_METHODS:
            layer = cls.__module__.rsplit(".", 1)[1]
            for attr in methods:
                fn = vars(cls)[attr]
                self._saved.append((cls, attr, fn))
                setattr(cls, attr, self._wrap(f"{layer}.{attr}", fn))

    def uninstall(self):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def write(self, path):
        """One JSON line per span: name, start, end, parent."""
        with open(path, "w") as fh:
            for name, start, end, parent, _ in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")

    def layer_metrics(self) -> dict:
        """Per-layer values from the recorded spans and counts.

        ``<fn>.s`` is inclusive busy time (outermost spans only, so
        recursion is not counted twice); ``<layer>.self_s`` is span time
        minus child spans, summed over the layer's spans."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        busy, calls, self_s = Counter(), Counter(), Counter()
        for (name, start, end, _, outer), children in zip(self.spans, child_time):
            calls[name] += 1
            if outer:
                busy[name] += end - start
            own = end - start - children
            self_s[name.split(".")[0]] += own
            self_s[name] += own
        nodes = calls["montecarlo.cdf"]
        return {
            "cli.self_s": self_s["cli"],
            "criteria.criterion_statistic.s": busy["criteria.criterion_statistic"],
            "criteria.criterion_statistic.calls": calls["criteria.criterion_statistic"],
            "criteria.q_chaos_conditions.s": busy["criteria.q_chaos_conditions"],
            "criteria.self_s": self_s["criteria"],
            "chaos.gamma_sequence.s": busy["chaos.gamma_sequence"],
            "chaos.gamma_sequence.calls": calls["chaos.gamma_sequence"],
            "chaos.self_s": self_s["chaos"],
            "chaos.coeffs_stored": self.counts["chaos.coeffs_stored"],
            "chaos.peak_order": self.peak_order,
            "chaos.evaluate.s": busy["chaos.evaluate"],
            "chaos.evaluate.rows": self.counts["chaos.evaluate.rows"],
            "sym_tensor.symmetrize.calls": calls["sym_tensor.symmetrize"],
            "sym_tensor.symmetrize.s": busy["sym_tensor.symmetrize"],
            "sym_tensor.sym_contract.s": busy["sym_tensor.sym_contract"],
            "sym_tensor.self_s": self_s["sym_tensor"],
            "sym_tensor.elem_ops": self.counts["sym_tensor.elem_ops"],
            "montecarlo.cdf_batch.s": busy["montecarlo.cdf_batch"],
            "montecarlo.cdf_nodes": nodes,
            "montecarlo.cdf_node_us": (1e6 * busy["montecarlo.cdf"] / nodes
                                       if nodes else 0.0),
            "montecarlo.kolmogorov_distance.self_s":
                self_s["montecarlo.kolmogorov_distance"],
            "montecarlo.sample_chaos.s": busy["montecarlo.sample_chaos"],
            "montecarlo.samples": self.counts["montecarlo.samples"],
            "montecarlo.k_statistics.s": busy["montecarlo.k_statistics"],
            "montecarlo.self_s": self_s["montecarlo"],
        }


# The counts that must repeat exactly between runs of one workload.
EXACT_COUNTS = ("criteria.criterion_statistic.calls", "chaos.gamma_sequence.calls",
                "chaos.coeffs_stored", "chaos.peak_order", "chaos.evaluate.rows",
                "sym_tensor.symmetrize.calls", "sym_tensor.elem_ops",
                "montecarlo.cdf_nodes", "montecarlo.samples")
