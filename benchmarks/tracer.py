"""Span tracer that wraps the vemse package's public functions from outside.

Nothing in the package is edited. ``Tracer.install`` replaces each traced
function at every place it is bound when the tracer starts: module
attributes (``vemse.cli.vemse``, ``vemse.experiments.vemse``, the
package's own re-export, ...) and values of module-level dicts (the CLI's
``_RUNNERS`` table holds ``run_surrogate`` directly). ``uninstall`` puts
the originals back. Spans live in memory and are written out at the end.
"""
from __future__ import annotations

import inspect
import json
import os
import sys
import time

# (layer, function) pairs; the layer is the vemse module that defines it.
TRACED = (
    ("cli", "main"),
    ("cli", "run_surrogate"),
    ("dataio", "load_record"),
    ("dataio", "read_result"),
    ("dataio", "write_result"),
    ("estimators", "vemse"),
    ("estimators", "mmse"),
    ("estimators", "coarse_grain"),
    ("estimators", "resolve_tolerance"),
    ("experiments", "run_sweep"),
    ("experiments", "realize_bundle"),
    ("signals", "shuffle_surrogate"),
)


def vemse_pairs(n, p, m, lag, scales, equal_template_count=False):
    """Ordered template pairs T(T-1) that ``vemse`` hands to its pair counter.

    Mirrors the pass structure of ``estimators._curve_point``: per scale and
    channel c a pass at dimension m+c and one at m+c+1, stopping at the
    first channel where either pass has fewer than two templates.
    """
    total = 0
    for tau in scales:
        nt = n // tau
        for c in range(p):
            dim = m + c
            t_lo = nt - (dim - 1) * lag
            t_hi = nt - dim * lag
            if equal_template_count:
                t_lo = min(t_lo, t_hi)
            for t in (t_lo, t_hi):
                if t >= 2:
                    total += t * (t - 1)
            if t_lo < 2 or t_hi < 2:
                break
    return total


def mmse_pairs(n, dims, lags, scales):
    """Ordered template pairs T(T-1) over the P+1 composite-vector passes of ``mmse``."""
    total = 0
    for tau in scales:
        nt = n // tau
        for bump in range(-1, len(dims)):
            d = [m + (c == bump) for c, m in enumerate(dims)]
            t = nt - max(d) * max(lags)
            if t < 2:
                break
            total += t * (t - 1)
    return total


def _channels_shape(data):
    """(P, N) of a MultichannelSeries or of the array an estimator wraps in one."""
    import numpy as np

    shape = np.shape(getattr(data, "channels", data))
    return (1,) + shape if len(shape) == 1 else shape


def _curve_counts(curve):
    values = curve.values
    return {"points": len(values), "defined": sum(v is not None for v in values)}


def _facts_vemse(a, result):
    p, n = _channels_shape(a["data"])
    params = a["params"]
    return dict(_curve_counts(result), pairs=vemse_pairs(
        n, p, params.m, params.L, params.scales, a["equal_template_count"]))


def _facts_mmse(a, result):
    p, n = _channels_shape(a["data"])
    lags = a["lags"] or [1] * p
    return dict(_curve_counts(result), pairs=mmse_pairs(
        n, [int(d) for d in a["dims"]], [int(l) for l in lags], [int(s) for s in a["scales"]]))


def _facts_read_result(a, result):
    return {"rows": len(result.rows), "bytes": os.path.getsize(a["path"])}


def _facts_write_result(a, result):
    return {"bytes": os.path.getsize(a["path"])}


def _facts_load_record(a, result):
    return {"rows_kept": result.n_samples}


# Counts taken at the boundary of a call, from its bound arguments and result.
FACTS = {
    "estimators.vemse": _facts_vemse,
    "estimators.mmse": _facts_mmse,
    "dataio.read_result": _facts_read_result,
    "dataio.write_result": _facts_write_result,
    "dataio.load_record": _facts_load_record,
}


class Tracer:
    """Records one span per traced call: name, parent span, op, start, end, counts."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self._patches = []

    def _wrap(self, name, func):
        facts = FACTS.get(name)
        signature = inspect.signature(func)
        spans = self.spans
        stack = self._stack

        def traced(*args, **kwargs):
            span = {"id": len(spans), "parent": stack[-1] if stack else None,
                    "name": name, "op": self.op}
            spans.append(span)
            stack.append(span["id"])
            span["t0"] = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span["t1"] = time.perf_counter()
                stack.pop()
            if facts is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span["counts"] = facts(bound.arguments, result)
            return result

        traced.__wrapped__ = func
        return traced

    def install(self):
        """Wrap every TRACED function wherever a vemse module binds it."""
        modules = [m for key, m in sys.modules.items()
                   if key == "vemse" or key.startswith("vemse.")]
        for layer, fname in TRACED:
            original = getattr(sys.modules["vemse." + layer], fname)
            wrapper = self._wrap("%s.%s" % (layer, fname), original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((vars(module), attr, original))
                        setattr(module, attr, wrapper)
                    elif type(value) is dict:
                        for key, item in list(value.items()):
                            if item is original:
                                self._patches.append((value, key, original))
                                value[key] = wrapper

    def uninstall(self):
        for container, key, original in reversed(self._patches):
            container[key] = original
        self._patches.clear()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans):
    """Self time of each span: its duration minus the durations of its children.

    Calls on one thread nest, so the children of a span never overlap and
    the sum of their durations is the part of the interval they cover.
    """
    child = [0.0] * len(spans)
    index = {s["id"]: i for i, s in enumerate(spans)}
    for s in spans:
        if s["parent"] is not None and s["parent"] in index:
            child[index[s["parent"]]] += s["t1"] - s["t0"]
    return [s["t1"] - s["t0"] - c for s, c in zip(spans, child)]


def op_totals(spans):
    """Per op, per span name: calls, self seconds, summed counts.

    Also sums read_result rows parsed under load_record, the base of
    ``dataio.rows_kept_ratio``.
    """
    selfs = self_times(spans)
    names = {s["id"]: s["name"] for s in spans}
    ops = {}
    for s, own in zip(spans, selfs):
        per = ops.setdefault(s["op"], {})
        tot = per.setdefault(s["name"], {"calls": 0, "self_s": 0.0})
        tot["calls"] += 1
        tot["self_s"] += own
        for key, value in s.get("counts", {}).items():
            tot[key] = tot.get(key, 0) + value
        if s["name"] == "dataio.read_result" and \
                names.get(s["parent"]) == "dataio.load_record":
            # the parent span was recorded first, so its totals exist
            rec = per["dataio.load_record"]
            rec["rows_parsed"] = rec.get("rows_parsed", 0) + s["counts"]["rows"]
    return ops
