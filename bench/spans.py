"""Span recorder for the traced benchmark run, and the per-layer metrics
derived from its spans.

Spans are recorded from outside the program: ``Recorder.install`` replaces
every public function of the layer modules, in every luxglue namespace that
bound it (``radialpsh`` and ``cli`` import names such as ``glue`` and
``luxemburg_norm`` directly), plus ``SmoothFn.d0/d1/d2`` at class level.
Each span is ``[name, start, end, parent, op, value, key]``: ``parent`` is
the index of the enclosing span (-1 for an op's root), ``value`` a number
read from the call (points evaluated, pairs scanned, ...) and ``key`` the
carrier name of a ``SmoothFn`` evaluation.  Spans stay in memory until the
run ends.
"""

from __future__ import annotations

import functools
import math
import sys
import time
import types
from collections import defaultdict
from typing import Callable

import numpy as np

LAYERS = ("numgrid", "youngfn", "orlicz", "degiorgi", "gluing", "radialpsh", "cli")

NAME, START, END, PARENT, OP, VALUE, KEY = range(7)


def _size(args, _kwargs, _result) -> float:
    return float(np.size(args[1]))


def _delta_j(args, _kwargs, delta) -> float:
    problem = args[0]
    return math.log2((problem.right.interval.lo - problem.left.interval.hi) / delta)


def _eps(args, _kwargs, _result) -> float:
    return args[0].eps


def _pairs(_args, _kwargs, report) -> float:
    return float(report.pairs_checked)


# Numbers read from a call when its span closes.
_VALUES = {
    "youngfn.phi": _size,
    "gluing.delta_search": _delta_j,
    "radialpsh.build_v_eps": _eps,
    "radialpsh.appendix_c_bounds": _eps,
    "degiorgi.check_hypothesis": _pairs,
}


def _carrier_span(args) -> str:
    return "gluing.h_eval" if args[0].name.startswith("glue[") else "numgrid.smoothfn_eval"


class Recorder:
    """Collects spans while installed; ``run_op`` opens the root span of an op."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = -1
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str | Callable, fn: Callable,
             value: Callable | None = None, key: Callable | None = None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name(args) if callable(name) else name, clock(), 0.0,
                    stack[-1] if stack else -1, self._op, 0.0,
                    key(args) if key else ""]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[END] = clock()
            if value is not None:
                span[VALUE] = value(args, kwargs, result)
            return result

        return wrapper

    def run_op(self, op_id: int, fn: Callable, *args):
        """Call fn(*args) under the root span of op op_id."""
        self._op = op_id
        try:
            return self.wrap("op", fn)(*args)
        finally:
            self._op = -1

    def install(self) -> None:
        from luxglue import numgrid

        namespaces = [m for n, m in sys.modules.items()
                      if (n == "luxglue" or n.startswith("luxglue.")) and m is not None]
        for layer in LAYERS:
            mod = sys.modules[f"luxglue.{layer}"]
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not isinstance(fn, types.FunctionType)
                        or fn.__module__ != mod.__name__):
                    continue
                name = "cli.cmd" if layer == "cli" and attr.startswith("cmd_") else f"{layer}.{attr}"
                wrapper = self.wrap(name, fn, _VALUES.get(name))
                for ns in namespaces:
                    for bound, obj in list(vars(ns).items()):
                        if obj is fn:
                            self._undo.append((ns, bound, fn))
                            setattr(ns, bound, wrapper)
        for attr in ("d0", "d1", "d2"):
            fn = vars(numgrid.SmoothFn)[attr]
            self._undo.append((numgrid.SmoothFn, attr, fn))
            setattr(numgrid.SmoothFn, attr,
                    self.wrap(_carrier_span, fn, _size, key=lambda args: args[0].name))

    def uninstall(self) -> None:
        while self._undo:
            ns, attr, fn = self._undo.pop()
            setattr(ns, attr, fn)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s[PARENT] >= 0:
            children[s[PARENT]].append((s[START], s[END]))
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s[START]
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, reach), min(hi, s[END])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s[END] - s[START] - covered)
    return out


def _inside(spans: list[list], names: set[str]) -> list[bool]:
    """Whether each span has an ancestor whose name is in `names`."""
    flags: list[bool] = []
    for s in spans:  # a parent is always recorded before its children
        p = s[PARENT]
        flags.append(p >= 0 and (flags[p] or spans[p][NAME] in names))
    return flags


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[list]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics (name -> (value, unit)) of a traced run.

    Times and counts are totals over the traced ops; a ratio whose
    denominator is zero on a workload (the layer does no such work) is 0.
    """
    selfs = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    value: dict[str, float] = defaultdict(float)
    layer_s: dict[str, float] = defaultdict(float)
    for s, own in zip(spans, selfs):
        calls[s[NAME]] += 1
        self_s[s[NAME]] += own
        value[s[NAME]] += s[VALUE]
        layer_s[s[NAME].split(".")[0]] += own

    in_glue = _inside(spans, {"gluing.glue"})
    in_h_eval = _inside(spans, {"gluing.h_eval"})
    in_norm = _inside(spans, {"orlicz.luxemburg_norm"})
    outer_glues = sum(1 for s, f in zip(spans, in_glue) if s[NAME] == "gluing.glue" and not f)
    h_points = sum(s[VALUE] for s, f in zip(spans, in_h_eval)
                   if s[NAME] == "gluing.h_eval" and not f)
    objective_evals = sum(1 for s, f in zip(spans, in_norm) if s[NAME] == "youngfn.phi" and f)
    eps_seen = {(s[OP], s[VALUE]) for s in spans if s[NAME] in
                ("radialpsh.build_v_eps", "radialpsh.appendix_c_bounds")}

    def count(name: str) -> tuple[float, str]:
        return calls[name], "count"

    def busy(name: str) -> tuple[float, str]:
        return self_s[name], "s"

    def ns_per(name: str, per: float) -> tuple[float, str]:
        return 1e9 * _ratio(self_s[name], per), "ns"

    m: dict[str, tuple[float, str]] = {
        "gluing.glue.calls": count("gluing.glue"),
        "gluing.glue.self_s": busy("gluing.glue"),
        "gluing.delta_search.self_s": busy("gluing.delta_search"),
        "gluing.delta_search.j_mean": (_ratio(value["gluing.delta_search"],
                                              calls["gluing.delta_search"]), "steps"),
        "gluing.h_eval.points": (h_points, "count"),
        "gluing.h_eval.self_s": busy("gluing.h_eval"),
        "gluing.h_eval.ns_per_point": ns_per("gluing.h_eval", h_points),
        "radialpsh.glues_per_eps": (_ratio(outer_glues, len(eps_seen)), "ratio"),
        "radialpsh.build_v_eps.self_s": busy("radialpsh.build_v_eps"),
        "radialpsh.density_ratio.self_s": busy("radialpsh.density_ratio"),
        "radialpsh.appendix_c_bounds.self_s": busy("radialpsh.appendix_c_bounds"),
        "radialpsh.chart_measure.calls": count("radialpsh.chart_measure"),
        "orlicz.luxemburg_norm.calls": count("orlicz.luxemburg_norm"),
        "orlicz.luxemburg_norm.self_s": busy("orlicz.luxemburg_norm"),
        "orlicz.objective_evals_per_solve": (_ratio(objective_evals,
                                                    calls["orlicz.luxemburg_norm"]), "ratio"),
        "orlicz.entropy.self_s": busy("orlicz.entropy"),
        "youngfn.phi.calls": count("youngfn.phi"),
        "youngfn.phi.points": (value["youngfn.phi"], "count"),
        "youngfn.phi.ns_per_point": ns_per("youngfn.phi", value["youngfn.phi"]),
        "numgrid.pairwise_sum.calls": count("numgrid.pairwise_sum"),
        "numgrid.pairwise_sum.self_s": busy("numgrid.pairwise_sum"),
        "numgrid.smoothfn_eval.calls": count("numgrid.smoothfn_eval"),
        "numgrid.smoothfn_eval.points": (value["numgrid.smoothfn_eval"], "count"),
        "numgrid.check_derivative_consistency.self_s":
            busy("numgrid.check_derivative_consistency"),
        "degiorgi.check_hypothesis.calls": count("degiorgi.check_hypothesis"),
        "degiorgi.check_hypothesis.self_s": busy("degiorgi.check_hypothesis"),
        "degiorgi.pairs_checked": (value["degiorgi.check_hypothesis"], "count"),
        "degiorgi.ns_per_pair": ns_per("degiorgi.check_hypothesis",
                                       value["degiorgi.check_hypothesis"]),
        "degiorgi.scans_per_simulation": (_ratio(calls["degiorgi.check_hypothesis"],
                                                 calls["degiorgi.simulate_vanishing"]), "ratio"),
        "cli.cmd.self_s": busy("cli.cmd"),
        "cli.emit_report.self_s": busy("cli.emit_report"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (layer_s[layer], "s")
    return m
