"""Quadrature grids, weighted measures, the C^2 jet carrier and the verdict
record every checked claim is reported as.

Everything downstream works over two discrete stand-ins: a ``WeightedMeasure``
(nodes + positive weights, the discrete measure space) and a ``SmoothFn``
(a C^2 function on an interval, given by one jet map t -> (f, f', f'') so a
single evaluation yields all three derivatives, as in Taylor-mode forward
differentiation).  ``piecewise`` assembles a jet over a sorted table of edges
with one searchsorted, evaluating each segment only on its own points.  All
reductions use a fixed pairwise tree so results are bit-stable.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import InvalidInput, NonFinite

ArrayLike = Sequence[float] | np.ndarray

_FD_RTOL = 1e-5  # finite-difference agreement check_derivative_consistency asks

# Multiplicative slack absorbing quadrature and gauge-norm error in all
# inequality verdicts.
INEQ_SLACK = 1e-8


@dataclass(frozen=True)
class Verdict:
    """One checked claim of a report: whether it passed, its two sides and
    the slack its rule allows.  The fields are cast as the report prints
    them, so ``dataclasses.asdict`` is the report's verdict object."""

    name: str
    passed: bool
    lhs: float
    rhs: float
    tol: float

    def __post_init__(self) -> None:
        for attr, cast in (("passed", bool), ("lhs", float), ("rhs", float), ("tol", float)):
            object.__setattr__(self, attr, cast(getattr(self, attr)))


def pairwise_sums(a: np.ndarray) -> np.ndarray:
    """Sums along the first axis with a deterministic pairwise reduction tree:
    one sum per column of a 2-D array.

    An odd last element is carried up a level unchanged, which is the same
    as pairing it with 0.0; so a column padded with zeros sums to the same
    bits.
    """
    if a.ndim == 2 and a.shape[1] == 1:  # one column: a 1-D view sums faster
        return pairwise_sums(a[:, 0])[None]
    while len(a) > 1:
        if len(a) % 2:
            a = np.concatenate([a[:-1:2] + a[1::2], a[-1:]])
        else:
            a = a[::2] + a[1::2]
    return a[0]


def pairwise_sum(a: np.ndarray) -> float:
    """Sum with a deterministic pairwise reduction tree."""
    a = np.asarray(a, dtype=float).ravel()
    return float(pairwise_sums(a)) if a.size else 0.0


@dataclass(frozen=True)
class Interval:
    """Closed interval [lo, hi] with lo < hi, both finite."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not (np.isfinite(self.lo) and np.isfinite(self.hi)):
            raise InvalidInput("interval endpoints must be finite")
        if not self.lo < self.hi:
            raise InvalidInput(f"need lo < hi, got [{self.lo}, {self.hi}]")

    @property
    def length(self) -> float:
        return self.hi - self.lo


@dataclass(frozen=True)
class WeightedMeasure:
    """Finite positive measure: finite, strictly increasing nodes; finite positive weights."""

    nodes: np.ndarray
    weights: np.ndarray
    mass: float = field(init=False, repr=False, compare=False)  # pairwise sum of the weights

    def __post_init__(self) -> None:
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        if nodes.ndim != 1 or weights.shape != nodes.shape:
            raise InvalidInput("nodes and weights must be 1-D arrays of equal length")
        if nodes.size == 0:
            raise InvalidInput("measure needs at least one node")
        if not (np.all(np.isfinite(nodes)) and np.all(np.diff(nodes) > 0)):
            raise InvalidInput("nodes must be finite and strictly increasing")
        if not np.all((weights > 0) & (weights < np.inf)):
            raise InvalidInput("weights must all be positive and finite")
        with np.errstate(over="ignore"):  # an overflowed mass is the NonFinite below
            object.__setattr__(self, "mass", pairwise_sum(weights))
        if not np.isfinite(self.mass) or self.mass <= 0:
            raise NonFinite("total mass must be finite and positive")


@dataclass(frozen=True)
class GridFn:
    """Function sampled on the nodes of a weighted measure."""

    measure: WeightedMeasure
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.shape != self.measure.nodes.shape:
            raise InvalidInput("one value per node required")


def integrate(f: GridFn) -> float:
    """Integral of a grid function: sum of weight * value, fixed reduction order."""
    prod = f.measure.weights * f.values
    if np.any(np.isnan(prod)):
        raise NonFinite("NaN in integrand")
    return pairwise_sum(prod)


@functools.cache
def gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], read-only, computed once per order."""
    x, w = np.polynomial.legendre.leggauss(order)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _gauss_panels(edges: np.ndarray, order: int) -> WeightedMeasure:
    """Gauss-Legendre rule of the given order on each panel between edges."""
    if not (isinstance(order, (int, np.integer)) and 2 <= order <= 64):
        raise InvalidInput("order must lie in {2..64}")
    x, w = gauss_legendre(order)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return WeightedMeasure(nodes, weights)


def gauss_measure(interval: Interval, panels: int, order: int) -> WeightedMeasure:
    """Composite Gauss-Legendre rule: `panels` equal panels of the given order."""
    if not (isinstance(panels, (int, np.integer)) and panels >= 1):
        raise InvalidInput(f"panels must be an integer >= 1, got {panels}")
    return _gauss_panels(np.linspace(interval.lo, interval.hi, panels + 1), order)


def geometric_gauss_measure(interval: Interval, panels: int = 40,
                            order: int = 16) -> WeightedMeasure:
    """Composite Gauss-Legendre with panel widths halving toward lo.

    Suited to integrands that vary on a logarithmic scale near the left
    endpoint; the panel adjacent to lo has width ~ length / 2**panels, so
    panels stops at 1023, where 2**panels still fits a float.
    """
    if not (isinstance(panels, (int, np.integer)) and 1 <= panels <= 1023):
        raise InvalidInput(f"panels must be an integer in {{1..1023}}, got {panels}")
    k = np.arange(panels + 1, dtype=float)
    return _gauss_panels(
        interval.lo + interval.length * (2.0**k - 1.0) / (2.0**panels - 1.0), order)


Jet = tuple[np.ndarray, np.ndarray, np.ndarray]


@dataclass(frozen=True)
class SmoothFn:
    """C^2 function carrier: one jet map t -> (f(t), f'(t), f''(t)).

    The interval is the nominal domain (the piece an operation acts on);
    the jet itself is expected to evaluate on a neighbourhood of it so that
    one-sided constructions can probe slightly outside.  The jet receives a
    1-D float array and returns three arrays of its shape, the same ones for
    the same points on every call, so a product of it may be kept.
    """

    interval: Interval
    jet: Callable[[np.ndarray], Jet] = field(repr=False)
    name: str = ""
    # products that depend on nothing but this function (gluing keeps its
    # probes and tables here), so they live exactly as long as it does
    _kept: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def eval(self, t: ArrayLike) -> Jet:
        """(f, f', f'') at t, each shaped like t."""
        arr = np.asarray(t, dtype=float)
        return tuple(np.asarray(v, dtype=float).reshape(arr.shape)
                     for v in self.jet(np.atleast_1d(arr)))

    def d0(self, t: ArrayLike) -> np.ndarray:
        return self.eval(t)[0]

    def d1(self, t: ArrayLike) -> np.ndarray:
        return self.eval(t)[1]

    def d2(self, t: ArrayLike) -> np.ndarray:
        return self.eval(t)[2]


def piecewise(t: np.ndarray, edges: Sequence[float],
              jets: Sequence[Callable[[np.ndarray], Jet]]) -> Jet:
    """Jet of a function of a 1-D t given by one jet per segment of the sorted
    edges.  An even edge closes the segment on its left and an odd one the
    segment on its right, so edges (b, a) cut t <= b, b < t < a and t >= a.
    One searchsorted of the edges in t, stably sorted, finds every segment's
    points; NaN lies in none and comes out NaN.  Each jet sees its own points
    in the order of t and may return scalars; a segment whose points are one
    run of t gets a view of t (so a jet must not write into its argument)."""
    t = np.asarray(t, dtype=float)
    cut = np.append(np.asarray(edges, dtype=float), np.nan)
    cut[::2] = np.nextafter(cut[::2], np.inf)  # t > an even edge, t >= an odd one
    ascending = bool((t[1:] >= t[:-1]).all())  # no NaN but a lone one: its own sort
    order = np.arange(t.size) if ascending else np.argsort(t, kind="stable")  # NaN last
    # an even edge equal to the next odd one keeps that point on its left
    ends = np.searchsorted(t if ascending else t[order], np.maximum.accumulate(cut))
    out, lo = np.full((3, t.size), np.nan), 0
    for jet, hi in zip(jets, ends):
        at, lo = order[lo:hi] if ascending else np.sort(order[lo:hi]), hi
        if not at.size:
            continue
        if at[-1] - at[0] + 1 == at.size:
            at = slice(at[0], at[-1] + 1)
        for o, v in zip(out, jet(t[at])):
            o[at] = v
    return tuple(out)


@dataclass(frozen=True)
class ConsistencyReport:
    ok: bool
    worst_d1_err: float
    worst_d2_err: float


def check_derivative_consistency(fn: SmoothFn, n_probes: int = 64) -> ConsistencyReport:
    """Central finite differences of f vs f' and f' vs f''; ok iff both
    errors are <= 1e-5.

    Step is 1e-5 * scale (scale from the domain endpoints, capped by the
    domain length); the error is measured relative to the sup of the exact
    derivative over the probe grid, so zero crossings do not inflate it.
    """
    dom = fn.interval
    scale = max(1.0, abs(dom.lo), abs(dom.hi))
    h = min(1e-5 * scale, dom.length / 8.0)
    t = np.linspace(dom.lo + h, dom.hi - h, n_probes)

    def sup_rel_err(approx: np.ndarray, exact: np.ndarray) -> float:
        denom = max(float(np.max(np.abs(approx))), float(np.max(np.abs(exact))), 1e-12)
        return float(np.max(np.abs(approx - exact)) / denom)

    # one jet call on the 3 x n_probes grid of t + h, t - h and t
    (f0_hi, f0_lo, _), (f1_hi, f1_lo, f1), (_, _, f2) = (
        v.reshape(3, n_probes) for v in fn.eval(np.concatenate([t + h, t - h, t])))
    e1 = sup_rel_err((f0_hi - f0_lo) / (2 * h), f1)
    e2 = sup_rel_err((f1_hi - f1_lo) / (2 * h), f2)

    return ConsistencyReport(ok=(e1 <= _FD_RTOL and e2 <= _FD_RTOL), worst_d1_err=e1,
                             worst_d2_err=e2)

