"""Quadrature grids, weighted measures, monotone bisection and the C^2 jet carrier.

Everything downstream works over two discrete stand-ins: a ``WeightedMeasure``
(nodes + positive weights, the discrete measure space) and a ``SmoothFn``
(a C^2 function on an interval, given by one jet map t -> (f, f', f'') so a
single evaluation yields all three derivatives, as in Taylor-mode forward
differentiation).  ``piecewise`` assembles a jet branch by branch, evaluating
each branch only on its own points.  All reductions use a fixed pairwise tree
so results are bit-stable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import InvalidInput, NoBracket, NonFinite

ArrayLike = Sequence[float] | np.ndarray

_MAX_BISECT_ITERS = 500


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

    def contains(self, t: float, slack: float = 0.0) -> bool:
        return self.lo - slack <= t <= self.hi + slack


@dataclass(frozen=True)
class WeightedMeasure:
    """Finite positive measure: strictly increasing nodes with positive weights."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        if nodes.ndim != 1 or weights.shape != nodes.shape:
            raise InvalidInput("nodes and weights must be 1-D arrays of equal length")
        if nodes.size == 0:
            raise InvalidInput("measure needs at least one node")
        if not np.all(np.diff(nodes) > 0):
            raise InvalidInput("nodes must be strictly increasing")
        if not np.all(weights > 0):
            raise InvalidInput("weights must all be positive")
        if not np.isfinite(self.mass) or self.mass <= 0:
            raise NonFinite("total mass must be finite and positive")

    @property
    def mass(self) -> float:
        return pairwise_sum(self.weights)


def merge_measures(*measures: WeightedMeasure) -> WeightedMeasure:
    """Concatenate measures whose node ranges are disjoint and ordered."""
    nodes = np.concatenate([m.nodes for m in measures])
    weights = np.concatenate([m.weights for m in measures])
    order = np.argsort(nodes, kind="stable")
    return WeightedMeasure(nodes[order], weights[order])


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

    @classmethod
    def from_callable(cls, measure: WeightedMeasure, fn: Callable) -> "GridFn":
        return cls(measure, np.asarray(fn(measure.nodes), dtype=float))


def integrate(f: GridFn) -> float:
    """Integral of a grid function: sum of weight * value, fixed reduction order."""
    prod = f.measure.weights * f.values
    if np.any(np.isnan(prod)):
        raise NonFinite("NaN in integrand")
    return pairwise_sum(prod)


def _gauss_panels(edges: np.ndarray, order: int) -> WeightedMeasure:
    """Gauss-Legendre rule of the given order on each panel between edges."""
    if not 2 <= order <= 64:
        raise InvalidInput("order must lie in {2..64}")
    x, w = np.polynomial.legendre.leggauss(order)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return WeightedMeasure(nodes, weights)


def gauss_measure(interval: Interval, panels: int, order: int) -> WeightedMeasure:
    """Composite Gauss-Legendre rule: `panels` equal panels of the given order."""
    if panels < 1:
        raise InvalidInput("panels must be >= 1")
    return _gauss_panels(np.linspace(interval.lo, interval.hi, panels + 1), order)


def geometric_gauss_measure(interval: Interval, panels: int = 40,
                            order: int = 16) -> WeightedMeasure:
    """Composite Gauss-Legendre with panel widths halving toward lo.

    Suited to integrands that vary on a logarithmic scale near the left
    endpoint; the panel adjacent to lo has width ~ length / 2**panels.
    """
    if panels < 1:
        raise InvalidInput("panels must be >= 1")
    k = np.arange(panels + 1, dtype=float)
    return _gauss_panels(
        interval.lo + interval.length * (2.0**k - 1.0) / (2.0**panels - 1.0), order)


def bisect_monotone(
    g: Callable[[float], float],
    lo: float,
    hi: float,
    *,
    target: float = 0.0,
    direction: str = "increasing",
    tol: float = 1e-10,
) -> float:
    """Solve g(c) = target on [lo, hi] for monotone g by plain bisection.

    Returns the bracket midpoint once the bracket width is <= tol.  Raises
    NoBracket when the endpoints do not straddle the target and NonFinite when
    g produces NaN inside the bracket.
    """
    if direction not in ("increasing", "decreasing"):
        raise InvalidInput("direction must be 'increasing' or 'decreasing'")
    if not (lo < hi):
        raise InvalidInput("need lo < hi")
    sign = 1.0 if direction == "increasing" else -1.0

    def shifted(c: float) -> float:
        v = g(c)
        if np.isnan(v):
            raise NonFinite(f"g({c}) is NaN")
        return sign * (v - target)

    flo, fhi = shifted(lo), shifted(hi)
    if flo > 0 or fhi < 0:
        raise NoBracket(
            f"g does not bracket target {target} on [{lo}, {hi}] ({direction})"
        )
    for _ in range(_MAX_BISECT_ITERS):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if shifted(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


Jet = tuple[np.ndarray, np.ndarray, np.ndarray]


@dataclass(frozen=True)
class SmoothFn:
    """C^2 function carrier: one jet map t -> (f(t), f'(t), f''(t)).

    The interval marks the nominal domain (the piece an operation acts on);
    the jet itself is expected to evaluate on a neighbourhood of it so that
    one-sided constructions can probe slightly outside.  The jet receives a
    1-D float array and returns three arrays of its shape.
    """

    domain: Interval
    jet: Callable[[np.ndarray], Jet] = field(repr=False)
    name: str = ""

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


def piecewise(t: np.ndarray,
              branches: Sequence[tuple[np.ndarray, Callable[[np.ndarray], Jet]]]) -> Jet:
    """Jet of a function given branch by branch as (mask, jet) pairs.

    Each branch jet sees only t[mask] and may return scalars; masks are
    disjoint, and points no mask covers come out NaN.
    """
    t = np.asarray(t, dtype=float)
    out = tuple(np.full_like(t, np.nan) for _ in range(3))
    for mask, jet in branches:
        if np.any(mask):
            for o, v in zip(out, jet(t[mask])):
                o[mask] = v
    return out


@dataclass(frozen=True)
class ConsistencyReport:
    ok: bool
    worst_d1_err: float
    worst_d2_err: float
    n_probes: int


def check_derivative_consistency(
    fn: SmoothFn, n_probes: int = 64, rtol: float = 1e-5
) -> ConsistencyReport:
    """Central finite differences of f vs f' and f' vs f''.

    Step is 1e-5 * scale (scale from the domain endpoints, capped by the
    domain length); the error is measured relative to the sup of the exact
    derivative over the probe grid, so zero crossings do not inflate it.
    """
    dom = fn.domain
    scale = max(1.0, abs(dom.lo), abs(dom.hi))
    h = min(1e-5 * scale, dom.length / 8.0)
    t = np.linspace(dom.lo + h, dom.hi - h, n_probes)

    def sup_rel_err(approx: np.ndarray, exact: np.ndarray) -> float:
        denom = max(float(np.max(np.abs(approx))), float(np.max(np.abs(exact))), 1e-12)
        return float(np.max(np.abs(approx - exact)) / denom)

    f0_hi, f1_hi, _ = fn.eval(t + h)
    f0_lo, f1_lo, _ = fn.eval(t - h)
    _, f1, f2 = fn.eval(t)
    e1 = sup_rel_err((f0_hi - f0_lo) / (2 * h), f1)
    e2 = sup_rel_err((f1_hi - f1_lo) / (2 * h), f2)

    return ConsistencyReport(ok=(e1 <= rtol and e2 <= rtol), worst_d1_err=e1,
                             worst_d2_err=e2, n_probes=n_probes)

