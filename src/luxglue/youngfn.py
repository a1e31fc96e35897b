"""The weight family t^p log^q(1+t) log^r(1+log(1+t)) and its curvature certificates.

Derivatives are hand-derived closed forms (three nested logs keep them short),
evaluated together by ``phi_jet``; a finite-difference contract in the test
suite guards them.  log1p is used throughout so small arguments do not lose
digits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateParams, InvalidInput, NegativeArgument
from .numgrid import Jet, WeightedMeasure

ArrayLike = float | np.ndarray


@dataclass(frozen=True)
class YoungParams:
    """Exponent triple (p, q, r) with p >= 1 and q, r >= 0."""

    p: float
    q: float = 0.0
    r: float = 0.0

    def __post_init__(self) -> None:
        if not (np.isfinite(self.p) and self.p >= 1):
            raise InvalidInput("p must be finite and >= 1")
        if not (np.isfinite(self.q) and self.q >= 0):
            raise InvalidInput("q must be finite and >= 0")
        if not (np.isfinite(self.r) and self.r >= 0):
            raise InvalidInput("r must be finite and >= 0")

    @property
    def degenerate(self) -> bool:
        """True only for the linear member (p, q, r) = (1, 0, 0)."""
        return self.p == 1.0 and self.q == 0.0 and self.r == 0.0


def _as_nonneg(t: ArrayLike) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise NegativeArgument("argument must be >= 0")
    return t


def _as_pos(t: ArrayLike) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0):
        raise NegativeArgument("derivative formulas need t > 0")
    return t


# numpy raises an array to the scalar exponents 2 and 0.5 by square and sqrt,
# which pow misses by an ulp on a few percent of arguments; a vector of
# exponents takes the same route on the columns that hold one.
_SHORTCUTS = {2.0: np.square, 0.5: np.sqrt}


def _power(t: np.ndarray, e) -> np.ndarray:
    out = t**e
    if isinstance(e, np.ndarray):
        for value, fn in _SHORTCUTS.items():
            cols = e == value
            if cols.any():
                out[:, cols] = fn(t[:, cols])
    return out


def _weight(t: np.ndarray, p, q, r) -> np.ndarray:
    """t^p log^q(1+t) log^r(1+log(1+t)) with scalar exponents, or with
    vectors of exponents, one per column of a 2-D t.

    Each column has the bits that its own scalar exponents give.  A log
    factor is skipped only when its exponent is 0 in every column: elsewhere
    log^0.0 == 1.0 and x * 1.0 == x, so the skip moves no bit.
    """
    out = _power(t, p)
    q_on = q.any() if isinstance(q, np.ndarray) else q
    r_on = r.any() if isinstance(r, np.ndarray) else r
    if q_on or r_on:
        L1 = np.log1p(t)
        if q_on:
            out = out * _power(L1, q)
        if r_on:
            out = out * _power(np.log1p(L1), r)
    return out


def phi(params: YoungParams, t: ArrayLike) -> np.ndarray:
    """Weight value t^p log^q(1+t) log^r(1+log(1+t)); zero at t = 0.  The
    solver's value-only path: ``phi_jet(params, t)[0]`` has its bits."""
    return _weight(_as_nonneg(t), params.p, params.q, params.r)


def phi_jet(params: YoungParams, t: ArrayLike) -> Jet:
    """Weight value and first two derivatives, t > 0, from one pass over the
    logs and powers; each derivative adds its closed-form terms in a fixed order."""
    t = _as_pos(t)
    p, q, r = params.p, params.q, params.r
    L1 = np.log1p(t)
    L2 = np.log1p(L1)
    u, v = 1 + t, 1 + L1
    tp, tp1 = t**p, t ** (p - 1)
    Lq, Lr = L1**q, L2**r
    d1 = p * tp1 * Lq * Lr
    d2 = np.zeros_like(t)
    if p != 1:
        d2 = d2 + p * (p - 1) * t ** (p - 2) * Lq * Lr
    if q:
        Lq1 = L1 ** (q - 1)
        d1 = d1 + q * tp * Lq1 * Lr / u
        d2 = d2 + 2 * p * q * tp1 * Lq1 * Lr / u
        d2 = d2 - q * tp * Lq1 * Lr / u**2
        if q != 1:
            d2 = d2 + q * (q - 1) * tp * L1 ** (q - 2) * Lr / u**2
    if r:
        Lr1 = L2 ** (r - 1)
        d1 = d1 + r * tp * Lq * Lr1 / (u * v)
        d2 = d2 + 2 * p * r * tp1 * Lq * Lr1 / (u * v)
        d2 = d2 - r * tp * Lq * Lr1 / (u**2 * v)
        d2 = d2 - r * tp * Lq * Lr1 / (u**2 * v**2)
        if r != 1:
            d2 = d2 + r * (r - 1) * tp * Lq * L2 ** (r - 2) / (u**2 * v**2)
    if q and r:
        d2 = d2 + 2 * q * r * tp * Lq1 * Lr1 / (u**2 * v)
    return tp * Lq * Lr, d1, d2


def phi_compose_d2(params: YoungParams, t: ArrayLike) -> np.ndarray:
    """Second derivative of t -> phi(t^(1/p)), the convexity witness used
    by the norm bound with an integral hypothesis."""
    t = _as_pos(t)
    p = params.p
    s = t ** (1.0 / p)
    _, d1, d2 = phi_jet(params, s)
    return d2 * s**2 / (p**2 * t**2) + d1 * s * (1.0 / p - 1.0) / (p * t**2)


@dataclass(frozen=True)
class ConvexityReport:
    params: YoungParams
    min_d2: float
    argmin_d2: float
    min_compose_d2: float | None
    argmin_compose_d2: float | None
    grid_lo: float
    violations: int
    ok: bool


def check_strict_convexity(params: YoungParams, grid: WeightedMeasure) -> ConvexityReport:
    """Minimum of the second derivative (plain and p-th-root-composed) on a grid.

    Raises DegenerateParams for the linear member, whose claim is empty.  The
    composed check applies only when q^2 + r^2 > 0; otherwise that slot is None.
    The report records the smallest grid node: curvature can blow up toward 0
    when q or r lies in (0, 1), so grids exclude a neighbourhood of 0.
    """
    if params.degenerate:
        raise DegenerateParams("(p, q, r) = (1, 0, 0) is linear")
    t = grid.nodes[grid.nodes > 0]
    d2 = phi_jet(params, t)[2]
    i = int(np.argmin(d2))
    violations = int(np.count_nonzero(d2 <= 0))
    min_c: float | None = None
    arg_c: float | None = None
    if params.q > 0 or params.r > 0:
        c2 = phi_compose_d2(params, t)
        j = int(np.argmin(c2))
        min_c, arg_c = float(c2[j]), float(t[j])
        violations += int(np.count_nonzero(c2 <= 0))
    ok = d2[i] > 0 and (min_c is None or min_c > 0)
    return ConvexityReport(
        params=params,
        min_d2=float(d2[i]),
        argmin_d2=float(t[i]),
        min_compose_d2=min_c,
        argmin_compose_d2=arg_c,
        grid_lo=float(t[0]),
        violations=violations,
        ok=bool(ok),
    )


def delta2_constant(params: YoungParams, grid: WeightedMeasure) -> float:
    """Empirical doubling constant sup phi(2t)/phi(t) over positive grid nodes.

    Always <= 2^(p+q+r) because log(1+2t) <= 2 log(1+t) and likewise one level
    deeper.
    """
    t = grid.nodes[grid.nodes > 0]
    return float(np.max(phi(params, 2 * t) / phi(params, t)))
