"""The weight family t^p log^q(1+t) log^r(1+log(1+t)) and its curvature certificates.

Derivatives are hand-derived closed forms (three nested logs keep them short);
a finite-difference contract in the test suite guards them.  log1p is used
throughout so small arguments do not lose digits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateParams, InvalidInput, NegativeArgument
from .numgrid import WeightedMeasure

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
    """Weight value t^p log^q(1+t) log^r(1+log(1+t)); zero at t = 0."""
    return _weight(_as_nonneg(t), params.p, params.q, params.r)


def phi_d1(params: YoungParams, t: ArrayLike) -> np.ndarray:
    """First derivative of the weight, t > 0."""
    t = _as_pos(t)
    p, q, r = params.p, params.q, params.r
    L1 = np.log1p(t)
    L2 = np.log1p(L1)
    out = p * t ** (p - 1) * L1**q * L2**r
    if q:
        out = out + q * t**p * L1 ** (q - 1) * L2**r / (1 + t)
    if r:
        out = out + r * t**p * L1**q * L2 ** (r - 1) / ((1 + t) * (1 + L1))
    return out


def phi_d2(params: YoungParams, t: ArrayLike) -> np.ndarray:
    """Second derivative of the weight, t > 0."""
    t = _as_pos(t)
    p, q, r = params.p, params.q, params.r
    L1 = np.log1p(t)
    L2 = np.log1p(L1)
    u = 1 + t
    v = 1 + L1
    out = np.zeros_like(t)
    if p != 1:
        out = out + p * (p - 1) * t ** (p - 2) * L1**q * L2**r
    if q:
        out = out + 2 * p * q * t ** (p - 1) * L1 ** (q - 1) * L2**r / u
        out = out - q * t**p * L1 ** (q - 1) * L2**r / u**2
        if q != 1:
            out = out + q * (q - 1) * t**p * L1 ** (q - 2) * L2**r / u**2
    if r:
        out = out + 2 * p * r * t ** (p - 1) * L1**q * L2 ** (r - 1) / (u * v)
        out = out - r * t**p * L1**q * L2 ** (r - 1) / (u**2 * v)
        out = out - r * t**p * L1**q * L2 ** (r - 1) / (u**2 * v**2)
        if r != 1:
            out = out + r * (r - 1) * t**p * L1**q * L2 ** (r - 2) / (u**2 * v**2)
    if q and r:
        out = out + 2 * q * r * t**p * L1 ** (q - 1) * L2 ** (r - 1) / (u**2 * v)
    return out


def phi_compose_d2(params: YoungParams, t: ArrayLike) -> np.ndarray:
    """Second derivative of t -> phi(t^(1/p)), the convexity witness used
    by the norm bound with an integral hypothesis."""
    t = _as_pos(t)
    p = params.p
    s = t ** (1.0 / p)
    return phi_d2(params, s) * s**2 / (p**2 * t**2) + phi_d1(params, s) * s * (
        1.0 / p - 1.0
    ) / (p * t**2)


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
    d2 = phi_d2(params, t)
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
