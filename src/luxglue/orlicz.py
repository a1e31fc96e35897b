"""Gauge norms of the weight family, entropy, and the quantitative inequalities.

The norm of f is the infimum of c > 0 with integral of phi(|f|/c) at most 1.
On a discrete measure the objective is continuous and strictly decreasing in
c for nonzero f, so plain bisection resolves the infimum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateParams, InvalidInput, NegativeDensity, NonFinite,
                     VerificationFailed, ZeroMass)
from .numgrid import GridFn, bisect_monotone, integrate, pairwise_sum
from .youngfn import YoungParams, phi

# Multiplicative slack absorbing quadrature and bisection error in all
# inequality assertions.
INEQ_SLACK = 1e-8

_NORM_TOL = 1e-10  # relative bisection tolerance for the gauge norm


@dataclass(frozen=True)
class LuxemburgResult:
    """Gauge norm plus the objective value it achieves and the final bracket."""

    norm: float
    objective_at_norm: float
    bracket: tuple[float, float]


@dataclass(frozen=True)
class EntropyParams:
    """Entropy scale: weight exponents (1, n, r)."""

    n: int
    r: float = 0.0

    def __post_init__(self) -> None:
        if int(self.n) != self.n or self.n < 1:
            raise InvalidInput("n must be an integer >= 1")
        if self.r < 0:
            raise InvalidInput("r must be >= 0")

    @property
    def young(self) -> YoungParams:
        return YoungParams(1.0, float(self.n), float(self.r))


def _objective(absvals: np.ndarray, weights: np.ndarray, params: YoungParams, c: float) -> float:
    return pairwise_sum(weights * phi(params, absvals / c))


def luxemburg_norm(f: GridFn, params: YoungParams) -> LuxemburgResult:
    """Norm of f for the given weight: bisection on the normalization objective.

    The zero function short-circuits to 0.  The returned norm is the upper
    bracket endpoint, so the objective there is <= 1 by construction.
    """
    vals = np.abs(f.values)
    if np.any(~np.isfinite(vals)):
        raise NonFinite("grid function must have finite values")
    w = f.measure.weights
    vmax = float(np.max(vals))
    if vmax == 0.0:
        return LuxemburgResult(0.0, 0.0, (0.0, 0.0))

    l1 = pairwise_sum(w * vals)
    mass = f.measure.mass
    lo = vmax * 1e-12
    hi = max(l1, vmax) * (1.0 + mass)
    for _ in range(200):
        if _objective(vals, w, params, hi) <= 1.0:
            break
        hi *= 2.0
    else:
        raise NonFinite("objective never dropped below 1; values too large")
    while not _objective(vals, w, params, lo) >= 1.0:
        hi = min(hi, lo)
        lo *= 0.5
        if lo == 0.0:
            raise NonFinite("objective stayed below 1 down to c = 0")
    while hi - lo > _NORM_TOL * hi:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if _objective(vals, w, params, mid) <= 1.0:
            hi = mid
        else:
            lo = mid
    return LuxemburgResult(hi, _objective(vals, w, params, hi), (lo, hi))


def entropy(density: GridFn, ep: EntropyParams) -> float:
    """Gauge norm of a nonnegative density at weight (1, n, r).

    Also verifies the general upper bound by the raw weighted integral:
    norm <= max(1, integral of phi(density)).
    """
    if np.any(density.values < 0):
        raise NegativeDensity("density must be >= 0")
    result = luxemburg_norm(density, ep.young)
    raw = integrate(GridFn(density.measure, phi(ep.young, density.values)))
    bound = max(1.0, raw)
    if result.norm > bound * (1.0 + INEQ_SLACK):
        raise VerificationFailed(
            f"entropy {result.norm} exceeded its integral bound {bound}"
        )
    return result.norm


def norm_bound_from_integral(c: float, M: float, params: YoungParams) -> float:
    """Norm bound c * max(1, M^(1/p)) given that the scaled weighted integral
    at scale c is at most M."""
    if c <= 0 or M <= 0:
        raise InvalidInput("need c > 0 and M > 0")
    return c * max(1.0, M ** (1.0 / params.p))


def integral_bound_from_norm(f: GridFn, params: YoungParams) -> tuple[float, float]:
    """Raw weighted integral of |f| against the norm bound max(N^p, N^(p+q+r)).

    Returns (lhs, rhs) and asserts lhs <= rhs up to slack.
    """
    lhs = integrate(GridFn(f.measure, phi(params, np.abs(f.values))))
    n = luxemburg_norm(f, params).norm
    rhs = max(n**params.p, n ** (params.p + params.q + params.r))
    if lhs > rhs * (1.0 + INEQ_SLACK):
        raise VerificationFailed(f"integral bound violated: {lhs} > {rhs}")
    return lhs, rhs


def holder_young_constant(params: YoungParams) -> float:
    """The constant (p + q/2 + r/4)^((q+r)/p)."""
    p, q, r = params.p, params.q, params.r
    return (p + q / 2.0 + r / 4.0) ** ((q + r) / p)


def holder_young_bound(f: GridFn, params: YoungParams) -> tuple[float, float, float]:
    """L1 mass of f against 2C * norm * mass^(1-1/p) / (log-factor corrections).

    Returns (lhs, rhs, C) and asserts lhs <= rhs up to slack.
    """
    mass = f.measure.mass
    if not (0 < mass < np.inf):
        raise ZeroMass("measure mass must be positive and finite")
    p, q, r = params.p, params.q, params.r
    C = holder_young_constant(params)
    n = luxemburg_norm(f, params).norm
    inv = 1.0 / mass
    denom = np.log1p(inv) ** (q / p) * np.log1p(np.log1p(inv)) ** (r / p)
    rhs = 2.0 * C * n * mass ** (1.0 - 1.0 / p) / denom
    lhs = integrate(GridFn(f.measure, np.abs(f.values)))
    if lhs > rhs * (1.0 + INEQ_SLACK):
        raise VerificationFailed(f"integral {lhs} exceeded bound {rhs}")
    return lhs, rhs, C


def _eta(params: YoungParams, t: np.ndarray) -> np.ndarray:
    p, q, r = params.p, params.q, params.r
    t = np.asarray(t, dtype=float)
    out = t ** (p - 1.0)
    if q:
        out = out * np.log1p(t) ** q
    if r:
        out = out * np.log1p(np.log1p(t)) ** r
    return out


def young_pair_check(a: float, b: float, params: YoungParams) -> bool:
    """Pointwise product inequality a*b <= phi(a) + PsiInv(b).

    Psi(t) = eta(t)^(1/p) / C with eta the derivative-like weight; its inverse
    is computed by bisection with a geometrically expanded bracket.
    """
    if a < 0 or b < 0:
        raise InvalidInput("need a, b >= 0")
    if params.degenerate:
        raise DegenerateParams("Psi is constant for (1, 0, 0); nothing to invert")
    lhs = a * b
    if lhs == 0.0:
        return True
    C = holder_young_constant(params)

    def psi(t: float) -> float:
        return float(_eta(params, np.asarray(t))) ** (1.0 / params.p) / C

    hi = 1.0
    for _ in range(400):
        if psi(hi) >= b:
            break
        hi *= 2.0
    psi_inv = bisect_monotone(psi, 0.0, hi, target=b, direction="increasing",
                              tol=1e-12 * max(1.0, hi))
    rhs = float(phi(params, np.asarray(a))) + psi_inv
    return lhs <= rhs * (1.0 + INEQ_SLACK)


def entropy_domination_factor(mass: float, r: float) -> float:
    """max(1, 1/log(2)^r + (e-1)*mass): converts an (n, r) entropy bound into
    an (n, 0) one on a measure of the given total mass."""
    return max(1.0, 1.0 / np.log(2.0) ** r + (np.e - 1.0) * mass)
