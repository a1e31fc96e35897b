"""Level-set iteration bounds: the vanishing threshold, its dual lower bound,
hypothesis scanning, a vanishing simulator, and the double-exponential
sharpness example showing the threshold needs beta > alpha.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import (
    BetaNotGreaterThanAlpha,
    GammaOutOfRange,
    GridTooShort,
    HypothesisFails,
    InvalidInput,
    VerificationFailed,
)
from .numgrid import WeightedMeasure

# Level-set values below this are literal zeros (measured superlevel
# functions reach true 0; subnormals would poison log(1 + 1/f)).
ZERO_FLOOR = 1e-300

_FORM_AGREEMENT_RTOL = 1e-12
_PAIR_CAP = 4096
_BLOCK = 256
# Strictly-below-diagonal cells of a block's leading square: pairs s <= t.
_BELOW = np.tri(_BLOCK, _BLOCK, -1, dtype=bool)
_CHAIN_SLACK = 1e-9


@dataclass(frozen=True)
class IterationHypothesis:
    """Constants of the decay hypothesis
    f(s) <= C / (s-t)^alpha * f(t) * log^(-beta)(1 + 1/f(t))."""

    C: float
    alpha: float
    beta: float
    t0: float = 0.0
    f_t0: float = 0.0

    def __post_init__(self) -> None:
        if not (self.C > 0 and self.alpha > 0 and self.beta > 0):
            raise InvalidInput("C, alpha, beta must all be positive")
        if self.f_t0 < 0:
            raise InvalidInput("f_t0 must be >= 0")


class TGamma(NamedTuple):
    value: float
    at_zero_level: bool  # set when f(t0) = 0 and the formula value is a limit


def t_gamma(h: IterationHypothesis, gamma: float) -> TGamma:
    """Vanishing threshold: max-form of the two-branch expression.

    Requires beta > alpha and gamma in (1, beta/alpha].  When f(t0) = 0 the
    log(1 + 1/f) factor diverges and the max-form limit is returned (0 for
    gamma < beta/alpha) together with a flag.  Both written forms of the
    threshold are evaluated and must agree to 1e-12 relative.
    """
    if not h.beta > h.alpha:
        raise BetaNotGreaterThanAlpha(f"beta={h.beta} must exceed alpha={h.alpha}")
    ratio = h.beta / h.alpha
    if not (1.0 < gamma <= ratio):
        raise GammaOutOfRange(f"gamma={gamma} outside (1, {ratio}]")
    front = (h.C * np.e) ** (1.0 / h.alpha) * (2.0 / np.log(2.0)) ** gamma / (gamma - 1.0)
    if h.f_t0 == 0.0:
        # log(1 + 1/f(t0)) -> infinity: first max argument tends to
        # L^(gamma - beta/alpha), the second to 0.
        limit = front if gamma == ratio else 0.0
        return TGamma(limit, True)
    L = np.log1p(1.0 / h.f_t0)
    value = front * max(L ** (gamma - ratio), np.log(2.0) ** gamma / L**ratio)
    if h.f_t0 <= 1.0:
        branch = front / L ** (ratio - gamma)
    else:
        branch = (h.C * np.e) ** (1.0 / h.alpha) * 2.0**gamma / ((gamma - 1.0) * L**ratio)
    if abs(branch - value) > _FORM_AGREEMENT_RTOL * max(abs(branch), abs(value)):
        raise VerificationFailed(
            f"threshold forms disagree: max-form {value} vs branch {branch}"
        )
    return TGamma(float(value), False)


def l_gamma(C: float, alpha: float, beta: float, gamma: float, T: float) -> float:
    """Dual lower-bound exponent: if the hypothesis holds and f(t0+T) > 0 then
    f(t0) > 1 / (e^L - 1) with L the value returned here."""
    if not (C > 0 and alpha > 0 and beta > 0 and T > 0):
        raise InvalidInput("C, alpha, beta, T must all be positive")
    if not (1.0 < gamma < beta / alpha):
        raise GammaOutOfRange(f"gamma={gamma} outside (1, {beta / alpha})")
    ce = (C * np.e) ** (1.0 / alpha)
    a1 = (ce * (2.0 / np.log(2.0)) ** gamma / ((gamma - 1.0) * T)) ** (
        alpha / (beta - gamma * alpha)
    )
    a2 = (ce * 2.0**gamma / ((gamma - 1.0) * T)) ** (alpha / beta)
    return float(max(a1, a2))


@dataclass(frozen=True)
class LevelSetFn:
    """Sampled non-negative, non-increasing function on [t0, +inf).

    ``grid`` and ``values`` are private read-only copies, so the pair scan
    cached per (alpha, beta) can never go stale.
    """

    grid: np.ndarray
    values: np.ndarray
    _scans: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        grid = np.array(self.grid, dtype=float)
        values = np.asarray(self.values, dtype=float)
        values = np.where(values < ZERO_FLOOR, 0.0, values)
        grid.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)
        if grid.ndim != 1 or grid.shape != values.shape or grid.size < 2:
            raise InvalidInput("grid/values must be matching 1-D arrays, >= 2 points")
        if not np.all(np.diff(grid) > 0):
            raise InvalidInput("grid must be strictly increasing")
        if np.any(values < 0):
            raise InvalidInput("values must be >= 0")
        if np.any(np.diff(values) > 0):
            raise InvalidInput("values must be non-increasing")

    @property
    def t0(self) -> float:
        return float(self.grid[0])

    @property
    def f_t0(self) -> float:
        return float(self.values[0])

    def value_at_first_node_geq(self, t: float) -> tuple[float, float]:
        """(node, value) at the first grid node >= t; GridTooShort if none."""
        idx = int(np.searchsorted(self.grid, t, side="left"))
        if idx >= self.grid.size:
            raise GridTooShort(f"grid ends at {self.grid[-1]} before {t}")
        return float(self.grid[idx]), float(self.values[idx])


def _select_indices(n: int, cap: int = _PAIR_CAP) -> np.ndarray:
    if n <= cap:
        return np.arange(n)
    return np.unique(np.linspace(0, n - 1, cap).astype(int))


@dataclass(frozen=True)
class HypothesisReport:
    satisfied: bool
    worst_ratio: float
    worst_pair: tuple[float, float]  # (t, s) attaining the worst ratio
    pairs_checked: int
    vacuous: bool  # every pair skipped because f(t) = 0


def _pair_max(f: LevelSetFn, alpha: float, beta: float
              ) -> tuple[float, tuple[float, float], int]:
    """(worst, worst_pair, pairs_checked) of the C = 1 ratio
    f(s) (s-t)^alpha log^beta(1 + 1/f(t)) / f(t) over grid pairs s > t
    with f(t) > 0.

    f is non-increasing, so its positive values are a prefix of length p and
    only the upper triangle of that p x p block can beat the ratio 0 of the
    pairs whose f(s) = 0.  Ties go to the first pair in row-major order.
    """
    idx = _select_indices(f.grid.size)
    t = f.grid[idx]
    v = f.values[idx]
    n = t.size
    p = int(np.count_nonzero(v > 0))
    checked = p * (n - 1) - p * (p - 1) // 2
    if p == 0:
        return -np.inf, (f.t0, f.t0), 0
    if p == 1:  # the one positive row sees only f(s) = 0
        return 0.0, (float(t[0]), float(t[1])), checked
    weight = np.log1p(1.0 / v[:p]) ** beta
    worst = -np.inf
    worst_pair = (f.t0, f.t0)
    for start in range(0, p - 1, _BLOCK):
        stop = min(start + _BLOCK, p - 1)
        rows = stop - start
        gap = t[None, start + 1:p] - t[start:stop, None]
        # Same operation order as the definition, so fitted C stays bit-stable.
        with np.errstate(invalid="ignore"):
            ratio = (v[None, start + 1:p] * gap**alpha * weight[start:stop, None]
                     / v[start:stop, None])
        ratio[:, :rows][_BELOW[:rows, :rows]] = -np.inf
        j = np.unravel_index(int(np.argmax(ratio)), ratio.shape)
        if ratio[j] > worst:
            worst = float(ratio[j])
            worst_pair = (float(t[start + j[0]]), float(t[start + 1 + j[1]]))
    return worst, worst_pair, checked


def check_hypothesis(f: LevelSetFn, h: IterationHypothesis) -> HypothesisReport:
    """Worst value over grid pairs s > t of
    f(s) (s-t)^alpha log^beta(1 + 1/f(t)) / (C f(t)); satisfied iff <= 1.

    The ratio scales exactly as 1/C, so one C-free maximum is computed per
    (alpha, beta) and cached on f; it scans only the upper triangle of the
    positive prefix of f.  Pairs with f(t) = 0 are skipped (the hypothesis is
    vacuous there since f is non-increasing).  Grids beyond 4096 nodes are
    subsampled evenly.
    """
    key = (h.alpha, h.beta)
    if key not in f._scans:
        f._scans[key] = _pair_max(f, h.alpha, h.beta)
    worst, worst_pair, checked = f._scans[key]
    if checked == 0:
        return HypothesisReport(True, 0.0, worst_pair, 0, True)
    ratio = worst / h.C
    return HypothesisReport(ratio <= 1.0 + 1e-12, ratio, worst_pair, checked, False)


def fit_constant(f: LevelSetFn, alpha: float, beta: float) -> float:
    """Smallest C making the hypothesis hold on the grid: the max pair ratio."""
    probe = IterationHypothesis(1.0, alpha, beta, f.t0, f.f_t0)
    report = check_hypothesis(f, probe)
    if report.vacuous:
        return 1.0
    return report.worst_ratio


@dataclass(frozen=True)
class VanishingReport:
    status: str  # "verified" | "not_applicable"
    threshold: float
    node: float | None
    value_at_node: float | None
    chain_depth: int
    chain_ok: bool
    pairs_checked: int  # grid pairs the hypothesis scan covered


def simulate_vanishing(
    f: LevelSetFn, h: IterationHypothesis, gamma: float
) -> VanishingReport:
    """Verify literal vanishing at t0 + threshold plus the geometric decay chain.

    Requires the hypothesis to hold on the grid (HypothesisFails otherwise).
    With beta <= alpha the vanishing conclusion is unavailable and the report
    says so instead of failing.  The decay chain
    f(t0 + (1 - n^(1-gamma)) T) <= f(t0) e^(1-n) is checked at the first grid
    node past each chain point, a consequence-direction check at grid
    resolution.
    """
    report = check_hypothesis(f, h)
    if not (report.satisfied or report.vacuous):
        raise HypothesisFails(
            f"worst ratio {report.worst_ratio} at pair {report.worst_pair}"
        )
    if not h.beta > h.alpha:
        return VanishingReport("not_applicable", np.nan, None, None, 0, False,
                               report.pairs_checked)
    hyp = IterationHypothesis(h.C, h.alpha, h.beta, f.t0, f.f_t0)
    T = t_gamma(hyp, gamma).value
    node, val = f.value_at_first_node_geq(f.t0 + T)
    if val != 0.0:
        raise VerificationFailed(
            f"expected exact 0 at node {node} >= t0 + {T}, got {val}"
        )
    chain_ok = True
    depth = 0
    if f.f_t0 > 0:
        for n in range(1, 200):
            bound = f.f_t0 * np.exp(1.0 - n)
            if bound < ZERO_FLOOR:
                break
            point = f.t0 + (1.0 - float(n) ** (1.0 - gamma)) * T
            try:
                _, v = f.value_at_first_node_geq(point)
            except GridTooShort:
                break
            depth = n
            if v > bound * (1.0 + _CHAIN_SLACK):
                chain_ok = False
                break
    return VanishingReport("verified", T, node, val, depth, chain_ok,
                           report.pairs_checked)


def _log_log1p_exp_exp(t: np.ndarray) -> np.ndarray:
    """log(log(1 + e^(e^t))) without overflow: for y = e^t large,
    log(1 + e^y) = y + log1p(e^-y)."""
    y = np.exp(t)
    small = y < 30.0
    inner = np.where(small, np.log1p(np.exp(np.minimum(y, 30.0))), y + np.exp(-y))
    return np.log(inner)


def sharpness_sup(alpha: float, grid: WeightedMeasure) -> float:
    """Supremum over node pairs s > t >= 0 of
    e^-(e^s - e^t) (s-t)^alpha log^alpha(1 + e^(e^t)).

    Works in log space to dodge overflow; asserts the closed bound
    (2 alpha / e)^alpha.
    """
    if alpha <= 0:
        raise InvalidInput("alpha must be positive")
    t = grid.nodes
    log_logfac = _log_log1p_exp_exp(t)
    et = np.exp(t)
    best = -np.inf
    for start in range(0, t.size - 1, _BLOCK):
        stop = min(start + _BLOCK, t.size - 1)
        ti = t[start:stop, None]
        gap = t[None, start + 1:] - ti  # nodes increase: columns <= start have s <= t
        upper = gap > 0
        with np.errstate(divide="ignore", invalid="ignore"):
            logr = np.where(
                upper,
                alpha * np.log(np.where(upper, gap, 1.0))
                + alpha * log_logfac[start:stop, None]
                - (et[None, start + 1:] - et[start:stop, None]),
                -np.inf,
            )
        m = float(np.max(logr))
        if m > best:
            best = m
    sup = float(np.exp(best))
    bound = (2.0 * alpha / np.e) ** alpha
    if sup > bound * (1.0 + 1e-8):
        raise VerificationFailed(f"sharpness sup {sup} exceeded bound {bound}")
    return sup


def double_exp_level_fn(grid: np.ndarray) -> LevelSetFn:
    """The sharpness example f(t) = e^(-e^t) sampled on a grid."""
    grid = np.asarray(grid, dtype=float)
    return LevelSetFn(grid, np.exp(-np.exp(grid)))


def power_superlevel_fn(
    k: float,
    *,
    amplitude: float = 1.0,
    length: float = 1.0,
    t0: float = 0.0,
    t_end: float | None = None,
    n_nodes: int = 1024,
) -> LevelSetFn:
    """Superlevel-measure function of u(x) = amplitude * (1 - x/length)^k on
    [0, length] under Lebesgue measure: f(t) = length * (1 - (t/amplitude)^(1/k))_+.

    Reaches exact 0 at t = amplitude, the shape driving the vanishing demo.
    """
    if k <= 0 or amplitude <= 0 or length <= 0:
        raise InvalidInput("k, amplitude, length must be positive")
    if not 0 <= t0 < amplitude:
        raise InvalidInput("t0 must lie in [0, amplitude)")
    if n_nodes < 2:
        raise InvalidInput(f"n_nodes must be >= 2, got {n_nodes}")
    end = t_end if t_end is not None else 1.5 * amplitude
    grid = np.linspace(t0, end, n_nodes)
    vals = length * np.maximum(0.0, 1.0 - (np.maximum(grid, 0.0) / amplitude) ** (1.0 / k))
    return LevelSetFn(grid, vals)


def induction_inequality_gap(a: float, b: float, mu: float) -> float:
    """a^(1-mu) - b^(1-mu) - (mu-1)(b-a) b^-mu for b >= a > 0, mu >= 1;
    non-negative by convexity of x -> x^(1-mu)."""
    if not (b >= a > 0 and mu >= 1):
        raise InvalidInput("need b >= a > 0 and mu >= 1")
    return a ** (1.0 - mu) - b ** (1.0 - mu) - (mu - 1.0) * (b - a) * b ** (-mu)
