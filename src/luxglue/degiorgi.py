"""Level-set iteration bounds: the vanishing threshold, its dual lower bound,
hypothesis scanning, a vanishing simulator, and the double-exponential
sharpness example showing the threshold needs beta > alpha.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .errors import (
    BetaNotGreaterThanAlpha,
    GammaOutOfRange,
    GridTooShort,
    HypothesisFails,
    InvalidInput,
    NonFinite,
    VerificationFailed,
)
from .numgrid import INEQ_SLACK, Verdict, WeightedMeasure

# Level-set values below this are literal zeros (measured superlevel
# functions reach true 0; subnormals would poison log(1 + 1/f)).
ZERO_FLOOR = 1e-300

_FORM_AGREEMENT_RTOL = 1e-12
_CHAIN_SLACK = 1e-9


@dataclass(frozen=True)
class IterationHypothesis:
    """Constants of the decay hypothesis
    f(s) <= C / (s-t)^alpha * f(t) * log^(-beta)(1 + 1/f(t))."""

    C: float
    alpha: float
    beta: float

    def __post_init__(self) -> None:
        if not (0 < self.C < np.inf and 0 < self.alpha < np.inf and 0 < self.beta < np.inf):
            raise InvalidInput("C, alpha, beta must all be positive and finite")


class TGamma(NamedTuple):
    value: float
    at_zero_level: bool  # set when f(t0) = 0 and the formula value is a limit

    @property
    def verdict(self) -> Verdict:
        return Verdict("t_gamma_finite", np.isfinite(self.value), self.value, np.inf, 0)


def _log_ce(h: IterationHypothesis) -> float:
    """log of (C e)^(1/alpha), finite wherever the power over- or underflows."""
    return (np.log(h.C) + 1.0) / h.alpha


def _normal(ce: float) -> bool:
    """Whether the power (C e)^(1/alpha) is a normal float: a subnormal one
    carries few significant bits, an underflowed or overflowed one none, so
    a product of it is redone in log space."""
    return np.finfo(float).tiny <= ce < np.inf


def _product_or_log(product: float, log_value: float, normal: bool) -> float:
    """The product where (C e)^(1/alpha) is normal and the product finite,
    else the exp of its log (docs/DECISIONS.md, section 9, point 6)."""
    return float(product if normal and np.isfinite(product) else np.exp(log_value))


# a product that overflows, or reads inf * 0 or x / 0, is redone in log space
@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def t_gamma(h: IterationHypothesis, f_t0: float, gamma: float) -> TGamma:
    """Vanishing threshold: max-form of the two-branch expression in f(t0).

    Requires beta > alpha and gamma in (1, beta/alpha].  When f(t0) = 0 the
    log(1 + 1/f) factor diverges and the max-form limit is returned (0 for
    gamma < beta/alpha) together with a flag.  Both written forms of the
    threshold are evaluated and must agree to 1e-12 relative where the
    product form is taken.  Each value is a product or the exp of its log by
    the rule of docs/DECISIONS.md, section 9, point 6, so it reads +inf only
    where it overflows and fails ``t_gamma_finite`` there.
    """
    if not 0 <= f_t0 < np.inf:
        raise InvalidInput("f_t0 must be finite and >= 0")
    if not h.beta > h.alpha:
        raise BetaNotGreaterThanAlpha(f"beta={h.beta} must exceed alpha={h.alpha}")
    ratio = h.beta / h.alpha
    if not (1.0 < gamma <= ratio):
        raise GammaOutOfRange(f"gamma={gamma} outside (1, {ratio}]")
    ce = np.float64(h.C * np.e) ** (1.0 / h.alpha)
    normal = _normal(ce)
    front = ce * (2.0 / np.log(2.0)) ** gamma / (gamma - 1.0)
    log_front = _log_ce(h) + gamma * np.log(2.0 / np.log(2.0)) - np.log(gamma - 1.0)
    if f_t0 == 0.0:
        # log(1 + 1/f(t0)) -> infinity: first max argument tends to
        # L^(gamma - beta/alpha), the second to 0.
        if gamma < ratio:
            return TGamma(0.0, True)
        return TGamma(_product_or_log(front, log_front, normal), True)
    L = np.log1p(1.0 / f_t0)
    value = front * max(L ** (gamma - ratio), np.log(2.0) ** gamma / L**ratio)
    if f_t0 <= 1.0:
        branch = front / L ** (ratio - gamma)
    else:
        branch = ce * np.float64(2.0) ** gamma / ((gamma - 1.0) * L**ratio)
    if (normal and np.isfinite(value)
            and abs(branch - value) > _FORM_AGREEMENT_RTOL * max(abs(branch), abs(value))):
        raise VerificationFailed(
            f"threshold forms disagree: max-form {value} vs branch {branch}"
        )
    log_L = np.log(L)
    log_max = max((gamma - ratio) * log_L if gamma < ratio else 0.0,
                  gamma * np.log(np.log(2.0)) - ratio * log_L)
    return TGamma(_product_or_log(value, log_front + log_max, normal), False)


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def l_gamma(h: IterationHypothesis, gamma: float, T: float) -> float:
    """Dual lower-bound exponent: if the hypothesis holds and f(t0+T) > 0 then
    f(t0) > 1 / (e^L - 1) with L the value returned here.  Each of its two
    terms is a product or the exp of its log by the rule of
    docs/DECISIONS.md, section 9, point 6, so L reads +inf only where it
    exceeds the largest float.
    """
    if not 0 < T < np.inf:
        raise InvalidInput("T must be positive and finite")
    if not (1.0 < gamma < h.beta / h.alpha):
        raise GammaOutOfRange(f"gamma={gamma} outside (1, {h.beta / h.alpha})")
    ce = np.float64(h.C * np.e) ** (1.0 / h.alpha)
    normal = _normal(ce)
    p1, p2 = h.alpha / (h.beta - gamma * h.alpha), h.alpha / h.beta
    den = (gamma - 1.0) * T
    log_base = _log_ce(h) - np.log(gamma - 1.0) - np.log(T)  # of ce / ((gamma - 1) T)
    a1 = _product_or_log((ce * (2.0 / np.log(2.0)) ** gamma / den) ** p1,
                         p1 * (log_base + gamma * np.log(2.0 / np.log(2.0))), normal)
    a2 = _product_or_log((ce * np.float64(2.0) ** gamma / den) ** p2,
                         p2 * (log_base + gamma * np.log(2.0)), normal)
    return max(a1, a2)


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
        # grid[1:] > grid[:-1], not diff(grid) > 0: a gap may overflow
        if not (np.all(np.isfinite(grid)) and np.all(grid[1:] > grid[:-1])):
            raise InvalidInput("grid must be finite and strictly increasing")
        if not np.all((values >= 0) & (values < np.inf)):
            raise InvalidInput("values must be finite and >= 0")
        if not np.all(np.diff(values) <= 0):
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


@dataclass(frozen=True)
class HypothesisReport:
    satisfied: bool
    worst_ratio: float
    worst_pair: tuple[float, float]  # (t, s) attaining the worst ratio
    pairs_checked: int
    vacuous: bool  # every pair skipped because f(t) = 0


def _pair_scan(t: np.ndarray, cell: Callable[[np.ndarray, np.ndarray], np.ndarray]
               ) -> tuple[float, tuple[int, int]]:
    """(max, (i, j)) of cell over the pairs i < j of the nodes t, ties going
    to the first pair in row-major order and NaN cells counting as -inf;
    (-inf, (0, 0)) when t has one node.

    Needs a leftmost row argmax that does not decrease down the rows, as both
    callers' exact cells have (DECISIONS section 9).  Divide and conquer over
    rows: per level, one ``cell(rows, cols)`` call on gathered index arrays
    (cols > rows, a new array back) scans each row segment's middle row, whose
    leftmost argmax bounds the columns of the rows above and below it.
    """
    if t.size < 2:
        return -np.inf, (0, 0)
    best, arg = np.empty(t.size - 1), np.empty(t.size - 1, dtype=np.intp)
    lo, hi, left, right = (np.array([k]) for k in (0, t.size - 2, 1, t.size - 1))
    while lo.size:
        mid = (lo + hi) // 2
        first = np.maximum(mid + 1, left)
        counts = right - first + 1
        starts = np.cumsum(counts) - counts
        cols = np.arange(starts[-1] + counts[-1]) - np.repeat(starts - first, counts)
        vals = cell(np.repeat(mid, counts), cols)
        vals[np.isnan(vals)] = -np.inf
        top = np.maximum.reduceat(vals, starts)
        hits = np.flatnonzero(vals == np.repeat(top, counts))
        best[mid], arg[mid] = top, cols[hits[np.searchsorted(hits, starts)]]
        up, down = lo < mid, mid < hi
        lo, hi, left, right = (np.concatenate(pair) for pair in (
            (lo[up], mid[down] + 1), (mid[up] - 1, hi[down]),
            (left[up], arg[mid[down]]), (arg[mid[up]], right[down])))
    i = int(np.argmax(best))
    return float(best[i]), (i, int(arg[i]))


def _pair_max(f: LevelSetFn, alpha: float, beta: float
              ) -> tuple[float, tuple[float, float], int]:
    """(worst, worst_pair, pairs_checked) of the C = 1 ratio
    f(s) (s-t)^alpha log^beta(1 + 1/f(t)) / f(t) over grid pairs s > t
    with f(t) > 0.

    f is non-increasing, so its positive values are a prefix of length p and
    only the pairs inside that prefix can beat the ratio 0 of the pairs
    whose f(s) = 0.  A cell whose product form is not finite is computed in
    log space instead (DECISIONS section 9, point 6).
    """
    t, v = f.grid, f.values
    p = int(np.count_nonzero(v > 0))
    checked = p * (t.size - 1) - p * (p - 1) // 2
    if p == 0:
        return -np.inf, (f.t0, f.t0), 0
    if p == 1:  # the one positive row sees only f(s) = 0
        return 0.0, (float(t[0]), float(t[1])), checked
    v = v[:p]
    weight = np.log1p(1.0 / v) ** beta

    def cell(r: np.ndarray, c: np.ndarray) -> np.ndarray:
        # Same operation order as the definition, so fitted C stays bit-stable.
        out = v[c] * (t[c] - t[r])**alpha * weight[r] / v[r]
        if not np.isfinite(out.max()):  # max passes a NaN on
            # A product overflowed, or met a weight that underflowed to 0:
            # only those cells are redone, in log space, where no term can
            # underflow (v >= ZERO_FLOOR) or overflow (halves of a gap that
            # overflowed are exact).
            bad = ~np.isfinite(out)
            r, c = r[bad], c[bad]
            gap = t[c] - t[r]
            log_gap = np.where(gap < np.inf, np.log(gap),
                               np.log(t[c] / 2 - t[r] / 2) + np.log(2.0))
            out[bad] = np.exp(np.log(v[c]) - np.log(v[r]) + alpha * log_gap
                              + beta * np.log(np.log1p(1.0 / v[r])))
        return out

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        worst, (i, j) = _pair_scan(t[:p], cell)
    return worst, (float(t[i]), float(t[j])), checked


def check_hypothesis(f: LevelSetFn, h: IterationHypothesis) -> HypothesisReport:
    """Worst value over grid pairs s > t of
    f(s) (s-t)^alpha log^beta(1 + 1/f(t)) / (C f(t)); satisfied iff <= 1.

    The ratio scales exactly as 1/C, so one C-free maximum is computed per
    (alpha, beta) and cached on f; it scans only the upper triangle of the
    positive prefix of f.  Pairs with f(t) = 0 are skipped (the hypothesis is
    vacuous there since f is non-increasing).
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
    report = check_hypothesis(f, IterationHypothesis(1.0, alpha, beta))
    if report.vacuous:
        return 1.0
    return report.worst_ratio


@dataclass(frozen=True)
class VanishingReport:
    status: str  # "verified" | "not_vanished" | "not_applicable"
    threshold: float
    node: float | None
    value_at_node: float | None
    chain_depth: int
    chain_ok: bool
    pairs_checked: int  # grid pairs the hypothesis scan covered

    @property
    def verdicts(self) -> tuple[Verdict, Verdict]:
        """Exact 0 at the vanishing node, then the decay chain."""
        value = np.nan if self.value_at_node is None else self.value_at_node
        return (Verdict("vanishing_verified",
                        self.status == "verified" and self.value_at_node == 0.0, value, 0.0, 0),
                Verdict("decay_chain", self.chain_ok, self.chain_depth, 0, 0))


def simulate_vanishing(
    f: LevelSetFn, h: IterationHypothesis, gamma: float
) -> VanishingReport:
    """Check literal vanishing at t0 + threshold plus the geometric decay
    chain; the report's ``verdicts`` say whether both hold.

    Requires the hypothesis to hold on the grid (HypothesisFails otherwise).
    With beta <= alpha the vanishing conclusion is unavailable and the report
    says so.  The status is "verified" iff f is exactly 0 at the first node
    past the threshold, else "not_vanished".  The decay chain
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
    T = t_gamma(h, f.f_t0, gamma).value
    node, val = f.value_at_first_node_geq(f.t0 + T)
    chain_ok, depth = True, 0
    f_t0, t0 = f.f_t0, f.t0
    if f_t0 > 0:
        # the bounds f(t0) e^(1-n), n = 1..199, fall, so those >= ZERO_FLOOR are a prefix
        bounds = f_t0 * np.exp(1.0 - np.arange(1, 200))
        bounds = bounds[:int(np.count_nonzero(bounds >= ZERO_FLOOR))]
        # a Python float power, whose bits a float64 array power need not give
        points = [t0 + (1.0 - float(n) ** (1.0 - gamma)) * T for n in range(1, bounds.size + 1)]
        idx = np.searchsorted(f.grid, points)  # each point's first node >= it
        short = np.flatnonzero(idx >= f.grid.size)  # the chain stops at the grid's end
        depth = int(short[0]) if short.size else idx.size
        over = np.flatnonzero(f.values[idx[:depth]] > np.multiply(bounds[:depth], 1 + _CHAIN_SLACK))
        if over.size:
            depth, chain_ok = int(over[0]) + 1, False
    return VanishingReport("verified" if val == 0.0 else "not_vanished", T, node, val,
                           depth, chain_ok, report.pairs_checked)


def simulate_power_profile(k: float, alpha: float, beta: float, gamma: float, *,
                           n_nodes: int = 1024, amplitude: float = 1.0,
                           length: float = 1.0) -> tuple[VanishingReport, float, int]:
    """``simulate_vanishing`` on the power profile of ``power_superlevel_fn``
    with C fitted to its grid.  The grid, first ending at 1.5 amplitude, is
    stretched to 1.05 (t0 + threshold) and C refitted, up to 8 times, until
    it covers the threshold.  Returns (report, fitted C, extensions)."""
    t_end = None
    for extensions in range(9):
        f = power_superlevel_fn(k, amplitude=amplitude, length=length, n_nodes=n_nodes,
                                t_end=t_end)
        C = fit_constant(f, alpha, beta)
        hyp = IterationHypothesis(C, alpha, beta)
        T = t_gamma(hyp, f.f_t0, gamma).value
        if f.grid[-1] >= f.t0 + T:
            break
        t_end = (f.t0 + T) * 1.05
    return simulate_vanishing(f, hyp, gamma), C, extensions


def _log_log1p_exp_exp(t: np.ndarray) -> np.ndarray:
    """log(log(1 + e^(e^t))) without overflow: for y = e^t large,
    log(1 + e^y) = y + log1p(e^-y)."""
    y = np.exp(t)
    small = y < 30.0
    inner = np.where(small, np.log1p(np.exp(np.minimum(y, 30.0))), y + np.exp(-y))
    return np.log(inner)


def sharpness_sup(alpha: float, grid: WeightedMeasure) -> Verdict:
    """Supremum (lhs) over node pairs s > t >= 0 of
    e^-(e^s - e^t) (s-t)^alpha log^alpha(1 + e^(e^t)) against the closed
    bound (2 alpha / e)^alpha (rhs); passed iff lhs <= rhs up to slack.

    Works in log space to dodge overflow.  Raises NonFinite where the bound
    itself exceeds the largest float, past alpha = 150.7387.
    """
    if not 0 < alpha < np.inf:
        raise InvalidInput("alpha must be positive and finite")
    try:
        bound = (2.0 * alpha / np.e) ** alpha
    except OverflowError:
        raise NonFinite(f"the bound (2 alpha / e)^alpha exceeds the largest float "
                        f"at alpha = {alpha!r}") from None
    t = grid.nodes
    with np.errstate(over="ignore"):  # e^t is inf past t = 709.78
        log_logfac = _log_log1p_exp_exp(t)
        et = np.exp(t)
    with np.errstate(invalid="ignore"):  # inf - inf past t = 709.78 counts as -inf
        best, _ = _pair_scan(t, lambda r, c: (
            alpha * np.log(t[c] - t[r]) + alpha * log_logfac[r] - (et[c] - et[r])))
    sup = float(np.exp(best))
    return Verdict("sup_le_bound", sup <= bound * (1 + INEQ_SLACK), sup, bound, INEQ_SLACK)


def double_exp_level_fn(grid: np.ndarray) -> LevelSetFn:
    """The sharpness example f(t) = e^(-e^t) sampled on a grid."""
    grid = np.asarray(grid, dtype=float)
    return LevelSetFn(grid, np.exp(-np.exp(grid)))


def power_superlevel_fn(
    k: float,
    *,
    amplitude: float = 1.0,
    length: float = 1.0,
    t_end: float | None = None,
    n_nodes: int = 1024,
) -> LevelSetFn:
    """Superlevel-measure function of u(x) = amplitude * (1 - x/length)^k on
    [0, length] under Lebesgue measure: f(t) = length * (1 - (t/amplitude)^(1/k))_+,
    on n_nodes even nodes of [0, t_end] (t_end = 1.5 amplitude by default).

    Reaches exact 0 at t = amplitude, the shape driving the vanishing demo.
    """
    if not (0 < k < np.inf and 0 < amplitude < np.inf and 0 < length < np.inf):
        raise InvalidInput("k, amplitude, length must be positive and finite")
    if n_nodes < 2:
        raise InvalidInput(f"n_nodes must be >= 2, got {n_nodes}")
    end = t_end if t_end is not None else 1.5 * amplitude
    grid = np.linspace(0.0, end, n_nodes)
    vals = length * np.maximum(0.0, 1.0 - (np.maximum(grid, 0.0) / amplitude) ** (1.0 / k))
    return LevelSetFn(grid, vals)


def induction_inequality_gap(a: float, b: float, mu: float) -> float:
    """a^(1-mu) - b^(1-mu) - (mu-1)(b-a) b^-mu for b >= a > 0, mu >= 1;
    non-negative by convexity of x -> x^(1-mu)."""
    if not (np.inf > b >= a > 0 and np.inf > mu >= 1):
        raise InvalidInput("need finite b >= a > 0 and mu >= 1")
    return a ** (1.0 - mu) - b ** (1.0 - mu) - (mu - 1.0) * (b - a) * b ** (-mu)
