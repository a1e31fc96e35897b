"""Gauge norms of the weight family, entropy, and the quantitative inequalities.

The norm of f is the infimum of c > 0 with integral of phi(|f|/c) at most 1.
On a discrete measure the objective is continuous and strictly decreasing in
c for nonzero f.  The solver keeps the known sides of the crossing, the
nearest scales evaluated on each side, and narrows them to a relative 1e-13
by interpolation inside the range the objective's slope bounds leave; the
norm is the upper side, where the objective is evaluated and at most 1
(docs/DECISIONS.md, section 5).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateParams, InvalidInput, NegativeDensity, NonFinite
from .numgrid import INEQ_SLACK, GridFn, Verdict, integrate, pairwise_sums
from .youngfn import YoungParams, _weight, phi

_GUARD = 1e-13  # relative width to which the known sides of a crossing are narrowed
_STEP_FLOOR = 0.3 * _GUARD  # least distance, in log c, of a narrowing point from a side
_NARROW_STEPS = 64  # cap on narrowing steps; a column that reaches it keeps its wider sides
_FLOAT_MAX = float(np.finfo(float).max)

# Grid functions solved together; it bounds the solver's work arrays (128
# functions of 4,096 nodes take 4 MiB each).  In-process `holder-young
# --sweep 1000` took a median 0.34-0.35 s at 128 and at 256, 0.34-0.36 s at
# 64 and 0.36-0.39 s at 32 (two rounds of 9 runs each, sizes interleaved,
# 2 vCPUs, numpy 2.4.6).
BLOCK_SIZE = 128


@dataclass(frozen=True)
class LuxemburgResult:
    """Gauge norm b, the objective value there (<= 1), and the known sides
    (a, b) of the crossing, with the objective > 1 at a."""

    norm: float
    objective_at_norm: float
    bracket: tuple[float, float]
    evals: int  # objective evaluations spent on this function

    @property
    def verdict(self) -> Verdict:
        """The norm's defining inequality: objective at the norm <= 1."""
        return Verdict("normalization_objective_le_1", self.objective_at_norm <= 1 + INEQ_SLACK,
                       self.objective_at_norm, 1.0, INEQ_SLACK)


@dataclass(frozen=True)
class EntropyParams:
    """Entropy scale: weight exponents (1, n, r)."""

    n: int
    r: float = 0.0

    def __post_init__(self) -> None:
        if not (1 <= self.n < np.inf and int(self.n) == self.n):
            raise InvalidInput("n must be an integer >= 1")
        if not 0 <= self.r < np.inf:
            raise InvalidInput("r must be finite and >= 0")

    @property
    def young(self) -> YoungParams:
        return YoungParams(1.0, float(self.n), float(self.r))


def _objective(x: np.ndarray, w: np.ndarray, exps: list, c: np.ndarray) -> np.ndarray:
    """Normalization objective of each column at its own scale c: the
    pairwise sum down the column of w * phi(x / c)."""
    return pairwise_sums(w * _weight(x / c, *exps))


def _exponent(values: list[float]):
    """One exponent per column: a float when every column has the same, else
    a vector."""
    if all(v == values[0] for v in values):
        return float(values[0])
    return np.array(values, dtype=float)


def _narrow_point(a: float, fa: float, b: float, fb: float, last: list, p: float,
                  s: float) -> float:
    """Next point to evaluate strictly inside the known sides a < b of one
    crossing, given fa = log v(a) > 0 >= fb = log v(b) and ``last``, the
    column's last three (c, log v) evaluations.

    In x = log(c/a), log v has a slope between -s and -p, s = p + q + r, so
    the crossing lies in [max(fa/s, w + fb/p, 0), min(fa/p, w + fb/s, w)],
    w = log(b/a).  The point is the inverse quadratic root of the last three
    points where it lies strictly inside that range, and the middle of the
    range otherwise.  It then moves _STEP_FLOOR away from the nearer side,
    so that once the estimate is that good the next evaluation lands on the
    far side of the crossing, and it keeps _STEP_FLOOR from both sides.
    Below the normal range, where floats are coarser than that, a point that
    rounds onto a side moves to the float next to it.  An extreme bracket or
    an infinite log v gives NaN, which the caller reads as out of range.
    """
    w = math.log(b / a)
    if not (w < 700.0 and fa < math.inf and fb > -math.inf):
        return math.nan
    lo, hi = max(fa / s, w + fb / p, 0.0), min(fa / p, w + fb / s, w)
    d = 0.5 * (lo + hi)
    (c0, f0), (c1, f1), (c2, f2) = last
    if f0 != f1 and f0 != f2 and f1 != f2:
        x0, x1, x2 = math.log(c0 / a), math.log(c1 / a), math.log(c2 / a)
        root = (x0 * f1 * f2 / ((f0 - f1) * (f0 - f2)) + x1 * f0 * f2 / ((f1 - f0) * (f1 - f2))
                + x2 * f0 * f1 / ((f2 - f0) * (f2 - f1)))
        if lo < root < hi:
            d = root
    d += _STEP_FLOOR if d < 0.5 * w else -_STEP_FLOOR
    c = a * math.exp(min(max(d, _STEP_FLOOR), w - _STEP_FLOOR))
    return min(max(c, math.nextafter(a, b)), math.nextafter(b, a))


@np.errstate(over="ignore")  # an L1 sum or a term w phi(|f|/c) may overflow to inf
def _solve_block(fs: Sequence[GridFn], params: Sequence[YoungParams]) -> list[LuxemburgResult]:
    """Gauge norms of one block by the known sides that ``luxemburg_norms``
    describes, with one column of the work arrays per grid function.  Each
    step evaluates the objective of every column that needs a value in one
    call; the known sides are Python floats, so a step costs little more
    than that call even for a single column."""
    n = len(fs)
    x = np.zeros((max(f.values.size for f in fs), n))
    w = np.zeros_like(x)
    for i, f in enumerate(fs):
        x[:f.values.size, i] = np.abs(f.values)
        w[:f.values.size, i] = f.measure.weights
    exps = [_exponent([getattr(pr, a) for pr in params]) for a in "pqr"]
    slopes = [(float(pr.p), float(pr.p + pr.q + pr.r)) for pr in params]
    evals = [0] * n
    # the known sides of each crossing: v(a) > 1 and v(b) <= 1, with log v
    # there and v(b) itself, and (c, log v) of the column's last three
    # evaluations (NaN before there are three)
    a, fa = [0.0] * n, [0.0] * n
    b, fb, vb = [math.inf] * n, [0.0] * n, [0.0] * n
    last = [[(math.nan, math.nan)] * 3] * n

    def objective(cols: list[int], c: list[float]) -> list[float]:
        if len(cols) == n:  # every column: no copies
            vals = _objective(x, w, exps, np.array(c)).tolist()
        else:
            idx = np.array(cols, dtype=int)
            vals = _objective(x[:, idx], w[:, idx], [e[idx] if isinstance(e, np.ndarray) else e
                                                     for e in exps], np.array(c)).tolist()
        for i, ci, v in zip(cols, c, vals):
            evals[i] += 1
            f = math.log(v) if v > 0.0 else -math.inf
            last[i] = last[i][-2:] + [(ci, f)]
            if v <= 1.0:
                if ci < b[i]:
                    b[i], fb[i], vb[i] = ci, f, v
            elif v > 1.0 and ci > a[i]:  # a NaN is on neither side
                a[i], fa[i] = ci, f
        return vals

    finite = np.isfinite(x).all(axis=0)
    vmax = x.max(axis=0)
    l1 = pairwise_sums(w * x)
    hi = np.maximum(l1, vmax) * (1.0 + pairwise_sums(w))
    hi = np.where(hi < math.inf, hi, np.maximum(2.0 * l1, vmax)).tolist()
    lo = (vmax * 1e-12).tolist()
    failed = {i: "grid function must have finite values"
              for i in np.flatnonzero(~finite).tolist()}
    cols = np.flatnonzero(finite & (vmax > 0.0)).tolist()  # the zero function has norm 0

    # The known sides come first (docs/DECISIONS.md, section 5, facts 4 and
    # 5): v(hi) <= 1/2, then lo and, while v <= 1 there, c v^(1/p) / 2, where
    # v >= 2^p unless rounding says otherwise, but never below the least
    # positive float.  Where lo underflows to 0, the step from hi takes its
    # place: evaluated, c = 0 would give 0/0 at a node of value 0.
    least = math.ulp(0.0)
    steps = {i: hi[i] for i in cols}
    while steps:
        points = {}
        for (i, c), v in zip(steps.items(), objective(list(steps), list(steps.values()))):
            if v > 1.0:  # a NaN reads at most 1
                continue
            if c == least:
                failed[i] = "objective stayed below 1 down to c = 0"
            elif c == hi[i] and lo[i] > 0.0:
                points[i] = lo[i]
            else:
                c = 0.5 * c * v ** (1.0 / slopes[i][0])
                points[i] = c if c > least else least
        steps = points
    cols = [i for i in cols if i not in failed]

    widths = [[math.inf, math.inf] for _ in range(n)]  # b/a before the last two steps
    open_ = cols
    for _ in range(_NARROW_STEPS):  # narrow the known sides to a relative _GUARD
        points = {}
        for i in open_:
            if not a[i] * (1.0 + _GUARD) < b[i] < math.inf:
                continue
            ratio = b[i] / a[i]
            if ratio * ratio <= widths[i][0]:
                c = _narrow_point(a[i], fa[i], b[i], fb[i], last[i], *slopes[i])
            else:  # the log width did not halve: step to where the slope bound gives v <= 1
                c = max(a[i] * math.exp(fa[i] / slopes[i][0]), math.nextafter(a[i], b[i]))
            widths[i] = [widths[i][1], ratio]
            if not a[i] < c < b[i]:
                c = math.sqrt(a[i]) * math.sqrt(b[i])
            if a[i] < c < b[i]:  # else no float lies strictly between the sides
                points[i] = c
        if not points:
            break
        open_ = list(points)
        objective(open_, list(points.values()))

    for i in cols:
        if b[i] == math.inf:  # lo read v > 1 and hi = inf
            failed[i] = ("the norm came out infinite: its upper bracket end "
                         "max(2 L1, max|f|) overflows")
    if failed:
        raise NonFinite(failed[min(failed)])
    out = [LuxemburgResult(0.0, 0.0, (0.0, 0.0), 0)] * n
    for i in cols:
        out[i] = LuxemburgResult(b[i], vb[i], (a[i], b[i]), evals[i])
    return out


def luxemburg_norms(fs: Sequence[GridFn],
                    params: Sequence[YoungParams]) -> list[LuxemburgResult]:
    """Norm of each f at its own weight, all solved together.

    Each f is one column of the work arrays: |f| and its weights,
    zero-padded to the longest f, with its own exponent triple.  Work
    proceeds in blocks of BLOCK_SIZE functions.  The zero function
    short-circuits to 0.

    Every evaluation is kept: the largest c seen with objective > 1 and the
    smallest with objective <= 1 are the known sides a and b of the
    crossing.  The objective is evaluated at hi = max(L1, max|f|) (1 + mass),
    or max(2 L1, max|f|) where that overflows, where it is at most 1/2
    (docs/DECISIONS.md, section 5, fact 4).  It is then evaluated at
    lo = 1e-12 max|f|, or, where lo underflows to 0, at hi v^(1/p) / 2, and
    while it reads at most 1, at c v^(1/p) / 2, never below the least
    positive float.  Inverse quadratic interpolation in (log c,
    log objective), kept inside the range that the objective's slopes leave
    for the crossing, then narrows a and b to a relative width of 1e-13
    (``_narrow_point``; docs/DECISIONS.md, section 5, fact 5).

    The returned norm is b, with bracket (a, b): the objective at the norm
    was evaluated there and is <= 1 by construction, and it is > 1 at a.
    ``evals`` counts the objective evaluations of each f.  Zero padding
    moves no bit (see ``pairwise_sums``), so each f gets the result it gets
    alone.  Raises NonFinite for the first f that fails: one with a
    non-finite value, one whose objective stays at most 1 down to the least
    positive float, or one whose norm comes out infinite (2 L1 overflows
    and lo reads > 1).
    """
    if len(fs) != len(params):
        raise InvalidInput(f"{len(fs)} grid functions but {len(params)} weights")
    return [res for i in range(0, len(fs), BLOCK_SIZE)
            for res in _solve_block(fs[i:i + BLOCK_SIZE], params[i:i + BLOCK_SIZE])]


def luxemburg_norm(f: GridFn, params: YoungParams) -> LuxemburgResult:
    """Norm of f for the given weight: luxemburg_norms of f alone."""
    return luxemburg_norms([f], [params])[0]


def entropies(densities: Sequence[GridFn], scales: Sequence[EntropyParams]) -> list[float]:
    """Gauge norm of each nonnegative density at its weight (1, n, r), all
    solved in one ``luxemburg_norms`` call."""
    if not all(np.all(d.values >= 0) for d in densities):
        raise NegativeDensity("density must be >= 0")
    return [res.norm for res in luxemburg_norms(densities, [ep.young for ep in scales])]


def norm_bound_from_integral(c: float, M: float, params: YoungParams) -> float:
    """Norm bound c * max(1, M^(1/p)) given that the scaled weighted integral
    at scale c is at most M."""
    if not (0 < c < np.inf and 0 < M < np.inf):
        raise InvalidInput("need finite c > 0 and M > 0")
    return c * max(1.0, M ** (1.0 / params.p))


def integral_bound_from_norm(f: GridFn, params: YoungParams, norm: float) -> Verdict:
    """Raw weighted integral of |f| (lhs) against the bound max(N^p, N^(p+q+r))
    (rhs) given the norm N of f; passed iff lhs <= rhs up to slack."""
    lhs = integrate(GridFn(f.measure, phi(params, np.abs(f.values))))
    try:
        rhs = max(norm**params.p, norm ** (params.p + params.q + params.r))
    except OverflowError:
        raise NonFinite(f"the bound max(N^p, N^(p+q+r)) overflows at N = {norm}") from None
    return Verdict("integral_le_norm_powers", lhs <= rhs * (1 + INEQ_SLACK), lhs, rhs,
                   INEQ_SLACK)


def holder_young_constant(params: YoungParams) -> float:
    """The constant (p + q/2 + r/4)^((q+r)/p)."""
    p, q, r = params.p, params.q, params.r
    try:
        return (p + q / 2.0 + r / 4.0) ** ((q + r) / p)
    except OverflowError:
        raise NonFinite(f"the constant overflows at (p, q, r) = ({p}, {q}, {r})") from None


def holder_young_bounds(fs: Sequence[GridFn], params: Sequence[YoungParams]) -> list[Verdict]:
    """For each f: its L1 mass (lhs) against 2C * norm * mass^(1-1/p) /
    (log-factor corrections) (rhs), C the ``holder_young_constant``, with
    every norm solved in one ``luxemburg_norms`` call.

    Returns one record per f, passed iff lhs <= rhs up to slack.  The
    constants are checked before any norm is solved; each measure's mass is
    finite and positive by construction.
    """
    masses = [f.measure.mass for f in fs]
    consts = [holder_young_constant(pr) for pr in params]
    out = []
    for f, pr, mass, C, res in zip(fs, params, masses, consts, luxemburg_norms(fs, params)):
        p, q, r = pr.p, pr.q, pr.r
        inv = 1.0 / mass
        denom = np.log1p(inv) ** (q / p) * np.log1p(np.log1p(inv)) ** (r / p)
        rhs = 2.0 * C * res.norm * mass ** (1.0 - 1.0 / p) / denom
        lhs = integrate(GridFn(f.measure, np.abs(f.values)))
        out.append(Verdict("bound_holds", lhs <= rhs * (1 + INEQ_SLACK), lhs, rhs, INEQ_SLACK))
    return out


def sweep_verdict(bounds: Sequence[Verdict]) -> Verdict:
    """A sweep of ``holder_young_bounds`` records: passed iff none failed;
    lhs counts the failures."""
    violations = sum(not b.passed for b in bounds)
    return Verdict("sweep_zero_violations", violations == 0, violations, 0, 0)


def young_pair_check(a: float, b: float, params: YoungParams) -> bool:
    """Pointwise product inequality a*b <= phi(a) + PsiInv(b), up to slack.

    Psi(t) = eta(t)^(1/p) / C with eta(t) = t^(p-1) log^q(1+t) log^r(1+log(1+t))
    increases from Psi(0) = 0, so with x = a*b / (1 + slack) - phi(a) the
    inequality reads x <= 0 or Psi(x) <= b, and Psi is never inverted.  An x
    past the largest float is evaluated there; a NaN x (a*b and phi(a) both
    overflow) passes, as inf <= inf does.
    """
    if not (0 <= a < np.inf and 0 <= b < np.inf):
        raise InvalidInput("need finite a, b >= 0")
    if params.degenerate:
        raise DegenerateParams("Psi is constant for (1, 0, 0); nothing to invert")
    x = a * b / (1.0 + INEQ_SLACK) - float(phi(params, np.asarray(a)))
    if not x > 0.0:
        return True
    eta = _weight(np.asarray(min(x, _FLOAT_MAX)), params.p - 1.0, params.q, params.r)
    return float(eta) ** (1.0 / params.p) / holder_young_constant(params) <= b


def entropy_domination_factor(mass: float, r: float) -> float:
    """max(1, 1/log(2)^r + (e-1)*mass): converts an (n, r) entropy bound into
    an (n, 0) one on a measure of the given total mass."""
    return max(1.0, 1.0 / np.log(2.0) ** r + (np.e - 1.0) * mass)
