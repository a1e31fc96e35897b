"""Gauge norms of the weight family, entropy, and the quantitative inequalities.

The norm of f is the infimum of c > 0 with integral of phi(|f|/c) at most 1.
On a discrete measure the objective is continuous and strictly decreasing in
c for nonzero f, so plain bisection resolves the infimum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (DegenerateParams, InvalidInput, NegativeDensity, NonFinite,
                     VerificationFailed, ZeroMass)
from .numgrid import INEQ_SLACK, GridFn, Verdict, bisect_monotone, integrate, pairwise_sums
from .youngfn import YoungParams, _weight, phi

_NORM_TOL = 1e-10  # relative bisection tolerance for the gauge norm
_FLOAT_MAX = float(np.finfo(float).max)

# Grid functions solved together; it bounds the solver's work arrays (128
# functions of 4,096 nodes take 4 MiB each).  In-process `holder-young
# --sweep 1000` took a median 0.29 s at 128, 0.30 s at 64, 0.32 s at 32 and
# 256, and 0.34 s at 512 (9 runs each, 2 vCPUs, numpy 2.4.6).
BLOCK_SIZE = 128


@dataclass(frozen=True)
class LuxemburgResult:
    """Gauge norm plus the objective value it achieves and the final bracket."""

    norm: float
    objective_at_norm: float
    bracket: tuple[float, float]

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


def _solve_block(fs: Sequence[GridFn], params: Sequence[YoungParams]) -> list[LuxemburgResult]:
    """Gauge norms of one block by the bracket search and bisection that
    ``luxemburg_norms`` describes, with one column of the work arrays per
    grid function.  Each step evaluates the objective of every open column
    in one call; the brackets are Python floats, so a step costs little more
    than that call even for a single column."""
    x = np.zeros((max(f.values.size for f in fs), len(fs)))
    w = np.zeros_like(x)
    for i, f in enumerate(fs):
        x[:f.values.size, i] = np.abs(f.values)
        w[:f.values.size, i] = f.measure.weights
    exps = [_exponent([getattr(pr, a) for pr in params]) for a in "pqr"]

    def objective(cols: list[int], c: list[float]) -> list[float]:
        if len(cols) == len(fs):  # every column: no copies
            return _objective(x, w, exps, np.array(c)).tolist()
        idx = np.array(cols, dtype=int)
        return _objective(x[:, idx], w[:, idx], [e[idx] if isinstance(e, np.ndarray) else e
                                                 for e in exps], np.array(c)).tolist()

    finite = np.isfinite(x).all(axis=0)
    vmax = x.max(axis=0)
    lo = (vmax * 1e-12).tolist()
    hi = (np.maximum(pairwise_sums(w * x), vmax) * (1.0 + pairwise_sums(w))).tolist()
    failed = {i: "grid function must have finite values"
              for i in np.flatnonzero(~finite).tolist()}
    cols = np.flatnonzero(finite & (vmax > 0.0)).tolist()  # the zero function has norm 0

    open_ = cols
    for _ in range(200):  # double hi until the objective there is <= 1
        if not open_:
            break
        open_ = [i for i, v in zip(open_, objective(open_, [hi[i] for i in open_]))
                 if not v <= 1.0]
        for i in open_:
            hi[i] *= 2.0
    for i in open_:
        failed[i] = "objective never dropped below 1; values too large"
    cols = [i for i in cols if i not in failed]

    open_ = cols
    while open_:  # halve lo, pulling hi down to it, until the objective there is >= 1
        open_ = [i for i, v in zip(open_, objective(open_, [lo[i] for i in open_]))
                 if not v >= 1.0]
        for i in open_:
            hi[i] = min(hi[i], lo[i])
            lo[i] *= 0.5
            if lo[i] == 0.0:
                failed[i] = "objective stayed below 1 down to c = 0"
        open_ = [i for i in open_ if lo[i] != 0.0]
    if failed:
        raise NonFinite(failed[min(failed)])

    open_ = cols
    while True:  # bisect until the bracket is narrow or its midpoint stops moving
        mid = {i: 0.5 * (lo[i] + hi[i]) for i in open_ if hi[i] - lo[i] > _NORM_TOL * hi[i]}
        open_ = [i for i, m in mid.items() if lo[i] < m < hi[i]]
        if not open_:
            break
        for i, v in zip(open_, objective(open_, [mid[i] for i in open_])):
            if v <= 1.0:
                hi[i] = mid[i]
            else:
                lo[i] = mid[i]

    out = [LuxemburgResult(0.0, 0.0, (0.0, 0.0))] * len(fs)
    for i, at_norm in zip(cols, objective(cols, [hi[i] for i in cols])):
        out[i] = LuxemburgResult(hi[i], at_norm, (lo[i], hi[i]))
    return out


def luxemburg_norms(fs: Sequence[GridFn],
                    params: Sequence[YoungParams]) -> list[LuxemburgResult]:
    """Norm of each f at its own weight, by bisection on the normalization
    objective, all solved together.

    Each f is one column of the work arrays: |f| and its weights,
    zero-padded to the longest f, with its own exponent triple.  Work
    proceeds in blocks of BLOCK_SIZE functions.  The zero function
    short-circuits to 0.  Otherwise hi starts at max(L1, max|f|) (1 + mass)
    and doubles until the objective there is <= 1, and lo starts at
    1e-12 max|f| and halves (pulling hi down to it) until the objective
    there is >= 1.  Bisection then runs to a relative bracket width of
    1e-10.  The returned norm is the upper bracket endpoint, so the
    objective there is <= 1 by construction.  Zero padding moves no bit (see
    ``pairwise_sums``), so each f gets the result it gets alone.  Raises
    NonFinite for the first f that fails.
    """
    if len(fs) != len(params):
        raise InvalidInput(f"{len(fs)} grid functions but {len(params)} weights")
    return [res for i in range(0, len(fs), BLOCK_SIZE)
            for res in _solve_block(fs[i:i + BLOCK_SIZE], params[i:i + BLOCK_SIZE])]


def luxemburg_norm(f: GridFn, params: YoungParams) -> LuxemburgResult:
    """Norm of f for the given weight: luxemburg_norms of f alone."""
    return luxemburg_norms([f], [params])[0]


def entropies(densities: Sequence[GridFn], scales: Sequence[EntropyParams]) -> list[float]:
    """Gauge norm of each nonnegative density at its weight (1, n, r).

    Also verifies, density by density, the general upper bound by the raw
    weighted integral: norm <= max(1, integral of phi(density)).
    """
    if any(np.any(d.values < 0) for d in densities):
        raise NegativeDensity("density must be >= 0")
    youngs = [ep.young for ep in scales]
    out = []
    for d, young, res in zip(densities, youngs, luxemburg_norms(densities, youngs)):
        raw = integrate(GridFn(d.measure, phi(young, d.values)))
        bound = max(1.0, raw)
        if res.norm > bound * (1.0 + INEQ_SLACK):
            raise VerificationFailed(
                f"entropy {res.norm} exceeded its integral bound {bound}"
            )
        out.append(res.norm)
    return out


def entropy(density: GridFn, ep: EntropyParams) -> float:
    """Gauge norm of a nonnegative density at weight (1, n, r): entropies of
    the density alone."""
    return entropies([density], [ep])[0]


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

    Returns one record per f, passed iff lhs <= rhs up to slack.  Masses and
    constants are checked before any norm is solved.
    """
    masses = [f.measure.mass for f in fs]
    if not all(0 < mass < np.inf for mass in masses):
        raise ZeroMass("measure mass must be positive and finite")
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
    """Pointwise product inequality a*b <= phi(a) + PsiInv(b).

    Psi(t) = eta(t)^(1/p) / C with eta(t) = t^(p-1) log^q(1+t) log^r(1+log(1+t));
    its inverse is computed by bisection on [0, hi], hi the first of 1, 2, 4,
    ..., 2^1023 and the largest float where Psi reaches b.  If Psi stays below b
    there, PsiInv(b) exceeds every float and is taken as inf.
    """
    if not (0 <= a < np.inf and 0 <= b < np.inf):
        raise InvalidInput("need finite a, b >= 0")
    if params.degenerate:
        raise DegenerateParams("Psi is constant for (1, 0, 0); nothing to invert")
    lhs = a * b
    if lhs == 0.0:
        return True
    C = holder_young_constant(params)

    def psi(t: float) -> float:
        eta = _weight(np.asarray(t), params.p - 1.0, params.q, params.r)
        return float(eta) ** (1.0 / params.p) / C

    hi = 1.0
    while psi(hi) < b and hi < _FLOAT_MAX:
        hi = min(2.0 * hi, _FLOAT_MAX)
    if psi(hi) < b:
        psi_inv = np.inf
    else:
        psi_inv = bisect_monotone(psi, 0.0, hi, target=b, tol=1e-12 * max(1.0, hi))
    rhs = float(phi(params, np.asarray(a))) + psi_inv
    return lhs <= rhs * (1.0 + INEQ_SLACK)


def entropy_domination_factor(mass: float, r: float) -> float:
    """max(1, 1/log(2)^r + (e-1)*mass): converts an (n, r) entropy bound into
    an (n, 0) one on a measure of the given total mass."""
    return max(1.0, 1.0 / np.log(2.0) ** r + (np.e - 1.0) * mass)
