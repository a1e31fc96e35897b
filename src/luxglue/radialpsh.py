"""Radial potentials on C^n: complex-Hessian spectra, the reference chart
potential log(1 + |z|^2), and the quadruple-log family whose entropy stays
bounded while its oscillation blows up.

A radial potential f(t), t = |z|^2, has complex-Hessian eigenvalues f'(t)
with multiplicity n-1 and f'(t) + t f''(t); its determinant is their product.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, NonFinite, OutOfDomain
from .gluing import GlueProblem, glue
from .numgrid import (
    INEQ_SLACK,
    GridFn,
    Interval,
    Jet,
    SmoothFn,
    Verdict,
    WeightedMeasure,
    gauss_measure,
    geometric_gauss_measure,
    integrate,
    pairwise_sum,
    piecewise,
)
from .orlicz import EntropyParams, entropies
from .youngfn import phi

# Example normalization of the quadruple-log potential; the raw family used
# in the closed-form bounds drops it.
FEPS_COEFF = math.log(2.0) / 2.0

EPS_MAX = 1.0 / 16.0


@dataclass(frozen=True)
class RadialProfile:
    """A potential f(t = |z|^2) on C^n, n >= 2."""

    n: int
    fn: SmoothFn

    def __post_init__(self) -> None:
        if not (2 <= self.n < np.inf and int(self.n) == self.n):
            raise InvalidInput("complex dimension must be an integer >= 2")
        if self.fn.interval.lo < 0:
            raise InvalidInput("radial domain must sit inside [0, infinity)")


@dataclass(frozen=True)
class CounterexampleParams:
    eps: float
    n: int

    def __post_init__(self) -> None:
        if not 0 < self.eps < EPS_MAX:
            raise InvalidInput(f"eps must lie in (0, {EPS_MAX})")
        if not (2 <= self.n < np.inf and int(self.n) == self.n):
            raise InvalidInput("n must be an integer >= 2")


@dataclass(frozen=True)
class HessianSpectrum:
    lam_small: np.ndarray  # multiplicity n - 1; each field is shaped like t
    lam_big: np.ndarray
    det: np.ndarray


def hessian_spectrum(p: RadialProfile, t: float | np.ndarray) -> HessianSpectrum:
    """Eigenvalues and determinant of the complex Hessian of f(|z|^2) at t,
    a number or an array inside the profile's interval."""
    t = np.asarray(t, dtype=float)
    dom = p.fn.interval
    if not np.all((dom.lo - 1e-12 <= t) & (t <= dom.hi + 1e-12)):
        raise OutOfDomain(f"t in [{np.min(t)}, {np.max(t)}] is not inside {dom}")
    _, lam_small, f2 = p.fn.eval(t)
    lam_big = lam_small + t * f2
    return HessianSpectrum(lam_small, lam_big, lam_small ** (p.n - 1) * lam_big)


def fs_potential() -> SmoothFn:
    """Reference chart potential log(1 + t) with its derivatives."""
    return SmoothFn(
        Interval(0.0, 1e6),
        lambda t: (np.log1p(t), 1.0 / (1.0 + t), -1.0 / (1.0 + t) ** 2),
        name="log1p",
    )


def _reference_piece() -> SmoothFn:
    """The reference potential on [1, 4], the right piece of every chart glue."""
    return dataclasses.replace(fs_potential(), interval=Interval(1.0, 4.0))


def fs_background_det(n: int, t: np.ndarray) -> np.ndarray:
    """Complex-Hessian determinant of the reference potential: (1+t)^-(n+1)."""
    return (1.0 + np.asarray(t, dtype=float)) ** (-(n + 1))


# ---------------------------------------------------------------------------
# the quadruple-log family


def _feps_jet(t: np.ndarray, eps: float, coeff: float) -> Jet:
    u = 1.0 / (t + eps)
    L1 = np.log1p(u)
    L2 = np.log1p(L1)
    L3 = np.log1p(L2)
    p1, p2, p3 = 1 + L1, 1 + L2, 1 + L3
    D = (1 + u) * p1 * p2 * p3
    S = p1 * p2 * p3 + p2 * p3 + p3 + 1.0
    return (-coeff * np.log1p(L3), coeff * u * u / D,
            coeff * u**3 * (u * S - 2.0 * D) / D**2)


def feps_smoothfn(eps: float, lo: float = 0.0, hi: float = 0.25) -> SmoothFn:
    """Carrier of the normalized family on the nominal interval [lo, hi],
    lo >= 0 since the family is a function of t = |z|^2; the jet takes any
    t > -eps, so constructions may probe slightly past the interval."""
    if not 0 < eps < np.inf:
        raise InvalidInput(f"eps must be positive and finite, got {eps}")
    if not lo >= 0:
        raise InvalidInput(f"the interval [{lo:g}, {hi:g}] must lie in t = |z|^2 >= 0")
    return SmoothFn(Interval(lo, hi), lambda t: _feps_jet(t, eps, FEPS_COEFF),
                    name=f"feps[{eps:g}]")


def _eps_panels(eps: float, h: int) -> int:
    """Panels of a ratio-2 geometric rule on [0, 2^-h] whose finest panel,
    of width ~ 2^-(h+panels), is at most ~4 eps wide; never fewer than 40."""
    return max(40, math.ceil(math.log2(1.0 / eps)) - 2 - h)


@dataclass(frozen=True)
class AppendixReport:
    integral: float
    # Quadrature of t^(n-1) F on the same nodes; its exact value is
    # ((1/4) f'(1/4))^n / n, so the gap is the rule's error.
    mass: float


def _appendix_rule(eps: float) -> WeightedMeasure:
    """The geometric Gauss rule of ``appendix_c_bounds`` at eps on [0, 1/4]."""
    return geometric_gauss_measure(Interval(0.0, 0.25), panels=_eps_panels(eps, 2), order=16)


def appendix_c_bounds(params: CounterexampleParams,
                      rule: WeightedMeasure | None = None) -> AppendixReport:
    """The chart-weighted entropy integral of the determinant F on [0, 1/4]
    for the raw (coefficient-1) family.

    The integrand varies on the scale t ~ eps, so the geometric rule follows
    eps (see ``_eps_panels``): 40 panels down to eps = 2^-44, one more per
    halving of eps past that.  ``rule`` is that rule when the caller has it
    (``entropy_sweep`` builds one per panel count), else it is built here.
    Raises NonFinite once eps is so small (about 2^-250) that the family's
    second derivative overflows.
    """
    eps, n = params.eps, params.n
    raw = RadialProfile(n, SmoothFn(Interval(0.0, 0.25), lambda t: _feps_jet(t, eps, 1.0)))
    with np.errstate(over="ignore", invalid="ignore"):
        if not np.isfinite(raw.fn.d2(0.0)):
            raise NonFinite(f"the family's f'' overflows at t = 0 for eps = {eps:g}")
    m = _appendix_rule(eps) if rule is None else rule
    tt = m.nodes
    F = hessian_spectrum(raw, tt).det
    tn = tt ** (n - 1)
    logF = np.log1p(F)
    integral = pairwise_sum(m.weights * (tn * F * logF ** n * np.log1p(logF) ** (n - 1)))
    mass = pairwise_sum(m.weights * tn * F)
    return AppendixReport(integral, mass)


def appendix_bound(n: int) -> float:
    """eps-free upper bound B_n on the appendix integral (docs/DECISIONS.md,
    section 3b): G(4)^n W(4) / n + n^(n-1) a^(n-2) (n a + n - 1)
    / ((n-1) (1 + l3)^(n-1)), with l1, l2, l3 the iterated log1p of 4,
    G(4) = phi(4)/4, W(4) = n^n l1^n (log n + l2)^(n-1), a = max(1, log n)."""
    v = 4.0
    l1 = math.log1p(v)
    l2 = math.log1p(l1)
    l3 = math.log1p(l2)
    g4 = v / ((1 + v) * (1 + l1) * (1 + l2) * (1 + l3))
    w4 = n**n * l1**n * (math.log(n) + l2) ** (n - 1)
    a = max(1.0, math.log(n))
    tail = n ** (n - 1) * a ** (n - 2) * (n * a + n - 1) / ((n - 1) * (1 + l3) ** (n - 1))
    return g4**n * w4 / n + tail


# ---------------------------------------------------------------------------
# the assembled chart potential and its entropy sweep


def build_v_eps(params: CounterexampleParams,
                reference: SmoothFn | None = None) -> RadialProfile:
    """The chart potential for the given eps: the quadruple-log family near
    0, the reference potential past t = 1, and a strictly psh radial glue on
    the band between.

    Glue pieces sit on t in [1/64, 1/16] (the family) and [1, 4] (the
    reference); the glue happens in log coordinates and is exact on both
    pieces, so the seams at 1/16 and 1 are exact.  ``reference`` is the
    reference piece on [1, 4] when the caller has one (``entropy_sweep``
    hands every row one piece, which keeps the glue's products that do not
    depend on eps), else a fresh one is built.
    """
    eps, n = params.eps, params.n
    left = feps_smoothfn(eps, lo=1.0 / 64.0, hi=1.0 / 16.0)
    right = _reference_piece() if reference is None else reference
    h = glue(GlueProblem(left, right, "radial", n=n)).h
    # t <= 1/16 is the family's, 1/16 < t < 1 the glue's and t >= 1 the reference's
    edges, jets = (1.0 / 16.0, 1.0), (left.jet, h.jet, right.jet)
    return RadialProfile(n, SmoothFn(Interval(0.0, 9.0), lambda t: piecewise(t, edges, jets),
                                     name=f"veps[{eps:g}]"))


def chart_measure(n: int, eps: float = EPS_MAX) -> WeightedMeasure:
    """Reference chart measure on t = |z|^2 with total mass pi^n / n!, fine
    enough near t = 0 for the density of the chart potential at eps.

    Radial weight K t^(n-1) (1+t)^-(n+1) with K = pi^n / (n-1)!; the region
    t > 1, where the assembled potential coincides with the reference one and
    every density in the sweep equals 1, enters as a single atom carrying the
    exact remaining mass (1 - 2^-n) K / n.  The density varies on the scale
    t ~ eps, so the geometric rule on [0, 1/16] follows eps (see
    ``_eps_panels``): 40 panels down to eps = 2^-46, one more per halving of
    eps past that.
    """
    K = math.pi**n / math.factorial(n - 1)
    core = (geometric_gauss_measure(Interval(0.0, 1.0 / 16.0), _eps_panels(eps, 4), order=16),
            gauss_measure(Interval(1.0 / 16.0, 1.0), panels=24, order=16))
    t = np.concatenate([m.nodes for m in core])
    w = np.concatenate([m.weights for m in core]) * (
        K * t ** (n - 1) * (1.0 + t) ** (-(n + 1)))
    tail_mass = K * (1.0 - 2.0 ** (-n)) / n
    return WeightedMeasure(np.append(t, 2.0), np.append(w, tail_mass))


def chart_total_mass(n: int) -> float:
    return math.pi**n / math.factorial(n)


def density_ratio(profile: RadialProfile, measure: WeightedMeasure) -> GridFn:
    """Determinant of the assembled potential against the reference
    determinant; identically 1 past t = 1."""
    t = measure.nodes
    dens = hessian_spectrum(profile, t).det * (1.0 + t) ** (profile.n + 1)
    return GridFn(measure, np.where(t >= 1.0, 1.0, dens))


def chart_density(n: int, eps: float) -> GridFn:
    """Density ratio of the chart potential at eps on the chart measure for
    eps, the same bits as the row of ``entropy_sweep`` at eps."""
    return density_ratio(build_v_eps(CounterexampleParams(eps, n)), chart_measure(n, eps))


@dataclass(frozen=True)
class SweepRow:
    eps: float
    ent: tuple[float, ...]  # one entry per r of the sweep
    ent_bound: tuple[float, ...]  # max(1, integral of phi(density)) per r
    osc: float
    apx_integral: float  # appendix_c_bounds(...).integral


def entropy_sweep(n: int, rs, eps_list) -> list[SweepRow]:
    """For each eps: one chart density, its entropy at weight (1, n, r) and
    that entropy's upper bound max(1, integral of phi(density)) for every r in
    rs, the oscillation proxy |f(0)| of the family and the appendix integral.
    Every (eps, r) entropy is solved in one ``entropies`` call.

    What does not depend on eps is built once per sweep and handed to every
    row: the reference piece, and the chart measure and the appendix rule per
    panel count (``_eps_panels``).  All of it goes with the sweep
    (docs/DECISIONS.md, section 11)."""
    scales = [EntropyParams(n, r) for r in rs]
    params = [CounterexampleParams(float(eps), n) for eps in eps_list]
    reference = _reference_piece()
    # chart_measure and _appendix_rule depend on eps through these panel counts alone
    chart_k, rule_k = ([_eps_panels(p.eps, h) for p in params] for h in (4, 2))
    measures = {k: chart_measure(n, p.eps) for k, p in dict(zip(chart_k, params)).items()}
    rules = {k: _appendix_rule(p.eps) for k, p in dict(zip(rule_k, params)).items()}
    dens = [density_ratio(build_v_eps(p, reference), measures[k]) for p, k in zip(params, chart_k)]
    pairs = [(d, ep) for d in dens for ep in scales]
    ents = entropies([d for d, _ in pairs], [ep for _, ep in pairs])
    bounds = [max(1.0, integrate(GridFn(d.measure, phi(ep.young, d.values)))) for d, ep in pairs]
    m = len(scales)
    return [SweepRow(p.eps, tuple(ents[i * m:(i + 1) * m]), tuple(bounds[i * m:(i + 1) * m]),
                     abs(float(feps_smoothfn(p.eps).d0(0.0))),
                     appendix_c_bounds(p, rules[k]).integral)
            for i, (p, k) in enumerate(zip(params, rule_k))]


def sweep_verdicts(rs: tuple[float, float], rows: list[SweepRow]) -> list[Verdict]:
    """The sweep's verdicts from ``entropy_sweep`` rows at rs = (r_low, r_high):
    max/min <= 10 at r_low, strict increase at r_high and of the oscillation,
    the appendix integrals finite with max/min <= 10, a ratio not promised
    (docs/DECISIONS.md, sections 3c and 3d), and last every entropy at most
    its bound max(1, integral of phi(density)): lhs the largest ratio."""
    ent_low = np.array([row.ent[0] for row in rows])
    ent_high = np.array([row.ent[1] for row in rows])
    osc = np.array([row.osc for row in rows])
    apx = np.array([row.apx_integral for row in rows])
    plateau = float(ent_low.max() / ent_low.min())
    apx_ratio = float(apx.max() / apx.min())
    bound_ratio = max(e / b for row in rows for e, b in zip(row.ent, row.ent_bound))
    return [
        Verdict(f"ent_plateau_r_{rs[0]:g}", plateau <= 10.0, plateau, 10.0, 0),
        Verdict(f"ent_increasing_r_{rs[1]:g}", np.all(np.diff(ent_high) > 0),
                np.min(np.diff(ent_high)), 0.0, 0),
        Verdict("osc_strictly_increasing", np.all(np.diff(osc) > 0), np.min(np.diff(osc)), 0.0, 0),
        Verdict("appendix_integral_uniform", np.isfinite(apx).all() and apx_ratio <= 10.0,
                apx_ratio, 10.0, 0),
        Verdict("ent_le_integral_bound", bound_ratio <= 1.0 + INEQ_SLACK, bound_ratio, 1.0,
                INEQ_SLACK),
    ]

