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
from .gluing import GluePiece, GlueProblem, GlueResult, glue
from .numgrid import (
    GridFn,
    Interval,
    Jet,
    SmoothFn,
    WeightedMeasure,
    gauss_measure,
    geometric_gauss_measure,
    merge_measures,
    pairwise_sum,
    piecewise,
)
from .orlicz import EntropyParams, entropies, luxemburg_norm

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
        if self.n < 2:
            raise InvalidInput("complex dimension must be >= 2")
        if self.fn.domain.lo < 0:
            raise InvalidInput("radial domain must sit inside [0, infinity)")


@dataclass(frozen=True)
class CounterexampleParams:
    eps: float
    n: int

    def __post_init__(self) -> None:
        if not 0 < self.eps < EPS_MAX:
            raise InvalidInput(f"eps must lie in (0, {EPS_MAX})")
        if self.n < 2:
            raise InvalidInput("n must be >= 2")


@dataclass(frozen=True)
class HessianSpectrum:
    lam_small: float  # multiplicity n - 1
    lam_big: float
    det: float


def hessian_spectrum(p: RadialProfile, t: float) -> HessianSpectrum:
    """Eigenvalues and determinant of the complex Hessian of f(|z|^2) at t."""
    if not p.fn.domain.contains(t, slack=1e-12):
        raise OutOfDomain(f"t={t} outside {p.fn.domain}")
    _, f1, f2 = p.fn.eval(t)
    lam_small = float(f1)
    lam_big = lam_small + t * float(f2)
    return HessianSpectrum(lam_small, lam_big, lam_small ** (p.n - 1) * lam_big)


@dataclass(frozen=True)
class PshReport:
    min_small: float
    arg_small: float
    min_big: float
    arg_big: float
    strict: bool


def psh_check(p: RadialProfile, grid: WeightedMeasure) -> PshReport:
    """Minimum eigenvalues over the grid; strictly psh iff both positive."""
    t = grid.nodes
    _, small, f2 = p.fn.eval(t)
    big = small + t * f2
    i, j = int(np.argmin(small)), int(np.argmin(big))
    return PshReport(
        float(small[i]), float(t[i]), float(big[j]), float(t[j]),
        bool(small[i] > 0 and big[j] > 0),
    )


def fs_potential() -> SmoothFn:
    """Reference chart potential log(1 + t) with its derivatives."""
    return SmoothFn(
        Interval(0.0, 1e6),
        lambda t: (np.log1p(t), 1.0 / (1.0 + t), -1.0 / (1.0 + t) ** 2),
        name="log1p",
    )


def fs_profile(n: int) -> RadialProfile:
    return RadialProfile(n, fs_potential())


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
    D = (1 + u) * (1 + L1) * (1 + L2) * (1 + L3)
    S = (1 + L1) * (1 + L2) * (1 + L3) + (1 + L2) * (1 + L3) + (1 + L3) + 1.0
    return (-coeff * np.log1p(L3), coeff * u * u / D,
            coeff * u**3 * (u * S - 2.0 * D) / D**2)


def f_eps_jet(params: CounterexampleParams, t) -> Jet:
    """(f, f', f'') of the normalized quadruple-log family on [0, 1/4]."""
    t = np.asarray(t, dtype=float)
    if not np.all((t >= 0) & (t <= 0.25 + 1e-12)):
        raise OutOfDomain("the quadruple-log family lives on [0, 1/4]")
    return _feps_jet(t, params.eps, FEPS_COEFF)


def f_eps_at_zero(params: CounterexampleParams) -> float:
    return float(f_eps_jet(params, 0.0)[0])


def feps_smoothfn(eps: float, lo: float = 0.0, hi: float = 0.25,
                  coeff: float = FEPS_COEFF) -> SmoothFn:
    """Unguarded carrier for constructions that probe slightly past [lo, hi]."""
    return SmoothFn(Interval(lo, hi), lambda t: _feps_jet(t, eps, coeff),
                    name=f"feps[{eps:g}]")


def feps_profile(params: CounterexampleParams) -> RadialProfile:
    return RadialProfile(params.n, feps_smoothfn(params.eps))


def _eps_panels(eps: float, h: int) -> int:
    """Panels of a ratio-2 geometric rule on [0, 2^-h] whose finest panel,
    of width ~ 2^-(h+panels), is at most ~4 eps wide; never fewer than 40."""
    return max(40, math.ceil(math.log2(1.0 / eps)) - 2 - h)


@dataclass(frozen=True)
class AppendixReport:
    eps: float
    n: int
    sup_big_eigen: float
    integral: float
    # Quadrature of t^(n-1) F on the same nodes; its exact value is
    # ((1/4) f'(1/4))^n / n, so the gap is the rule's error.
    mass: float


def appendix_c_bounds(params: CounterexampleParams, t0: float) -> AppendixReport:
    """Sup of the big eigenvalue on [t0, 1/4] and the chart-weighted entropy
    integral of the determinant F on [0, 1/4], both for the raw
    (coefficient-1) family.

    The integrand varies on the scale t ~ eps, so the geometric rule follows
    eps (see ``_eps_panels``): 40 panels down to eps = 2^-44, one more per
    halving of eps past that.  Raises NonFinite once eps is so small (about
    2^-250) that the family's second derivative overflows.
    """
    if not 0 < t0 < 0.25:
        raise InvalidInput("t0 must lie in (0, 1/4)")
    eps, n = params.eps, params.n
    with np.errstate(over="ignore", invalid="ignore"):
        if not np.isfinite(_feps_jet(np.asarray(0.0), eps, 1.0)[2]):
            raise NonFinite(f"the family's f'' overflows at t = 0 for eps = {eps:g}")
    t = np.linspace(t0, 0.25, 4097)
    _, f1, f2 = _feps_jet(t, eps, 1.0)
    sup_big = float(np.max(f1 + t * f2))
    m = geometric_gauss_measure(Interval(0.0, 0.25), panels=_eps_panels(eps, 2), order=16)
    tt = m.nodes
    _, f1, f2 = _feps_jet(tt, eps, 1.0)
    F = f1 ** (n - 1) * (f1 + tt * f2)
    integrand = (
        tt ** (n - 1)
        * F
        * np.log1p(F) ** n
        * np.log1p(np.log1p(F)) ** (n - 1)
    )
    integral = pairwise_sum(m.weights * integrand)
    mass = pairwise_sum(m.weights * tt ** (n - 1) * F)
    return AppendixReport(eps, n, sup_big, integral, mass)


# ---------------------------------------------------------------------------
# the assembled chart potential and its entropy sweep


@dataclass(frozen=True)
class ChartPotential:
    """Potential equal to the quadruple-log family near 0, the reference
    potential past t = 1, and a strictly psh radial glue on the band between."""

    params: CounterexampleParams
    profile: RadialProfile
    glue_result: GlueResult


def build_v_eps(params: CounterexampleParams) -> ChartPotential:
    """Assemble the chart potential for the given eps.

    Glue pieces sit on t in [1/64, 1/16] (the family) and [1, 4] (the
    reference); the glue happens in log coordinates and is exact on both
    pieces, so the seams at 1/16 and 1 are exact.
    """
    eps, n = params.eps, params.n
    left = GluePiece(feps_smoothfn(eps, lo=1.0 / 64.0, hi=1.0 / 16.0))
    fs = fs_potential()
    right = GluePiece(dataclasses.replace(fs, domain=Interval(1.0, 4.0)))
    result = glue(GlueProblem(left, right, "radial_psh", n=n))
    h = result.h
    b1, a2 = 1.0 / 16.0, 1.0

    def jet(t: np.ndarray) -> Jet:
        return piecewise(t, [(t <= b1, left.fn.jet), (t >= a2, fs.jet),
                             ((t > b1) & (t < a2), h.jet)])

    profile = RadialProfile(n, SmoothFn(Interval(0.0, 9.0), jet, name=f"veps[{eps:g}]"))
    return ChartPotential(params, profile, result)


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
    core1 = geometric_gauss_measure(Interval(0.0, 1.0 / 16.0),
                                    panels=_eps_panels(eps, 4), order=16)
    core2 = gauss_measure(Interval(1.0 / 16.0, 1.0), panels=24, order=16)
    core = merge_measures(core1, core2)
    w = K * core.nodes ** (n - 1) * (1.0 + core.nodes) ** (-(n + 1))
    tail_mass = K * (1.0 - 2.0 ** (-n)) / n
    tail = WeightedMeasure(np.array([2.0]), np.array([tail_mass]))
    return merge_measures(WeightedMeasure(core.nodes, core.weights * w), tail)


def chart_total_mass(n: int) -> float:
    return math.pi**n / math.factorial(n)


def density_ratio(chart: ChartPotential, measure: WeightedMeasure) -> GridFn:
    """Determinant of the assembled potential against the reference
    determinant; identically 1 past t = 1."""
    n = chart.params.n
    t = measure.nodes
    _, lam1, f2 = chart.profile.fn.eval(t)
    lam2 = lam1 + t * f2
    dens = lam1 ** (n - 1) * lam2 * (1.0 + t) ** (n + 1)
    dens = np.where(t >= 1.0, 1.0, dens)
    return GridFn(measure, dens)


def chart_density(n: int, eps: float) -> GridFn:
    """Density ratio of the chart potential at eps on the chart measure for
    eps; the only builder of a sweep density."""
    chart = build_v_eps(CounterexampleParams(eps, n))
    return density_ratio(chart, chart_measure(n, eps))


@dataclass(frozen=True)
class SweepRow:
    eps: float
    ent: tuple[float, ...]  # one entry per r of the sweep
    osc: float


def entropy_sweep(n: int, rs, eps_list) -> list[SweepRow]:
    """For each eps: one chart density, its entropy at weight (1, n, r) for
    every r in rs, and the oscillation proxy |f(0)| of the family.  Every (eps, r)
    entropy is solved in one ``entropies`` call."""
    scales = [EntropyParams(n, r) for r in rs]
    eps_list = [float(eps) for eps in eps_list]
    dens = [chart_density(n, eps) for eps in eps_list]
    ents = entropies([d for d in dens for _ in scales], scales * len(dens))
    return [SweepRow(eps, tuple(ents[i * len(scales):(i + 1) * len(scales)]),
                     abs(f_eps_at_zero(CounterexampleParams(eps, n))))
            for i, eps in enumerate(eps_list)]


def fs_constant_density_norm(n: int, r: float) -> float:
    """Entropy of the unit density on the chart measure (the trivial solution
    whose density is identically 1); scalar cross-check for the sweep."""
    m = chart_measure(n)
    return luxemburg_norm(GridFn(m, np.ones_like(m.nodes)), EntropyParams(n, r).young).norm
