"""Constructive C^2 gluing of two convex pieces on disjoint intervals.

Each piece is a SmoothFn, matched exactly on its interval.  Three modes:

* strict: h'' stays between a positive floor c and a ceiling, both
  certified;
* convex: the zero-floor variant (c = 0) with a certified upper curvature
  bound;
* radial: pieces are radial potentials in t = |z|^2; the strict glue runs on
  the log pieces H(tau) = f(e^tau) and h returns to t-space, preserving
  strict plurisubharmonicity, with a certified determinant bound on the
  bridge band.

``glue()`` checks each piece's derivatives, probes its curvature with one jet
evaluation on 2,049 points (a radial glue's pieces in log coordinates),
whose end nodes also give every end value the construction reads, then
builds h with closed-form certificates and never samples h;
``verify_glue()`` samples h'' (a radial glue's H'' and H', and its bridge
determinant) on 16,385 points on request, so its extremes (and the glue's
verdicts) are not enclosures.

The construction: extend each piece past both ends of its interval, damping
f'' to a floor c through a smooth cutoff of width ds, then bridge the two
extensions on (b1, a2) with a regularized max built from a mollified |t|.
h is one sorted table of edges a1 - ds, a1, b1, b1 + ds, a2 - ds, a2, b2,
b2 + ds with one jet per segment.  Each end's cumulative tables are built the
first time h is evaluated past that end, so a radial density, which reads h
only on the bridge, builds two of the four.

What depends on a piece alone is kept on the piece (``_kept``): its log
piece, its derivative-contract check, its probe per margin and its f'' on
each end's table nodes per ds, evaluated in blocks of _BLOCK_N nodes.
Glues of one piece, such as the rows of an eps-sweep, which share its
reference piece, make these once; only the tables' integration, which
depends on the floor c, runs per glue.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import (
    DeltaSearchFailed,
    IncompatiblePieces,
    InvalidInput,
    NonPositiveEps,
    NotStrictlyConvexPiece,
    VerificationFailed,
)
from .numgrid import (Interval, Jet, SmoothFn, Verdict, check_derivative_consistency,
                      gauss_legendre, piecewise)

# Curvature ceiling constant of the mollified absolute value: rho'' <= M/eps.
# The bump mollifier actually peaks near 1.66/eps; certificates use M = 3.
MOLLIFIER_M = 3.0

_TABLE_N = 2048
_PROBE_N = 2049
_WORK_N = 16385
# table nodes per jet call: a call on all 10,241 nodes makes temporaries of
# 80 KB, which the allocator hands back to the system and faults in again
# on every call (docs/DECISIONS.md, section 11)
_BLOCK_N = 4096


# ---------------------------------------------------------------------------
# fixed data: one node array on the unit interval, the bump's cumulative
# tables and the cutoff on the nodes, built once on the first glue


def _bump(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    inside = np.abs(x) < 1.0
    xi = x[inside]
    out[inside] = np.exp(-1.0 / (1.0 - xi * xi))
    return out


def _tables(vals: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(I, J, g) at the step ends for an integrand g given by its values on
    ``_fixed().nodes``: I(s) = integral of g over [0, s], by 4-point Gauss
    per step, and J(s) = integral of I, exact for the Hermite cubic of I."""
    n = _TABLE_N
    inc = (0.5 / n) * (vals[:4 * n].reshape(n, 4) @ gauss_legendre(4)[1])
    g = vals[4 * n:]
    I = np.concatenate([[0.0], np.cumsum(inc)])
    d = 1.0 / n
    incJ = d * (0.5 * (I[:-1] + I[1:]) + d * (g[:-1] - g[1:]) / 12.0)
    return I, np.concatenate([[0.0], np.cumsum(incJ)]), g


def _hermite(sq: np.ndarray, *pairs: tuple[np.ndarray, np.ndarray]) -> list[np.ndarray]:
    """Cubic Hermite interpolation on [0, 1] at sq, one interpolant per pair
    (V, D) of step-end values V with exact derivatives D (g for I, I for J),
    all from one cubic basis."""
    sq = np.minimum(np.maximum(np.asarray(sq, dtype=float), 0.0), 1.0)
    i = np.minimum(np.maximum((sq * _TABLE_N).astype(int), 0), _TABLE_N - 1)
    i1 = i + 1
    d = 1.0 / _TABLE_N
    x = sq * _TABLE_N - i
    x2 = x * x
    x3 = x2 * x
    b0, b1 = 2 * x3 - 3 * x2 + 1, -2 * x3 + 3 * x2
    b2, b3 = x3 - 2 * x2 + x, x3 - x2
    return [V.take(i) * b0 + V.take(i1) * b1 + d * (D.take(i) * b2 + D.take(i1) * b3)
            for V, D in pairs]


def _cdf(x: np.ndarray, Ix: np.ndarray, mass: float) -> np.ndarray:
    """Normalized CDF of the bump from its I table's interpolant Ix at |x|:
    0 at -1, 1/2 at 0, 1 at +1."""
    return 0.5 + np.sign(x) * Ix / mass


class _Fixed(NamedTuple):
    nodes: np.ndarray  # the 4 Gauss points of each step, then the step ends
    I: np.ndarray  # the bump's tables on [0, 1], mirrored for x < 0
    J: np.ndarray
    g: np.ndarray
    mass: float  # of the bump on [-1, 1]
    cutoff: np.ndarray  # 1 - smoothstep on the nodes


@functools.cache
def _fixed() -> _Fixed:
    """Read-only; built on the first call, so importing builds no table."""
    n = _TABLE_N
    s = np.linspace(0.0, 1.0, n + 1)
    mid = 0.5 * (s[:-1] + s[1:])
    nodes = np.concatenate([(mid[:, None] + (0.5 / n) * gauss_legendre(4)[0][None, :]).ravel(), s])
    I, J, g = _tables(_bump(nodes))
    mass = 2.0 * float(I[-1])
    x = 2.0 * nodes - 1.0
    fixed = _Fixed(nodes, I, J, g, mass, 1.0 - _cdf(x, _hermite(np.abs(x), (I, g))[0], mass))
    for a in (nodes, I, J, g, fixed.cutoff):
        a.setflags(write=False)
    return fixed


def smoothstep(s: np.ndarray) -> np.ndarray:
    """C^infinity monotone step on [0, 1] (bump CDF reparametrized)."""
    fx = _fixed()
    x = 2.0 * np.asarray(s, dtype=float) - 1.0
    return _cdf(x, _hermite(np.abs(x), (fx.I, fx.g))[0], fx.mass)


def rho_eps(eps: float) -> SmoothFn:
    """Mollified absolute value of radius eps.

    Equals |t| for |t| >= eps; everywhere even, >= |t|, with |slope| <= 1 and
    curvature in [0, M/eps] (measured peak about 1.66/eps).
    """
    if not eps > 0:
        raise NonPositiveEps(f"eps must be positive, got {eps}")
    fx = _fixed()
    cdf_at_0 = 0.5 - float(fx.J[-1]) / fx.mass  # CDF integral from -1 to 0

    def inner(t: np.ndarray) -> Jet:
        x = t / eps
        ax = np.abs(x)
        Jx, Ix = _hermite(ax, (fx.J, fx.I), (fx.I, fx.g))
        cdf_integral = cdf_at_0 + (0.5 * ax + Jx / fx.mass) + np.where(x < 0, x, 0.0)
        return (2.0 * eps * cdf_integral - t, 2.0 * _cdf(x, Ix, fx.mass) - 1.0,
                2.0 * (_bump(x) / fx.mass) / eps)

    def jet(t: np.ndarray) -> Jet:
        out = np.abs(t), np.sign(t), np.zeros(t.shape)
        core = np.abs(t / eps) < 1.0  # a bridge's F - G: chosen by value, not by t
        if core.any():
            for o, v in zip(out, inner(t[core])):
                o[core] = v
        return out

    return SmoothFn(Interval(-2.0 * eps, 2.0 * eps), jet, name=f"rho[{eps:g}]")


# ---------------------------------------------------------------------------
# problem/result containers


MODES = ("convex", "radial", "strict")


@dataclass(frozen=True)
class GlueProblem:
    left: SmoothFn
    right: SmoothFn
    mode: str
    n: int = 2  # complex dimension, used by radial certificates only

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise InvalidInput(f"mode must be one of {MODES}")
        a1, b1 = self.left.interval.lo, self.left.interval.hi
        a2, b2 = self.right.interval.lo, self.right.interval.hi
        if not a1 < b1 < a2 < b2:
            raise InvalidInput(f"need a1 < b1 < a2 < b2, got intervals "
                               f"[{a1:g}, {b1:g}] and [{a2:g}, {b2:g}]")
        if self.mode == "radial" and not a1 > 0:
            raise InvalidInput("radial mode needs a1 > 0")
        if not (1 <= self.n < np.inf and int(self.n) == self.n):
            raise InvalidInput("n must be an integer >= 1")

    @property
    def probes(self) -> tuple[_Probe, _Probe]:
        """``_probe`` of the left and the right piece at margin 0: the curvature
        demands, the slope chain, ``delta_search`` and the extensions read it."""
        return _probe(self.left), _probe(self.right)


@dataclass(frozen=True)
class CompatReport:
    lhs: float
    mid: float
    rhs: float
    ok: bool


@dataclass(frozen=True)
class GlueResult:
    problem: GlueProblem
    h: SmoothFn
    c: float  # the curvature floor, certified inf h'' (the log glue's inf H'' if radial)
    delta: float
    eps: float
    cert_sup_h2: float
    working: Interval
    compat: CompatReport
    log_result: "GlueResult | None" = None
    det_cert: float | None = None


@dataclass(frozen=True)
class GlueCheck:
    inf_h2: float
    sup_h2: float
    det_sup: float | None  # radial glues only
    verdicts: tuple[Verdict, ...]


def compatibility(problem: GlueProblem) -> CompatReport:
    """Slope chain f'(b1) < (g(a2) - f(b1)) / (a2 - b1) < g'(a2), whose strict
    ordering is necessary and sufficient for a glue to exist.  A radial
    problem's chain is that of its log pieces: since H' = t f', it reads
    b1 f'(b1) < (g(a2) - f(b1)) / log(a2/b1) < a2 g'(a2)."""
    f, g = problem.left, problem.right
    if problem.mode == "radial":
        f, g = _log_piece(f), _log_piece(g)
    b1, a2 = f.interval.hi, g.interval.lo
    fb, lhs, _ = _probe(f).hi
    ga, rhs, _ = _probe(g).lo
    mid = (ga - fb) / (a2 - b1)
    return CompatReport(lhs, mid, rhs, bool(lhs < mid < rhs))


def _kept(fn: SmoothFn, key: tuple, make: Callable[[], object]):
    """fn's product under key: made on first use and kept on fn, so that it
    lives as long as fn does.  A product must depend on fn and key alone."""
    kept = fn._kept
    if key not in kept:
        kept[key] = make()
    return kept[key]


class _Probe(NamedTuple):
    """What a glue reads of a piece on its interval widened by a margin."""

    min_f1: float
    min_f2: float
    max_f2: float
    lo: tuple[float, float, float]  # (f, f', f'') at the widened interval's ends
    hi: tuple[float, float, float]


def _probe(fn: SmoothFn, margin: float = 0.0) -> _Probe:
    """fn on _PROBE_N points of its interval widened by margin, from one jet
    evaluation, kept on fn per margin.  The first and last points are the
    widened ends, so the jets there are the ones a single-point evaluation
    reads.  A NaN at any point makes the extremes NaN, so every demand on
    them is written as membership, which a NaN fails."""

    def make() -> _Probe:
        lo, hi = fn.interval.lo - margin, fn.interval.hi + margin
        f0, f1, f2 = fn.eval(np.linspace(lo, hi, _PROBE_N))
        return _Probe(float(np.min(f1)), float(np.min(f2)), float(np.max(f2)),
                      (float(f0[0]), float(f1[0]), float(f2[0])),
                      (float(f0[-1]), float(f1[-1]), float(f2[-1])))

    return _kept(fn, ("probe", margin), make)


def delta_search(problem: GlueProblem, c: float, compat: CompatReport) -> float:
    """Largest dyadic margin delta = (a2-b1)/2^j, j = 2..60, satisfying the
    side conditions of the construction at probe-grid resolution, given the
    problem's ``compatibility`` chain."""
    if problem.mode == "radial":
        raise InvalidInput("delta search runs on the log-coordinate problem")
    f, g = problem.left, problem.right
    b1, a2 = f.interval.hi, g.interval.lo
    gap = a2 - b1
    if not compat.ok:
        raise DeltaSearchFailed("compatibility chain fails; conditions unsatisfiable")
    pf, pg = problem.probes
    sup_f, sup_g = pf.max_f2, pg.max_f2
    mid = compat.mid
    f1b, g1a = compat.lhs, compat.rhs
    f_b1, g_a2 = pf.hi[0], pg.lo[0]

    for j in range(2, 61):
        delta = gap / 2.0**j
        pf_d, pg_d = _probe(f, delta), _probe(g, delta)
        if not (pf_d.max_f2 <= sup_f + 1.0 and pg_d.max_f2 <= sup_g + 1.0):
            continue
        fb, fpb, _ = pf_d.hi  # at b1 + delta
        ga, gpa, _ = pg_d.lo  # at a2 - delta
        if problem.mode == "strict":
            if not (pf_d.min_f2 >= c and pg_d.min_f2 >= c):
                continue
            if not (gpa - fpb) / (gap - 2 * delta) > c:
                continue
            lhs4 = 2.0 * ((g_a2 - fb) / (gap - delta) - fpb) / (gap - delta)
            if not lhs4 >= c / 2.0 + (mid - f1b) / gap:
                continue
            lhs5 = 2.0 * (gpa - (ga - f_b1) / (gap - delta)) / (gap - delta)
            if not lhs5 >= c / 2.0 + (g1a - mid) / gap:
                continue
        else:
            # convex mode: the pieces' global formulas stand in for convex
            # extensions, so the extension must stay convex on the margins
            floor = -1e-12 * (1.0 + max(abs(sup_f), abs(sup_g)))
            if not (pf_d.min_f2 >= floor and pg_d.min_f2 >= floor):
                continue
            if not fpb < gpa:
                continue
            if not 2.0 * ((g_a2 - fb) / (gap - delta) - fpb) >= mid - f1b:
                continue
            if not 2.0 * (gpa - (ga - f_b1) / (gap - delta)) >= g1a - mid:
                continue
        return delta
    raise DeltaSearchFailed("no dyadic delta satisfied the side conditions (j <= 60)")


def _extensions(piece: SmoothFn, c: float, ds: float) -> tuple[tuple[Callable, Callable], ...]:
    """Jets (tail, band) of the piece extended below its left end, then
    (band, tail) past its right end: beyond each end e, f'' is damped to the
    floor c through a smooth cutoff with support margin ds = 0.9 * delta.

    At d = t - e and x = |d| / ds, the band x < 1 reads
    f(e) + f'(e) d + c d^2/2 + ds^2 J(x), where I and J integrate
    cutoff*(f''-c) once and twice outward from e; past the band, J goes on
    linearly and the curvature is c.  The tables of I and J beyond e are
    built on a jet's first call, from f'' on the fixed nodes, which is kept
    on the piece per (side, ds); f(e) and f'(e) are read from the probe.
    """
    fx = _fixed()

    def side(e: float, f0: float, f1: float, sign: float) -> tuple[Callable, Callable]:
        """The band and tail jets beyond e, on the side sign points to."""

        def nodes_d2() -> np.ndarray:
            f2 = np.empty(fx.nodes.size)
            for i in range(0, f2.size, _BLOCK_N):
                f2[i:i + _BLOCK_N] = piece.d2(e + sign * fx.nodes[i:i + _BLOCK_N] * ds)
            return f2

        @functools.cache
        def tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
            f2 = _kept(piece, ("nodes_d2", sign, ds), nodes_d2)
            return _tables(fx.cutoff * (f2 - c))

        def extended(t: np.ndarray, Jx, Ix, d2) -> Jet:
            d = t - e
            return f0 + f1 * d + 0.5 * c * d * d + ds * ds * Jx, f1 + c * d + sign * ds * Ix, d2

        def band(t: np.ndarray) -> Jet:
            I, J, g = tables()
            x = np.abs(t - e) / ds
            return extended(t, *_hermite(x, (J, I), (I, g)),
                            smoothstep(1.0 - x) * (piece.d2(t) - c) + c)

        def tail(t: np.ndarray) -> Jet:
            I, J, _ = tables()
            return extended(t, J[-1] + I[-1] * (np.abs(t - e) / ds - 1.0), I[-1], c)

        return band, tail

    A, B = piece.interval.lo, piece.interval.hi
    probe = _probe(piece)
    (f0A, f1A, _), (f0B, f1B, _) = probe.lo, probe.hi
    return side(A, f0A, f1A, -1.0)[::-1], side(B, f0B, f1B, 1.0)


def _validate_piece(fn: SmoothFn, label: str) -> None:
    report = _kept(fn, ("contract",), lambda: check_derivative_consistency(fn))
    if not report.ok:
        raise VerificationFailed(
            f"{label} piece failed the derivative-consistency contract: "
            f"d1 err {report.worst_d1_err:.3e}, d2 err {report.worst_d2_err:.3e}"
        )


def glue(problem: GlueProblem) -> GlueResult:
    """Build the glued function and its closed-form curvature certificates.

    Raises IncompatiblePieces when the slope chain fails (no glue exists),
    NotStrictlyConvexPiece when a piece misses its mode's curvature demand,
    DeltaSearchFailed when no dyadic margin satisfies the side conditions.
    """
    if problem.mode == "radial":
        return _glue_radial(problem)
    _validate_piece(problem.left, "left")
    _validate_piece(problem.right, "right")

    compat = compatibility(problem)
    if not compat.ok:
        raise IncompatiblePieces(
            f"slope chain must increase strictly: {compat.lhs} < {compat.mid} "
            f"< {compat.rhs} fails"
        )
    pf, pg = problem.probes
    alpha1, sup_f, alpha2, sup_g = pf.min_f2, pf.max_f2, pg.min_f2, pg.max_f2
    a1, b1 = problem.left.interval.lo, problem.left.interval.hi
    a2, b2 = problem.right.interval.lo, problem.right.interval.hi
    gap = a2 - b1
    if problem.mode == "strict":
        if not alpha1 > 0:
            raise NotStrictlyConvexPiece(f"left piece: min f'' = {alpha1} is not > 0")
        if not alpha2 > 0:
            raise NotStrictlyConvexPiece(f"right piece: min g'' = {alpha2} is not > 0")
        c = min(alpha1 / 2, alpha2 / 2, (compat.mid - compat.lhs) / gap,
                (compat.rhs - compat.mid) / gap)
    else:
        floor = -1e-12 * (1.0 + max(abs(sup_f), abs(sup_g)))
        if not (alpha1 >= floor and alpha2 >= floor):
            raise NotStrictlyConvexPiece("convex mode needs convex pieces")
        c = 0.0
    delta = delta_search(problem, c, compat)
    ds = 0.9 * delta
    f, g = problem.left, problem.right
    (f_tail_a1, f_band_a1), (f_band_b1, f_tail_b1) = _extensions(f, c, ds)
    (g_tail_a2, g_band_a2), (g_band_b2, g_tail_b2) = _extensions(g, c, ds)
    # at b1 the sides are f and g's tail below a2; at a2, g and f's tail past b1
    gap_b1 = float(pf.hi[0] - g_tail_a2(b1)[0])
    gap_a2 = float(pg.lo[0] - f_tail_b1(a2)[0])
    eps = 0.5 * min(gap_b1, gap_a2)
    if not eps > 0:
        raise VerificationFailed(
            f"bridge separation not positive: gaps {gap_b1}, {gap_a2}"
        )
    rho = rho_eps(eps)

    def bridge(left: Callable, right: Callable) -> Callable[[np.ndarray], Jet]:
        """Regularized max (F + G + rho(F - G)) / 2 of sides F and G, by the chain rule."""

        def jet(t: np.ndarray) -> Jet:
            F, F1, F2 = left(t)
            G, G1, G2 = right(t)
            r0, r1, r2 = rho.jet(F - G)
            return (0.5 * (F + G + r0), 0.5 * (F1 + G1 + r1 * (F1 - G1)),
                    0.5 * (F2 + G2 + r2 * (F1 - G1) ** 2 + r1 * (F2 - G2)))

        return jet

    # each piece on its interval (so h is the piece there, bit for bit), a band and a
    # tail beyond each outer end, and on (b1, a2) a bridge of the sides that meet there;
    # where ds is under half the float spacing at a1 or a2, e - ds rounds to e, and the
    # float below e stands in for it, so the piece keeps e (DECISIONS section 7)
    lo1, lo2 = (min(e - ds, np.nextafter(e, -np.inf)) for e in (a1, a2))
    edges = (lo1, a1, b1, b1 + ds, lo2, a2, b2, b2 + ds)
    jets = (f_tail_a1, f_band_a1, f.jet, bridge(f_band_b1, g_tail_a2),
            bridge(f_tail_b1, g_tail_a2), bridge(f_tail_b1, g_band_a2), g.jet, g_band_b2, g_tail_b2)

    working = Interval(a1 - 1.0, b2 + 1.0)
    h = SmoothFn(working, lambda t: piecewise(t, edges, jets), name=f"glue[{problem.mode}]")
    denom = gap * min(compat.mid - compat.lhs, compat.rhs - compat.mid)
    slope_span = (compat.rhs - compat.lhs) ** 2
    lead = 16.0 if problem.mode == "strict" else 4.0
    cert_sup = lead * MOLLIFIER_M * slope_span / denom + 1.0 + max(sup_f, sup_g)
    return GlueResult(
        problem=problem,
        h=h,
        c=c,
        delta=delta,
        eps=eps,
        cert_sup_h2=cert_sup,
        working=working,
        compat=compat,
    )


def _log_piece(fn: SmoothFn) -> SmoothFn:
    """Same function in logarithmic coordinates: tau -> f(e^tau), kept on fn
    (with its own kept products); its jet holds fn's jet, not fn, so the two
    make no reference cycle and fn's products go with fn."""
    f_jet = fn.jet

    def jet(tau: np.ndarray) -> Jet:
        t = np.exp(tau)
        f0, f1, f2 = f_jet(t)
        return f0, t * f1, t * f1 + t * t * f2

    return _kept(fn, ("log",), lambda: SmoothFn(
        Interval(np.log(fn.interval.lo), np.log(fn.interval.hi)), jet, name=f"log[{fn.name}]"))


def _glue_radial(problem: GlueProblem) -> GlueResult:
    """The strict glue of the log pieces H(tau) = f(e^tau), read back in t.
    H' = t lambda1 and H'' = t lambda2 (the eigenvalues f', f' + t f''), so one
    probe of each H decides strict plurisubharmonicity, and the strict glue's
    check of H's derivatives is the only one (docs/DECISIONS.md, section 6)."""
    f, g = problem.left, problem.right
    a1, b1 = f.interval.lo, f.interval.hi
    a2, b2 = g.interval.lo, g.interval.hi
    n = problem.n
    log_problem = GlueProblem(_log_piece(f), _log_piece(g), "strict", n=n)
    for probe, label in zip(log_problem.probes, ("left", "right")):
        if not (probe.min_f1 > 0 and probe.min_f2 > 0):
            raise NotStrictlyConvexPiece(f"{label} piece is not strictly "
                                         "plurisubharmonic in t = |z|^2")
    log_res = glue(log_problem)
    H = log_res.h

    def jet(t: np.ndarray) -> Jet:
        H0, H1, H2 = H.jet(np.log(t))
        return H0, H1 / t, (H2 - H1) / (t * t)

    working = Interval(a1, float(np.exp(np.log(b2) + 1.0)))
    h = SmoothFn(working, jet, name="glue[radial]")

    # bound on the bridge band's determinant e^(-n tau) H'^(n-1) H'': on
    # tau in [log b1, log a2], e^(-n tau) <= b1^-n, H' <= a2 g'(a2), and H''
    # is at most the log glue's curvature ceiling
    det_cert = (a2 ** (n - 1) * float(g.d1(a2)) ** (n - 1) / b1 ** n
                * log_res.cert_sup_h2)
    # c, delta, eps, the curvature ceiling and the slope chain are the log glue's
    return dataclasses.replace(log_res, problem=problem, h=h, working=working,
                               log_result=log_res, det_cert=det_cert)


def verify_glue(result: GlueResult) -> GlueCheck:
    """Sample the glue that carries the certificates (a radial glue's log glue
    H) on _WORK_N points of its working interval and, for a radial glue, the
    determinant e^(-n tau) H'^(n-1) H'' of h(|z|^2) on _WORK_N points of the
    bridge band.  The verdicts: h matches each piece on 257 points of its
    interval, and the sampled extremes stay within their certificates; a
    radial glue also needs H' > 0 for tau >= log a1 (DECISIONS section 6)."""
    p, cert = result.problem, result.log_result or result
    x = np.linspace(cert.working.lo, cert.working.hi, _WORK_N)
    _, h1_vals, h2_vals = cert.h.eval(x)
    inf_h2, sup_h2 = float(np.min(h2_vals)), float(np.max(h2_vals))
    verdicts = []
    for side, piece in (("left", p.left), ("right", p.right)):
        probe = np.linspace(piece.interval.lo, piece.interval.hi, 257)
        match = float(np.max(np.abs(result.h.d0(probe) - piece.d0(probe))))
        verdicts.append(Verdict(f"restriction_match_{side}", match <= 1e-9, match, 1e-9, 0))
    if cert.problem.mode == "strict":
        verdicts.append(Verdict("inf_h2_ge_certified",
                                inf_h2 >= cert.c * (1 - 1e-9) - 1e-12,
                                inf_h2, cert.c, 1e-9))
    verdicts.append(Verdict("sup_h2_le_certified", sup_h2 <= cert.cert_sup_h2 * (1 + 1e-9),
                            sup_h2, cert.cert_sup_h2, 1e-9))
    det_sup = None
    if result.log_result is not None:
        # below log a1 lies the regularized extension, which h never reads
        min_h1 = float(np.min(h1_vals[x >= cert.problem.left.interval.lo]))
        verdicts.append(Verdict("h1_positive", min_h1 > 0, min_h1, 0.0, 0))
        tau = np.linspace(np.log(p.left.interval.hi), np.log(p.right.interval.lo), _WORK_N)
        _, H1, H2 = cert.h.eval(tau)
        det_sup = float(np.max(np.exp(-p.n * tau) * H1 ** (p.n - 1) * H2))
        verdicts.append(Verdict("det_le_certified", det_sup <= result.det_cert * (1 + 1e-9),
                                det_sup, result.det_cert, 1e-9))
    return GlueCheck(inf_h2, sup_h2, det_sup, tuple(verdicts))
