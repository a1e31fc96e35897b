"""Constructive C^2 gluing of two convex pieces on disjoint intervals.

Three modes:

* strictly_convex: the glue keeps a positive curvature floor and carries
  certified two-sided curvature bounds;
* convex: the zero-floor variant with a certified upper curvature bound;
* radial_psh: pieces are radial potentials in t = |z|^2; the glue happens in
  logarithmic coordinates and returns to t-space, preserving strict
  plurisubharmonicity, with a certified determinant bound on the bridge band.

``glue()`` builds h with closed-form certificates and never samples h;
``verify_glue()`` samples h'' (and a radial glue's bridge determinant) on
16,385 points on request, so its extremes (and the glue's verdicts) are not
enclosures.

The construction: modify each piece outside its interval by damping the
second derivative down to a floor c through a smooth cutoff (the modified
function is exact on the piece interval by an integral identity), then bridge
the two modified functions with a regularized max built from a mollified
absolute value.
"""

from __future__ import annotations

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


def _hermite(sq: np.ndarray, V: np.ndarray, D: np.ndarray) -> np.ndarray:
    """Cubic Hermite interpolation on [0, 1] of step-end values V with exact
    derivatives D (g for I, I for J)."""
    sq = np.clip(np.asarray(sq, dtype=float), 0.0, 1.0)
    i = np.clip((sq * _TABLE_N).astype(int), 0, _TABLE_N - 1)
    d = 1.0 / _TABLE_N
    x = sq * _TABLE_N - i
    x2 = x * x
    x3 = x2 * x
    return (
        V[i] * (2 * x3 - 3 * x2 + 1)
        + V[i + 1] * (-2 * x3 + 3 * x2)
        + d * (D[i] * (x3 - 2 * x2 + x) + D[i + 1] * (x3 - x2))
    )


def _cdf(x: np.ndarray, I: np.ndarray, g: np.ndarray, mass: float) -> np.ndarray:
    """Normalized CDF of the bump from its tables: 0 at -1, 1/2 at 0, 1 at +1."""
    return 0.5 + np.sign(x) * _hermite(np.abs(x), I, g) / mass


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
    fixed = _Fixed(nodes, I, J, g, mass, 1.0 - _cdf(2.0 * nodes - 1.0, I, g, mass))
    for a in (nodes, I, J, g, fixed.cutoff):
        a.setflags(write=False)
    return fixed


def smoothstep(s: np.ndarray) -> np.ndarray:
    """C^infinity monotone step on [0, 1] (bump CDF reparametrized)."""
    fx = _fixed()
    return _cdf(2.0 * np.asarray(s, dtype=float) - 1.0, fx.I, fx.g, fx.mass)


def rho_eps(eps: float) -> SmoothFn:
    """Mollified absolute value of radius eps.

    Equals |t| for |t| >= eps; everywhere even, >= |t|, with |slope| <= 1 and
    curvature in [0, M/eps] (measured peak about 1.66/eps).
    """
    if not eps > 0:
        raise NonPositiveEps(f"eps must be positive, got {eps}")
    fx = _fixed()
    cdf_at_0 = 0.5 - float(fx.J[-1]) / fx.mass  # CDF integral from -1 to 0

    def outer(t: np.ndarray) -> Jet:
        return np.abs(t), np.sign(t), 0.0

    def inner(t: np.ndarray) -> Jet:
        x = t / eps
        ax = np.abs(x)
        cdf_integral = (cdf_at_0 + (0.5 * ax + _hermite(ax, fx.J, fx.I) / fx.mass)
                        + np.where(x < 0, x, 0.0))
        return (2.0 * eps * cdf_integral - t, 2.0 * _cdf(x, fx.I, fx.g, fx.mass) - 1.0,
                2.0 * (_bump(x) / fx.mass) / eps)

    def jet(t: np.ndarray) -> Jet:
        core = np.abs(t / eps) < 1.0
        return piecewise(t, [(~core, outer), (core, inner)])

    return SmoothFn(Interval(-2.0 * eps, 2.0 * eps), jet, name=f"rho[{eps:g}]")


# ---------------------------------------------------------------------------
# problem/result containers


@dataclass(frozen=True)
class GluePiece:
    """One piece: a C^2 function whose nominal interval is its domain."""

    fn: SmoothFn

    @property
    def interval(self) -> Interval:
        return self.fn.domain


MODES = ("strictly_convex", "convex", "radial_psh")


@dataclass(frozen=True)
class GlueProblem:
    left: GluePiece
    right: GluePiece
    mode: str
    n: int = 2  # complex dimension, used by radial_psh certificates only

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise InvalidInput(f"mode must be one of {MODES}")
        a1, b1 = self.left.interval.lo, self.left.interval.hi
        a2, b2 = self.right.interval.lo, self.right.interval.hi
        if not a1 < b1 < a2 < b2:
            raise InvalidInput(f"need a1 < b1 < a2 < b2, got intervals "
                               f"[{a1:g}, {b1:g}] and [{a2:g}, {b2:g}]")
        if self.mode == "radial_psh" and not a1 > 0:
            raise InvalidInput("radial mode needs a1 > 0")
        if self.n < 1:
            raise InvalidInput("n must be >= 1")


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
    c: float
    delta: float
    eps: float
    cert_inf_h2: float
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
    """Three-term slope chain whose strict ordering is necessary and
    sufficient for a glue to exist in the given mode."""
    f, g = problem.left.fn, problem.right.fn
    a1, b1 = problem.left.interval.lo, problem.left.interval.hi
    a2, b2 = problem.right.interval.lo, problem.right.interval.hi
    fb, f1b, _ = map(float, f.eval(b1))
    ga, g1a, _ = map(float, g.eval(a2))
    if problem.mode == "radial_psh":
        lhs = b1 * f1b
        mid = (ga - fb) / (np.log(a2) - np.log(b1))
        rhs = a2 * g1a
    else:
        lhs, mid, rhs = f1b, (ga - fb) / (a2 - b1), g1a
    return CompatReport(lhs, mid, rhs, bool(lhs < mid < rhs))


def _min_max_on(fn: SmoothFn, lo: float, hi: float) -> tuple[float, float]:
    vals = fn.d2(np.linspace(lo, hi, _PROBE_N))
    return float(np.min(vals)), float(np.max(vals))


def delta_search(problem: GlueProblem, c: float) -> float:
    """Largest dyadic margin delta = (a2-b1)/2^j, j = 2..60, satisfying the
    side conditions of the construction at probe-grid resolution."""
    if problem.mode == "radial_psh":
        raise InvalidInput("delta search runs on the log-coordinate problem")
    f, g = problem.left.fn, problem.right.fn
    a1, b1 = problem.left.interval.lo, problem.left.interval.hi
    a2, b2 = problem.right.interval.lo, problem.right.interval.hi
    gap = a2 - b1
    compat = compatibility(problem)
    if not compat.ok:
        raise DeltaSearchFailed("compatibility chain fails; conditions unsatisfiable")
    sup_f = _min_max_on(f, a1, b1)[1]
    sup_g = _min_max_on(g, a2, b2)[1]
    mid = compat.mid
    f1b, g1a = compat.lhs, compat.rhs
    f_b1, g_a2 = float(f.d0(b1)), float(g.d0(a2))

    for j in range(2, 61):
        delta = gap / 2.0**j
        min_f_d, max_f_d = _min_max_on(f, a1 - delta, b1 + delta)
        min_g_d, max_g_d = _min_max_on(g, a2 - delta, b2 + delta)
        if max_f_d > sup_f + 1.0 or max_g_d > sup_g + 1.0:
            continue
        fb, fpb, _ = map(float, f.eval(b1 + delta))
        ga, gpa, _ = map(float, g.eval(a2 - delta))
        if problem.mode == "strictly_convex":
            if min_f_d < c or min_g_d < c:
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
            if min_f_d < floor or min_g_d < floor:
                continue
            if not fpb < gpa:
                continue
            if not 2.0 * ((g_a2 - fb) / (gap - delta) - fpb) >= mid - f1b:
                continue
            if not 2.0 * (gpa - (ga - f_b1) / (gap - delta)) >= g1a - mid:
                continue
        return delta
    raise DeltaSearchFailed("no dyadic delta satisfied the side conditions (j <= 60)")


def _regularized(piece: SmoothFn, anchor: float, c: float,
                 delta: float) -> Callable[[np.ndarray], Jet]:
    """Jet of the piece modified outside its interval: second derivative is
    damped to the floor c through a smooth cutoff with support margin
    0.9 * delta.

    Exact on the piece interval by the identity
    value(t) = double integral of cutoff*(f''-c) from the anchor, plus the
    anchored parabola; the double integral telescopes against the closed
    forms there.
    """
    A, B = piece.domain.lo, piece.domain.hi
    if anchor not in (A, B):
        raise InvalidInput("anchor must be a piece endpoint")
    ds = 0.9 * delta
    fx = _fixed()
    # I and J integrate cutoff*(f''-c) once and twice across each band
    IR, JR, gR = _tables(fx.cutoff * (piece.d2(B + fx.nodes * ds) - c))
    IL, JL, gL = _tables(fx.cutoff * (piece.d2(A - fx.nodes * ds) - c))
    (f0A, f0B), (f1A, f1B), _ = piece.eval(np.array([A, B], dtype=float))
    # W = integral of cutoff*(f''-c) from A, V = integral of W from A
    WB = f1B - f1A - c * (B - A)
    VB = f0B - f0A - f1A * (B - A) - 0.5 * c * (B - A) ** 2
    W_end_R = WB + ds * float(IR[-1])
    W_end_L = -ds * float(IL[-1])
    V_Bd = VB + WB * ds + ds**2 * float(JR[-1])
    V_Ad = ds**2 * float(JL[-1])
    WP, VP, f0P, f1P = (0.0, 0.0, f0A, f1A) if anchor == A else (WB, VB, f0B, f1B)

    def core(t: np.ndarray) -> Jet:
        f0, f1, f2 = piece.eval(t)
        # the band formula cutoff*(f''-c)+c at cutoff 1, left unsimplified so
        # h'' keeps its last-bit values
        return (f0 - f0A - f1A * (t - A) - 0.5 * c * (t - A) ** 2,
                f1 - f1A - c * (t - A), (f2 - c) + c)

    def right_band(t: np.ndarray) -> Jet:
        x = (t - B) / ds
        return (VB + WB * (t - B) + ds**2 * _hermite(x, JR, IR), WB + ds * _hermite(x, IR, gR),
                smoothstep(((B + ds) - t) / ds) * (piece.d2(t) - c) + c)

    def left_band(t: np.ndarray) -> Jet:
        x = (A - t) / ds
        return (ds**2 * _hermite(x, JL, IL), -ds * _hermite(x, IL, gL),
                smoothstep((t - (A - ds)) / ds) * (piece.d2(t) - c) + c)

    def right_tail(t: np.ndarray) -> Jet:
        return V_Bd + W_end_R * (t - (B + ds)), W_end_R, c

    def left_tail(t: np.ndarray) -> Jet:
        return V_Ad + W_end_L * (t - (A - ds)), W_end_L, c

    def jet(t: np.ndarray) -> Jet:
        v, w, d2 = piecewise(t, [
            ((t >= A) & (t <= B), core),
            ((t > B) & (t < B + ds), right_band),
            (t >= B + ds, right_tail),
            ((t < A) & (t > A - ds), left_band),
            (t <= A - ds, left_tail),
        ])
        dt = t - anchor
        return (v - VP - WP * dt + f0P + f1P * dt + 0.5 * c * dt**2,
                w - WP + f1P + c * dt, d2)

    return jet


def _piece_curvature_check(problem: GlueProblem) -> tuple[float, float, float, float]:
    """(alpha1, alpha2, sup_f, sup_g) with mode-specific positivity demands."""
    f, g = problem.left.fn, problem.right.fn
    a1, b1 = problem.left.interval.lo, problem.left.interval.hi
    a2, b2 = problem.right.interval.lo, problem.right.interval.hi
    alpha1, sup_f = _min_max_on(f, a1, b1)
    alpha2, sup_g = _min_max_on(g, a2, b2)
    if problem.mode == "strictly_convex":
        if alpha1 <= 0:
            raise NotStrictlyConvexPiece(f"left piece: min f'' = {alpha1} <= 0")
        if alpha2 <= 0:
            raise NotStrictlyConvexPiece(f"right piece: min g'' = {alpha2} <= 0")
    else:
        floor = -1e-12 * (1.0 + max(abs(sup_f), abs(sup_g)))
        if alpha1 < floor or alpha2 < floor:
            raise NotStrictlyConvexPiece("convex mode needs convex pieces")
    return alpha1, alpha2, sup_f, sup_g


def _validate_piece(fn: SmoothFn, label: str) -> None:
    report = check_derivative_consistency(fn)
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
    _validate_piece(problem.left.fn, "left")
    _validate_piece(problem.right.fn, "right")
    if problem.mode == "radial_psh":
        return _glue_radial(problem)

    compat = compatibility(problem)
    if not compat.ok:
        raise IncompatiblePieces(
            f"slope chain must increase strictly: {compat.lhs} < {compat.mid} "
            f"< {compat.rhs} fails"
        )
    alpha1, alpha2, sup_f, sup_g = _piece_curvature_check(problem)
    a1, b1 = problem.left.interval.lo, problem.left.interval.hi
    a2, b2 = problem.right.interval.lo, problem.right.interval.hi
    gap = a2 - b1
    if problem.mode == "strictly_convex":
        c = min(alpha1 / 2, alpha2 / 2, (compat.mid - compat.lhs) / gap,
                (compat.rhs - compat.mid) / gap)
    else:
        c = 0.0
    delta = delta_search(problem, c)
    F_jet = _regularized(problem.left.fn, anchor=b1, c=c, delta=delta)
    G_jet = _regularized(problem.right.fn, anchor=a2, c=c, delta=delta)
    seams = np.array([b1, a2], dtype=float)
    (F_b1, F_a2), (G_b1, G_a2) = F_jet(seams)[0], G_jet(seams)[0]
    gap_b1, gap_a2 = float(F_b1 - G_b1), float(G_a2 - F_a2)
    eps = 0.5 * min(gap_b1, gap_a2)
    if not eps > 0:
        raise VerificationFailed(
            f"bridge separation not positive: gaps {gap_b1}, {gap_a2}"
        )
    rho = rho_eps(eps)

    def bridge(t: np.ndarray) -> Jet:
        """Regularized max (F + G + rho(F - G)) / 2 by the chain rule."""
        F, F1, F2 = F_jet(t)
        G, G1, G2 = G_jet(t)
        r0, r1, r2 = rho.jet(F - G)
        return (0.5 * (F + G + r0), 0.5 * (F1 + G1 + r1 * (F1 - G1)),
                0.5 * (F2 + G2 + r2 * (F1 - G1) ** 2 + r1 * (F2 - G2)))

    def h_jet(t: np.ndarray) -> Jet:
        return piecewise(t, [(t <= b1, F_jet), (t >= a2, G_jet),
                             ((t > b1) & (t < a2), bridge)])

    working = Interval(a1 - 1.0, b2 + 1.0)
    h = SmoothFn(working, h_jet, name=f"glue[{problem.mode}]")
    denom = gap * min(compat.mid - compat.lhs, compat.rhs - compat.mid)
    slope_span = (compat.rhs - compat.lhs) ** 2
    lead = 16.0 if problem.mode == "strictly_convex" else 4.0
    cert_sup = lead * MOLLIFIER_M * slope_span / denom + 1.0 + max(sup_f, sup_g)
    return GlueResult(
        problem=problem,
        h=h,
        c=c,
        delta=delta,
        eps=eps,
        cert_inf_h2=c,
        cert_sup_h2=cert_sup,
        working=working,
        compat=compat,
    )


def _log_piece(piece: GluePiece) -> GluePiece:
    """Same function in logarithmic coordinates: tau -> f(e^tau)."""
    fn = piece.fn
    lo, hi = piece.interval.lo, piece.interval.hi

    def jet(tau: np.ndarray) -> Jet:
        t = np.exp(tau)
        f0, f1, f2 = fn.eval(t)
        return f0, t * f1, t * f1 + t * t * f2

    return GluePiece(SmoothFn(Interval(np.log(lo), np.log(hi)), jet,
                              name=f"log[{fn.name}]"))


def _glue_radial(problem: GlueProblem) -> GlueResult:
    f, g = problem.left.fn, problem.right.fn
    a1, b1 = problem.left.interval.lo, problem.left.interval.hi
    a2, b2 = problem.right.interval.lo, problem.right.interval.hi
    n = problem.n
    for fn, lo, hi, label in ((f, a1, b1, "left"), (g, a2, b2, "right")):
        t = np.linspace(lo, hi, _PROBE_N)
        _, lam1, f2 = fn.eval(t)
        lam2 = lam1 + t * f2
        if np.min(lam1) <= 0 or np.min(lam2) <= 0:
            raise NotStrictlyConvexPiece(
                f"{label} piece is not strictly plurisubharmonic in t = |z|^2"
            )
    compat = compatibility(problem)
    if not compat.ok:
        raise IncompatiblePieces(
            f"radial slope chain fails: {compat.lhs} < {compat.mid} < {compat.rhs}"
        )
    log_res = glue(GlueProblem(_log_piece(problem.left), _log_piece(problem.right),
                               "strictly_convex", n=n))
    H = log_res.h

    def jet(t: np.ndarray) -> Jet:
        H0, H1, H2 = H.jet(np.log(t))
        return H0, H1 / t, (H2 - H1) / (t * t)

    working = Interval(a1, float(np.exp(np.log(b2) + 1.0)))
    h = SmoothFn(working, jet, name="glue[radial_psh]")

    # bound on the bridge band's determinant e^(-n tau) H'^(n-1) H'': on
    # tau in [log b1, log a2], e^(-n tau) <= b1^-n, H' <= a2 g'(a2), and H''
    # is at most the log glue's curvature ceiling
    det_cert = (a2 ** (n - 1) * float(g.d1(a2)) ** (n - 1) / b1 ** n
                * log_res.cert_sup_h2)
    return GlueResult(
        problem=problem,
        h=h,
        c=log_res.c,
        delta=log_res.delta,
        eps=log_res.eps,
        cert_inf_h2=log_res.cert_inf_h2,
        cert_sup_h2=log_res.cert_sup_h2,
        working=working,
        compat=compat,
        log_result=log_res,
        det_cert=det_cert,
    )


def verify_glue(result: GlueResult) -> GlueCheck:
    """Sample h'' on _WORK_N points of the working interval and, for a radial
    glue, the complex-Hessian determinant of h(|z|^2) on _WORK_N points of
    the bridge band, from the log glue H: e^(-n tau) H'^(n-1) H''.  The
    verdicts: h matches each piece on 257 points of its interval, then the
    sampled extremes that the mode certifies stay within their certificates.
    """
    p, working = result.problem, result.working
    h2_vals = result.h.d2(np.linspace(working.lo, working.hi, _WORK_N))
    inf_h2, sup_h2 = float(np.min(h2_vals)), float(np.max(h2_vals))
    verdicts = []
    for side, piece in (("left", p.left), ("right", p.right)):
        probe = np.linspace(piece.interval.lo, piece.interval.hi, 257)
        match = float(np.max(np.abs(result.h.d0(probe) - piece.fn.d0(probe))))
        verdicts.append(Verdict(f"restriction_match_{side}", match <= 1e-9, match, 1e-9, 0))
    if p.mode == "strictly_convex":
        verdicts.append(Verdict("inf_h2_ge_certified",
                                inf_h2 >= result.cert_inf_h2 * (1 - 1e-9) - 1e-12,
                                inf_h2, result.cert_inf_h2, 1e-9))
    if p.mode in ("strictly_convex", "convex"):
        verdicts.append(Verdict("sup_h2_le_certified", sup_h2 <= result.cert_sup_h2 * (1 + 1e-9),
                                sup_h2, result.cert_sup_h2, 1e-9))
    det_sup = None
    if result.log_result is not None:
        tau = np.linspace(np.log(p.left.interval.hi), np.log(p.right.interval.lo), _WORK_N)
        _, H1, H2 = result.log_result.h.eval(tau)
        det_sup = float(np.max(np.exp(-p.n * tau) * H1 ** (p.n - 1) * H2))
        verdicts.append(Verdict("det_le_certified", det_sup <= result.det_cert * (1 + 1e-9),
                                det_sup, result.det_cert, 1e-9))
    return GlueCheck(inf_h2, sup_h2, det_sup, tuple(verdicts))
