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
16,385 points on request, so its extremes are not enclosures.

The construction: modify each piece outside its interval by damping the
second derivative down to a floor c through a smooth cutoff (the modified
function is exact on the piece interval by an integral identity), then bridge
the two modified functions with a regularized max built from a mollified
absolute value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    DeltaSearchFailed,
    IncompatiblePieces,
    InvalidInput,
    NonPositiveEps,
    NotStrictlyConvexPiece,
    VerificationFailed,
)
from .numgrid import Interval, Jet, SmoothFn, check_derivative_consistency, piecewise

# Curvature ceiling constant of the mollified absolute value: rho'' <= M/eps.
# The bump mollifier actually peaks near 1.66/eps; certificates use M = 3.
MOLLIFIER_M = 3.0

_TABLE_N = 2048
_PROBE_N = 2049
_WORK_N = 16385


# ---------------------------------------------------------------------------
# cumulative tables on the unit interval


class _UnitTable:
    """I(s) = integral of g over [0, s] and J(s) = integral of I, s in [0, 1].

    Increments use 4-point Gauss per step; evaluation uses cubic Hermite
    interpolation with the exact derivative values (g for I, I for J).
    """

    def __init__(self, g: Callable[[np.ndarray], np.ndarray], n: int = _TABLE_N):
        s = np.linspace(0.0, 1.0, n + 1)
        xg, wg = np.polynomial.legendre.leggauss(4)
        half = 0.5 / n
        mid = 0.5 * (s[:-1] + s[1:])
        pts = mid[:, None] + half * xg[None, :]
        vals = np.asarray(g(pts.ravel()), dtype=float).reshape(n, 4)
        inc = half * (vals @ wg)
        self.n = n
        self.s = s
        self.gI = np.asarray(g(s), dtype=float)
        self.I = np.concatenate([[0.0], np.cumsum(inc)])
        # exact integral of the Hermite cubic of I on each step
        d = 1.0 / n
        incJ = d * (0.5 * (self.I[:-1] + self.I[1:]) + d * (self.gI[:-1] - self.gI[1:]) / 12.0)
        self.J = np.concatenate([[0.0], np.cumsum(incJ)])

    def _hermite(self, sq: np.ndarray, V: np.ndarray, D: np.ndarray) -> np.ndarray:
        sq = np.clip(np.asarray(sq, dtype=float), 0.0, 1.0)
        i = np.clip((sq * self.n).astype(int), 0, self.n - 1)
        d = 1.0 / self.n
        x = sq * self.n - i
        x2 = x * x
        x3 = x2 * x
        return (
            V[i] * (2 * x3 - 3 * x2 + 1)
            + V[i + 1] * (-2 * x3 + 3 * x2)
            + d * (D[i] * (x3 - 2 * x2 + x) + D[i + 1] * (x3 - x2))
        )

    def I_at(self, sq: np.ndarray) -> np.ndarray:
        return self._hermite(sq, self.I, self.gI)

    def J_at(self, sq: np.ndarray) -> np.ndarray:
        return self._hermite(sq, self.J, self.I)


# ---------------------------------------------------------------------------
# bump mollifier primitives (all exactly even/odd via half-tables + mirrors)


def _bump(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    inside = np.abs(x) < 1.0
    xi = x[inside]
    out[inside] = np.exp(-1.0 / (1.0 - xi * xi))
    return out


class _BumpTables:
    def __init__(self) -> None:
        self.table = _UnitTable(_bump)  # integrals of the bump over [0, x]
        self.half_mass = float(self.table.I[-1])  # int_0^1 bump
        self.B = 2.0 * self.half_mass  # full mass of the bump on [-1, 1]
        # int_0^x of the (normalized) CDF for x >= 0, and the CDF integral
        # from -1 to 0
        self.J1 = float(self.table.J[-1]) / self.B
        self.yu0 = 0.5 - self.J1

    def cdf(self, x: np.ndarray) -> np.ndarray:
        """Normalized CDF of the bump: 0 at -1, 1/2 at 0, 1 at +1."""
        x = np.asarray(x, dtype=float)
        return 0.5 + np.sign(x) * self.table.I_at(np.abs(x)) / self.B

    def cdf_integral(self, x: np.ndarray) -> np.ndarray:
        """Integral of the CDF from -1 to x (for the mollified |t|)."""
        x = np.asarray(x, dtype=float)
        ax = np.abs(x)
        d_half = 0.5 * ax + self.table.J_at(ax) / self.B
        return self.yu0 + d_half + np.where(x < 0, x, 0.0)

    def density(self, x: np.ndarray) -> np.ndarray:
        return _bump(x) / self.B


_BUMP: _BumpTables | None = None


def _bump_tables() -> _BumpTables:
    global _BUMP
    if _BUMP is None:
        _BUMP = _BumpTables()
    return _BUMP


def smoothstep(s: np.ndarray) -> np.ndarray:
    """C^infinity monotone step on [0, 1] (bump CDF reparametrized)."""
    return _bump_tables().cdf(2.0 * np.asarray(s, dtype=float) - 1.0)


def rho_eps(eps: float) -> SmoothFn:
    """Mollified absolute value of radius eps.

    Equals |t| for |t| >= eps; everywhere even, >= |t|, with |slope| <= 1 and
    curvature in [0, M/eps] (measured peak about 1.66/eps).
    """
    if not eps > 0:
        raise NonPositiveEps(f"eps must be positive, got {eps}")
    bt = _bump_tables()

    def outer(t: np.ndarray) -> Jet:
        return np.abs(t), np.sign(t), 0.0

    def inner(t: np.ndarray) -> Jet:
        x = t / eps
        return (2.0 * eps * bt.cdf_integral(x) - t, 2.0 * bt.cdf(x) - 1.0,
                2.0 * bt.density(x) / eps)

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
    det_sup: float | None = None  # radial glues only


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


def _min_max_on(fn: SmoothFn, lo: float, hi: float, n: int = _PROBE_N) -> tuple[float, float]:
    vals = fn.d2(np.linspace(lo, hi, n))
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

    def fall(s: np.ndarray) -> np.ndarray:
        return 1.0 - smoothstep(s)

    # I and J integrate cutoff*(f''-c) once and twice across each band
    right = _UnitTable(lambda s: fall(s) * (piece.d2(B + s * ds) - c))
    left = _UnitTable(lambda s: fall(s) * (piece.d2(A - s * ds) - c))
    (f0A, f0B), (f1A, f1B), _ = piece.eval(np.array([A, B], dtype=float))
    # W = integral of cutoff*(f''-c) from A, V = integral of W from A
    WB = f1B - f1A - c * (B - A)
    VB = f0B - f0A - f1A * (B - A) - 0.5 * c * (B - A) ** 2
    W_end_R = WB + ds * float(right.I[-1])
    W_end_L = -ds * float(left.I[-1])
    V_Bd = VB + WB * ds + ds**2 * float(right.J[-1])
    V_Ad = ds**2 * float(left.J[-1])
    WP, VP, f0P, f1P = (0.0, 0.0, f0A, f1A) if anchor == A else (WB, VB, f0B, f1B)

    def core(t: np.ndarray) -> Jet:
        f0, f1, f2 = piece.eval(t)
        # the band formula cutoff*(f''-c)+c at cutoff 1, left unsimplified so
        # h'' keeps its last-bit values
        return (f0 - f0A - f1A * (t - A) - 0.5 * c * (t - A) ** 2,
                f1 - f1A - c * (t - A), (f2 - c) + c)

    def right_band(t: np.ndarray) -> Jet:
        x = (t - B) / ds
        return (VB + WB * (t - B) + ds**2 * right.J_at(x), WB + ds * right.I_at(x),
                smoothstep(((B + ds) - t) / ds) * (piece.d2(t) - c) + c)

    def left_band(t: np.ndarray) -> Jet:
        x = (A - t) / ds
        return (ds**2 * left.J_at(x), -ds * left.I_at(x),
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
    the bridge band, from the log glue H: e^(-n tau) H'^(n-1) H''."""
    working = result.working
    h2_vals = result.h.d2(np.linspace(working.lo, working.hi, _WORK_N))
    det_sup = None
    if result.log_result is not None:
        p = result.problem
        tau = np.linspace(np.log(p.left.interval.hi), np.log(p.right.interval.lo), _WORK_N)
        _, H1, H2 = result.log_result.h.eval(tau)
        det_sup = float(np.max(np.exp(-p.n * tau) * H1 ** (p.n - 1) * H2))
    return GlueCheck(float(np.min(h2_vals)), float(np.max(h2_vals)), det_sup)
