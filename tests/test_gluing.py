import numpy as np
import pytest

from luxglue.errors import (
    DeltaSearchFailed,
    IncompatiblePieces,
    InvalidInput,
    NonPositiveEps,
    NotStrictlyConvexPiece,
)
from luxglue.gluing import (
    GluePiece,
    GlueProblem,
    MOLLIFIER_M,
    _regularized,
    compatibility,
    delta_search,
    glue,
    rho_eps,
    verify_glue,
)
from luxglue.numgrid import Interval, SmoothFn, check_derivative_consistency
from luxglue.radialpsh import feps_smoothfn, fs_potential
from luxglue.sampling import rng_from_seed

# measured curvature peak of the bump mollifier, times eps
RHO_PEAK = 1.6571376797382103


def quad_piece(dom, a=0.0, b=0.0, c=1.0):
    """a + b t + c t^2 with exact derivatives."""
    return GluePiece(SmoothFn(
        Interval(*dom),
        lambda t: (a + b * t + c * t * t, b + 2 * c * t, 2 * c + 0 * t),
        name="quad",
    ))


def exp_quad_piece(dom, c=1.0, mu=0.3):
    """c t^2 + exp(mu t): strictly convex with non-constant curvature."""
    return GluePiece(SmoothFn(
        Interval(*dom),
        lambda t: (c * t * t + np.exp(mu * t), 2 * c * t + mu * np.exp(mu * t),
                   2 * c + mu * mu * np.exp(mu * t)),
        name="expquad",
    ))


# ---------------------------------------------------------------------------
# the mollified absolute value


@pytest.mark.parametrize("eps", [1.0, 0.1, 0.01])
def test_rho_five_properties(eps):
    rho = rho_eps(eps)
    t = np.linspace(-3 * eps, 3 * eps, 40001)
    r0, r1, r2 = rho.d0(t), rho.d1(t), rho.d2(t)
    outside = np.abs(t) >= eps
    assert np.max(np.abs(r0[outside] - np.abs(t[outside]))) == 0.0
    assert np.min(r0 - np.abs(t)) >= -1e-12
    assert np.max(np.abs(r0 - r0[::-1])) <= 1e-12
    assert np.max(np.abs(r1)) <= 1.0 + 1e-12
    assert np.min(r2) >= 0.0
    assert np.max(r2) <= MOLLIFIER_M / eps
    assert abs(np.max(r2) * eps - RHO_PEAK) < 1e-6


def test_rho_center():
    rho = rho_eps(0.5)
    assert float(rho.d0(0.0)) > 0.0
    assert float(rho.d1(0.0)) == 0.0


def test_rho_rejects_nonpositive_eps():
    with pytest.raises(NonPositiveEps):
        rho_eps(0.0)


# ---------------------------------------------------------------------------
# compatibility and the margin search


def test_compatibility_quadratics():
    prob = GlueProblem(quad_piece((0, 1)), quad_piece((3, 4)), "strictly_convex")
    rep = compatibility(prob)
    assert (rep.lhs, rep.mid, rep.rhs) == (2.0, 4.0, 6.0)
    assert rep.ok


def test_compatibility_degenerate_affine():
    # one affine function restricted to both intervals: the chain collapses
    mk = lambda dom: GluePiece(SmoothFn(Interval(*dom),
                                        lambda t: (t, 1.0 + 0 * t, 0 * t)))
    rep = compatibility(GlueProblem(mk((0, 1)), mk((3, 4)), "convex"))
    assert rep.lhs == rep.mid == rep.rhs == 1.0
    assert not rep.ok


def test_compatibility_radial_feps_reference_chain():
    # the assembled-example chain: lhs <= 1/12 < 1/4 <= mid < 3/8 < 1/2 = rhs
    for k in (5, 12, 25, 40):
        eps = 2.0**-k
        prob = GlueProblem(
            GluePiece(feps_smoothfn(eps, lo=1 / 64, hi=1 / 16)),
            GluePiece(SmoothFn(Interval(1.0, 4.0), fs_potential().jet, name="log1p")),
            "radial_psh",
        )
        rep = compatibility(prob)
        assert rep.ok
        assert rep.lhs <= 1.0 / 12.0
        assert 0.25 <= rep.mid < 3.0 / 8.0 < 0.5
        assert abs(rep.rhs - 0.5) < 1e-15


def test_delta_search_generous():
    prob = GlueProblem(quad_piece((0, 1)), quad_piece((3, 4)), "strictly_convex")
    delta = delta_search(prob, 1.0)
    assert delta == (3.0 - 1.0) / 4.0  # accepted at the largest dyadic margin


def test_delta_search_near_degenerate():
    # shrink the compatibility slack: mid barely above lhs
    left = quad_piece((0, 1))  # f(1)=1, f'(1)=2
    # choose g with g(3) = 1 + 2.1*2 = 5.2 so mid = 2.1, g'(3) = 2.2
    right = quad_piece((3, 4), a=5.2 - 2.2 * 3 + 0.05 * 9, b=2.2 - 0.3, c=0.05)
    prob = GlueProblem(left, right, "strictly_convex")
    rep = compatibility(prob)
    assert rep.ok and rep.mid - rep.lhs < 0.2
    c = min(1.0, 0.05, (rep.mid - rep.lhs) / 2, (rep.rhs - rep.mid) / 2)
    delta = delta_search(prob, c)
    assert 0 < delta < (3 - 1) / 4
    res = glue(prob)
    assert verify_glue(res).inf_h2 >= res.cert_inf_h2 * (1 - 1e-9) - 1e-12


def test_delta_search_incompatible():
    mk = lambda dom, a: GluePiece(SmoothFn(Interval(*dom),
                                           lambda t: (a + t, 1.0 + 0 * t, 0 * t)))
    prob = GlueProblem(mk((0, 1), 0.0), mk((3, 4), 2.0), "convex")
    with pytest.raises(DeltaSearchFailed):
        delta_search(prob, 0.0)


# ---------------------------------------------------------------------------
# strict mode


def test_glue_quadratics_end_to_end():
    left, right = quad_piece((0, 1)), quad_piece((3, 4))
    res = glue(GlueProblem(left, right, "strictly_convex"))
    # certified floor equals the four-term minimum, here 1
    assert res.c == pytest.approx(1.0)
    check = verify_glue(res)
    assert check.inf_h2 >= res.c * (1 - 1e-9) - 1e-12
    assert check.sup_h2 <= res.cert_sup_h2 * (1 + 1e-9)
    # chord bounds at the midpoint: h convex with h(1)=1, h(3)=9
    h2 = float(res.h.d0(2.0))
    assert 1.0 < h2 < 9.0
    assert check_derivative_consistency(res.h, n_probes=256).ok


@pytest.mark.parametrize("dom,vals", [((0, 1), (0, 1)), ((3, 4), (3, 4))])
def test_glue_restriction_matches_pieces(dom, vals):
    left, right = quad_piece((0, 1)), quad_piece((3, 4))
    res = glue(GlueProblem(left, right, "strictly_convex"))
    piece = left if dom == (0, 1) else right
    t = np.linspace(dom[0], dom[1], 801)
    assert np.max(np.abs(res.h.d0(t) - piece.fn.d0(t))) <= 1e-9
    assert np.max(np.abs(res.h.d1(t) - piece.fn.d1(t))) <= 1e-7
    assert np.max(np.abs(res.h.d2(t) - piece.fn.d2(t))) <= 1e-6


def test_glue_seam_second_derivatives():
    res = glue(GlueProblem(exp_quad_piece((0, 1)), exp_quad_piece((3, 4), c=1.2),
                           "strictly_convex"))
    for seam in (1.0, 3.0):
        one_sided = [float(res.h.d2(seam + s)) for s in (-1e-7, 1e-7)]
        assert abs(one_sided[0] - one_sided[1]) <= 1e-6 * max(1.0, *map(abs, one_sided))


def test_glue_rejects_incompatible():
    left = quad_piece((0, 1))
    # slope chain broken: g(3) far below the tangent continuation
    right = quad_piece((3, 4), a=-10.0)
    with pytest.raises(IncompatiblePieces):
        glue(GlueProblem(left, right, "strictly_convex"))


def test_glue_rejects_nonconvex_piece():
    bad = GluePiece(SmoothFn(Interval(0, 1), lambda t: (-(t**2), -2 * t, -2.0 + 0 * t)))
    with pytest.raises(NotStrictlyConvexPiece):
        glue(GlueProblem(bad, quad_piece((3, 4)), "strictly_convex"))


def random_compatible_strict_pair(rng):
    a1 = float(rng.uniform(-2.0, 0.0))
    b1 = a1 + float(rng.uniform(0.5, 1.5))
    a2 = b1 + float(rng.uniform(0.8, 3.0))
    b2 = a2 + float(rng.uniform(0.5, 1.5))
    cf = float(rng.uniform(0.2, 2.0))
    mu = float(rng.uniform(0.05, 0.5))
    left = exp_quad_piece((a1, b1), c=cf, mu=mu)
    f_b1 = float(left.fn.d0(b1))
    fp_b1 = float(left.fn.d1(b1))
    m = fp_b1 + float(rng.uniform(0.3, 2.0))
    slope = m + float(rng.uniform(0.3, 2.0))
    cg = float(rng.uniform(0.2, 2.0))
    g_a2 = f_b1 + m * (a2 - b1)
    # g(t) = g_a2 + slope (t - a2) + cg (t - a2)^2
    right = quad_piece((a2, b2), a=g_a2 - slope * a2 + cg * a2 * a2,
                       b=slope - 2 * cg * a2, c=cg)
    return GlueProblem(left, right, "strictly_convex")


def test_glue_randomized_certified_bounds():
    rng = rng_from_seed(101)
    for _ in range(8):
        prob = random_compatible_strict_pair(rng)
        res = glue(prob)
        check = verify_glue(res)
        assert check.inf_h2 >= res.cert_inf_h2 * (1 - 1e-9) - 1e-12
        assert check.sup_h2 <= res.cert_sup_h2 * (1 + 1e-9)
        for piece in (prob.left, prob.right):
            t = np.linspace(piece.interval.lo, piece.interval.hi, 257)
            assert np.max(np.abs(res.h.d0(t) - piece.fn.d0(t))) <= 1e-9
            assert np.max(np.abs(res.h.d1(t) - piece.fn.d1(t))) <= 1e-7
            assert np.max(np.abs(res.h.d2(t) - piece.fn.d2(t))) <= 1e-6


# ---------------------------------------------------------------------------
# convex mode


def test_glue_convex_mode():
    left = quad_piece((0, 1))
    right = quad_piece((3, 4), a=9 - 5 * 3 + 0.5 * 9, b=5 - 3.0, c=0.5)
    res = glue(GlueProblem(left, right, "convex"))
    assert res.c == 0.0
    check = verify_glue(res)
    assert check.inf_h2 >= -1e-12
    assert check.sup_h2 <= res.cert_sup_h2 * (1 + 1e-9)
    t = np.linspace(0, 1, 401)
    assert np.max(np.abs(res.h.d0(t) - left.fn.d0(t))) <= 1e-9


def test_glue_convex_mode_with_flat_piece():
    # one affine piece (curvature 0) is legal in convex mode
    left = GluePiece(SmoothFn(Interval(0, 1), lambda t: (0.5 * t, 0.5 + 0 * t, 0 * t)))
    right = quad_piece((3, 4), a=2.0 - 2 * 3 + 0.3 * 9, b=2 - 1.8, c=0.3)
    rep = compatibility(GlueProblem(left, right, "convex"))
    assert rep.ok
    res = glue(GlueProblem(left, right, "convex"))
    assert verify_glue(res).inf_h2 >= -1e-12


# ---------------------------------------------------------------------------
# radial mode


def radial_problem():
    mk = lambda dom: GluePiece(SmoothFn(Interval(*dom),
                                        lambda t: (t**2, 2 * t, 2 + 0 * t)))
    return GlueProblem(mk((0.5, 1.0)), mk((3.0, 4.0)), "radial_psh", n=2)


def test_radial_equivalence_log_coordinates():
    res = glue(radial_problem())
    H = res.log_result.h
    t = np.linspace(0.55, 8.0, 1500)
    assert np.max(np.abs(res.h.d0(t) - H.d0(np.log(t)))) <= 1e-10
    # derivative transport: h'(t) = H'(log t)/t
    assert np.max(np.abs(res.h.d1(t) - H.d1(np.log(t)) / t)) <= 1e-10


def test_radial_strict_psh_everywhere():
    res = glue(radial_problem())
    t = np.linspace(0.5, 8.0, 4001)
    lam1 = res.h.d1(t)
    lam2 = lam1 + t * res.h.d2(t)
    assert np.min(lam1) > 0 and np.min(lam2) > 0


def test_radial_det_certificate():
    res = glue(radial_problem())
    det_sup = verify_glue(res).det_sup
    assert det_sup is not None and res.det_cert is not None
    assert det_sup <= res.det_cert * (1 + 1e-9)


def test_radial_example_pieces():
    eps = 2.0**-10
    prob = GlueProblem(
        GluePiece(feps_smoothfn(eps, lo=1 / 64, hi=1 / 16)),
        GluePiece(SmoothFn(Interval(1.0, 4.0), fs_potential().jet, name="log1p")),
        "radial_psh",
        n=2,
    )
    res = glue(prob)
    assert verify_glue(res).det_sup <= res.det_cert * (1 + 1e-9)
    t = np.linspace(1 / 64, 1 / 16, 301)
    assert np.max(np.abs(res.h.d0(t) - prob.left.fn.d0(t))) <= 1e-9
    t = np.linspace(1.0, 4.0, 301)
    assert np.max(np.abs(res.h.d0(t) - np.log1p(t))) <= 1e-9


def test_radial_rejects_non_psh_piece():
    mk_bad = GluePiece(SmoothFn(Interval(0.5, 1.0),
                                lambda t: (-t, -1.0 + 0 * t, 0 * t)))
    mk = GluePiece(SmoothFn(Interval(3.0, 4.0), lambda t: (t**2, 2 * t, 2 + 0 * t)))
    with pytest.raises(NotStrictlyConvexPiece):
        glue(GlueProblem(mk_bad, mk, "radial_psh"))


def test_glue_idempotent_on_restriction():
    # glue, restrict to the pieces, glue again: identical outputs at probes
    left, right = exp_quad_piece((0, 1)), exp_quad_piece((3, 4), c=1.5)
    res1 = glue(GlueProblem(left, right, "strictly_convex"))
    left2 = GluePiece(SmoothFn(Interval(0, 1), res1.h.jet))
    right2 = GluePiece(SmoothFn(Interval(3, 4), res1.h.jet))
    res2 = glue(GlueProblem(left2, right2, "strictly_convex"))
    t = np.linspace(0, 1, 101)
    assert np.max(np.abs(res2.h.d0(t) - res1.h.d0(t))) <= 1e-9
    t = np.linspace(3, 4, 101)
    assert np.max(np.abs(res2.h.d2(t) - res1.h.d2(t))) <= 1e-6


def test_internal_guards_raise_invalid_input():
    problem = radial_problem()
    with pytest.raises(InvalidInput):
        delta_search(problem, 1.0)
    with pytest.raises(InvalidInput):
        _regularized(problem.left.fn, 0.75, 1.0, 0.1)
