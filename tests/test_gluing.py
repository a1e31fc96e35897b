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
    assert all(v.passed for v in verify_glue(glue(prob)).verdicts)


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
    assert res.c == res.cert_inf_h2 == pytest.approx(1.0)
    assert all(v.passed for v in verify_glue(res).verdicts)
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
        assert all(v.passed for v in verify_glue(res).verdicts)
        for piece in (prob.left, prob.right):
            t = np.linspace(piece.interval.lo, piece.interval.hi, 257)
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
    assert all(v.passed for v in check.verdicts)


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
    check = verify_glue(glue(radial_problem()))
    assert [v.name for v in check.verdicts][-1] == "det_le_certified"
    assert all(v.passed for v in check.verdicts)


def test_radial_example_pieces():
    eps = 2.0**-10
    prob = GlueProblem(
        GluePiece(feps_smoothfn(eps, lo=1 / 64, hi=1 / 16)),
        GluePiece(SmoothFn(Interval(1.0, 4.0), fs_potential().jet, name="log1p")),
        "radial_psh",
        n=2,
    )
    assert all(v.passed for v in verify_glue(glue(prob)).verdicts)


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


# repr of (c, delta, eps, cert_sup_h2, det_cert), then of (h, h', h'') at each
# probe, frozen from the glue built with per-table quadrature rules and
# cutoffs.  The probes cover both pieces, the four cutoff bands (one of them
# below a1), the bridge and both affine tails.
_LINEAR_PROBES = (-0.9, -0.2, 0.5, 1.2, 2.0, 2.7, 3.5, 4.3, 4.9)
GLUE_BITS = {
    "strict": (_LINEAR_PROBES,
               ("1.045", "0.5", "1.1081447961598314", "299.59698411601124", "None"),
               (("1.333657261002217", "-0.8748556635490174", "1.045"),
                ("0.980507153824137", "-0.09012047715409954", "1.6602075444741518"),
                ("1.4118342427282833", "1.3485502728184846", "2.1045650818455455"),
                ("2.8720241872058616", "2.8015635017922937", "1.6863840941640884"),
                ("6.158810826819989", "6.339366295113311", "4.521250705691221"),
                ("10.985761308505412", "7.287591521712303", "1.4100172900314227"),
                ("17.557651118063163", "9.257295335418949", "2.657188600625685"),
                ("25.809951289050733", "11.267012484490932", "1.439231361599989"),
                ("32.76810397734964", "11.91134734140596", "1.045"))),
    "convex": (_LINEAR_PROBES,
               ("0.0", "0.5", "0.7896573757089635", "57.0", "None"),
               (("0.3463704971641457", "-0.4500000000000002", "0.0"),
                ("0.03758570843280662", "-0.34745101788501787", "1.1833658724068052"),
                ("0.25", "1.0", "2.0"),
                ("1.4375857084328065", "2.3474510178850183", "1.1833658724068052"),
                ("4.195685248582073", "4.7749999999999995", "0.0"),
                ("7.5385146642564", "4.785287042077198", "0.23438935546730705"),
                ("11.625", "5.5", "1.0"),
                ("16.338514664256397", "6.214712957922802", "0.23438935546730705"),
                ("20.073185248582075", "6.225", "0.0"))),
    "radial": ((0.0125, 0.03, 0.07, 0.15, 0.3, 0.8, 2.0, 5.0, 8.0),
               ("0.001987411402653746", "0.34657359027997264", "0.18441767239499096",
                "24.350459279799434", "3116.8587878143276"),
               (("-0.23721318818948794", "0.9106439799732553", "-58.30429441040971"),
                ("-0.22578369331013212", "0.5012364095773535", "-11.067868792889836"),
                ("-0.2109826635550558", "0.28813424374886176", "-2.926564524886527"),
                ("-0.15729007672478973", "1.7639832871058863", "26.055003978530543"),
                ("0.13555603738239674", "1.5301453511189815", "-5.078402154811563"),
                ("0.586773534576198", "0.5774916093174438", "-0.655070600932848"),
                ("1.0986122886681098", "0.3333333333333333", "-0.1111111111111111"),
                ("1.7911635310041694", "0.16463825495271206", "-0.03193682702545137"),
                ("2.1785361137006833", "0.10308486005993497", "-0.012854554204325406"))),
}


@pytest.mark.parametrize("kind", sorted(GLUE_BITS))
def test_glue_keeps_its_bits(kind):
    problem = {
        "strict": lambda: GlueProblem(exp_quad_piece((0, 1)), exp_quad_piece((3, 4), c=1.2),
                                      "strictly_convex"),
        "convex": lambda: GlueProblem(quad_piece((0, 1)),
                                      quad_piece((3, 4), a=9 - 5 * 3 + 0.5 * 9, b=5 - 3.0, c=0.5),
                                      "convex"),
        # the README's radial glue
        "radial": lambda: GlueProblem(
            GluePiece(feps_smoothfn(2.0**-10, lo=1 / 64, hi=1 / 16)),
            GluePiece(SmoothFn(Interval(1.0, 4.0), fs_potential().jet, name="log1p")),
            "radial_psh", n=2),
    }[kind]()
    probes, scalars, jets = GLUE_BITS[kind]
    res = glue(problem)
    got = (res.c, res.delta, res.eps, res.cert_sup_h2, res.det_cert)
    assert tuple(repr(None if x is None else float(x)) for x in got) == scalars
    h = res.h.eval(np.array(probes))
    assert tuple(tuple(repr(float(v)) for v in col) for col in zip(*h)) == jets
