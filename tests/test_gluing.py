import dataclasses

import numpy as np
import pytest

from luxglue.errors import (
    DeltaSearchFailed,
    IncompatiblePieces,
    InvalidInput,
    NonPositiveEps,
    NotStrictlyConvexPiece,
    VerificationFailed,
)
from luxglue.gluing import (
    GlueProblem,
    MODES,
    MOLLIFIER_M,
    _BLOCK_N,
    _PROBE_N,
    _TABLE_N,
    _fixed,
    _hermite,
    compatibility,
    delta_search,
    glue,
    rho_eps,
    verify_glue,
)
from luxglue.numgrid import Interval, SmoothFn, check_derivative_consistency
from luxglue.radialpsh import CounterexampleParams, build_v_eps, feps_smoothfn, fs_potential
from luxglue.sampling import rng_from_seed

# measured curvature peak of the bump mollifier, times eps
RHO_PEAK = 1.6571376797382103


def quad_piece(dom, a=0.0, b=0.0, c=1.0):
    """a + b t + c t^2 with exact derivatives."""
    return SmoothFn(
        Interval(*dom),
        lambda t: (a + b * t + c * t * t, b + 2 * c * t, 2 * c + 0 * t),
        name="quad",
    )


def exp_quad_piece(dom, c=1.0, mu=0.3):
    """c t^2 + exp(mu t): strictly convex with non-constant curvature."""
    return SmoothFn(
        Interval(*dom),
        lambda t: (c * t * t + np.exp(mu * t), 2 * c * t + mu * np.exp(mu * t),
                   2 * c + mu * mu * np.exp(mu * t)),
        name="expquad",
    )


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
    prob = GlueProblem(quad_piece((0, 1)), quad_piece((3, 4)), "strict")
    rep = compatibility(prob)
    assert (rep.lhs, rep.mid, rep.rhs) == (2.0, 4.0, 6.0)
    assert rep.ok


def test_compatibility_degenerate_affine():
    # one affine function restricted to both intervals: the chain collapses
    mk = lambda dom: SmoothFn(Interval(*dom), lambda t: (t, 1.0 + 0 * t, 0 * t))
    rep = compatibility(GlueProblem(mk((0, 1)), mk((3, 4)), "convex"))
    assert rep.lhs == rep.mid == rep.rhs == 1.0
    assert not rep.ok


def test_compatibility_radial_feps_reference_chain():
    # the assembled-example chain: lhs <= 1/12 < 1/4 <= mid < 3/8 < 1/2 = rhs
    for k in (5, 12, 25, 40):
        eps = 2.0**-k
        prob = GlueProblem(
            feps_smoothfn(eps, lo=1 / 64, hi=1 / 16),
            SmoothFn(Interval(1.0, 4.0), fs_potential().jet, name="log1p"),
            "radial",
        )
        rep = compatibility(prob)
        assert rep.ok
        assert rep.lhs <= 1.0 / 12.0
        assert 0.25 <= rep.mid < 3.0 / 8.0 < 0.5
        assert abs(rep.rhs - 0.5) < 1e-15


def test_delta_search_generous():
    prob = GlueProblem(quad_piece((0, 1)), quad_piece((3, 4)), "strict")
    delta = delta_search(prob, 1.0, compatibility(prob))
    assert delta == (3.0 - 1.0) / 4.0  # accepted at the largest dyadic margin


def test_delta_search_near_degenerate():
    # shrink the compatibility slack: mid barely above lhs
    left = quad_piece((0, 1))  # f(1)=1, f'(1)=2
    # choose g with g(3) = 1 + 2.1*2 = 5.2 so mid = 2.1, g'(3) = 2.2
    right = quad_piece((3, 4), a=5.2 - 2.2 * 3 + 0.05 * 9, b=2.2 - 0.3, c=0.05)
    prob = GlueProblem(left, right, "strict")
    rep = compatibility(prob)
    assert rep.ok and rep.mid - rep.lhs < 0.2
    c = min(1.0, 0.05, (rep.mid - rep.lhs) / 2, (rep.rhs - rep.mid) / 2)
    delta = delta_search(prob, c, rep)
    assert 0 < delta < (3 - 1) / 4
    assert all(v.passed for v in verify_glue(glue(prob)).verdicts)


def test_delta_search_incompatible():
    mk = lambda dom, a: SmoothFn(Interval(*dom), lambda t: (a + t, 1.0 + 0 * t, 0 * t))
    prob = GlueProblem(mk((0, 1), 0.0), mk((3, 4), 2.0), "convex")
    with pytest.raises(DeltaSearchFailed):
        delta_search(prob, 0.0, compatibility(prob))


# ---------------------------------------------------------------------------
# strict mode


def test_glue_quadratics_end_to_end():
    left, right = quad_piece((0, 1)), quad_piece((3, 4))
    res = glue(GlueProblem(left, right, "strict"))
    # certified floor equals the four-term minimum, here 1
    assert res.c == pytest.approx(1.0)
    assert all(v.passed for v in verify_glue(res).verdicts)
    # chord bounds at the midpoint: h convex with h(1)=1, h(3)=9
    h2 = float(res.h.d0(2.0))
    assert 1.0 < h2 < 9.0
    assert check_derivative_consistency(res.h, n_probes=256).ok


@pytest.mark.parametrize("dom,vals", [((0, 1), (0, 1)), ((3, 4), (3, 4))])
def test_glue_restriction_matches_pieces(dom, vals):
    left, right = quad_piece((0, 1)), quad_piece((3, 4))
    res = glue(GlueProblem(left, right, "strict"))
    piece = left if dom == (0, 1) else right
    t = np.linspace(dom[0], dom[1], 801)
    assert np.max(np.abs(res.h.d0(t) - piece.d0(t))) <= 1e-9
    assert np.max(np.abs(res.h.d1(t) - piece.d1(t))) <= 1e-7
    assert np.max(np.abs(res.h.d2(t) - piece.d2(t))) <= 1e-6


def test_glue_seam_second_derivatives():
    res = glue(GlueProblem(exp_quad_piece((0, 1)), exp_quad_piece((3, 4), c=1.2),
                           "strict"))
    for seam in (1.0, 3.0):
        one_sided = [float(res.h.d2(seam + s)) for s in (-1e-7, 1e-7)]
        assert abs(one_sided[0] - one_sided[1]) <= 1e-6 * max(1.0, *map(abs, one_sided))


def test_glue_rejects_incompatible():
    left = quad_piece((0, 1))
    # slope chain broken: g(3) far below the tangent continuation
    right = quad_piece((3, 4), a=-10.0)
    with pytest.raises(IncompatiblePieces):
        glue(GlueProblem(left, right, "strict"))


def test_glue_rejects_nonconvex_piece():
    bad = SmoothFn(Interval(0, 1), lambda t: (-(t**2), -2 * t, -2.0 + 0 * t))
    with pytest.raises(NotStrictlyConvexPiece):
        glue(GlueProblem(bad, quad_piece((3, 4)), "strict"))


def random_compatible_strict_pair(rng):
    a1 = float(rng.uniform(-2.0, 0.0))
    b1 = a1 + float(rng.uniform(0.5, 1.5))
    a2 = b1 + float(rng.uniform(0.8, 3.0))
    b2 = a2 + float(rng.uniform(0.5, 1.5))
    cf = float(rng.uniform(0.2, 2.0))
    mu = float(rng.uniform(0.05, 0.5))
    left = exp_quad_piece((a1, b1), c=cf, mu=mu)
    f_b1 = float(left.d0(b1))
    fp_b1 = float(left.d1(b1))
    m = fp_b1 + float(rng.uniform(0.3, 2.0))
    slope = m + float(rng.uniform(0.3, 2.0))
    cg = float(rng.uniform(0.2, 2.0))
    g_a2 = f_b1 + m * (a2 - b1)
    # g(t) = g_a2 + slope (t - a2) + cg (t - a2)^2
    right = quad_piece((a2, b2), a=g_a2 - slope * a2 + cg * a2 * a2,
                       b=slope - 2 * cg * a2, c=cg)
    return GlueProblem(left, right, "strict")


def test_glue_randomized_certified_bounds():
    rng = rng_from_seed(101)
    for _ in range(8):
        prob = random_compatible_strict_pair(rng)
        res = glue(prob)
        assert all(v.passed for v in verify_glue(res).verdicts)
        for piece in (prob.left, prob.right):
            t = np.linspace(piece.interval.lo, piece.interval.hi, 257)
            assert np.max(np.abs(res.h.d1(t) - piece.d1(t))) <= 1e-7
            assert np.max(np.abs(res.h.d2(t) - piece.d2(t))) <= 1e-6


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
    left = SmoothFn(Interval(0, 1), lambda t: (0.5 * t, 0.5 + 0 * t, 0 * t))
    right = quad_piece((3, 4), a=2.0 - 2 * 3 + 0.3 * 9, b=2 - 1.8, c=0.3)
    rep = compatibility(GlueProblem(left, right, "convex"))
    assert rep.ok
    res = glue(GlueProblem(left, right, "convex"))
    assert verify_glue(res).inf_h2 >= -1e-12


# ---------------------------------------------------------------------------
# radial mode


def radial_problem():
    mk = lambda dom: SmoothFn(Interval(*dom), lambda t: (t**2, 2 * t, 2 + 0 * t))
    return GlueProblem(mk((0.5, 1.0)), mk((3.0, 4.0)), "radial", n=2)


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


def test_radial_glue_keeps_its_log_chain():
    problem = radial_problem()
    assert compatibility(problem) == glue(problem).compat
    # g(a2) = 9 - 20 sits below the left piece: b1 f'(b1) = 2 > the log chord slope
    right = SmoothFn(Interval(3.0, 4.0), lambda t: (t**2 - 20.0, 2 * t, 2 + 0 * t))
    problem = GlueProblem(problem.left, right, "radial")
    assert not compatibility(problem).ok
    with pytest.raises(IncompatiblePieces):
        glue(problem)


@pytest.mark.parametrize("build", [
    lambda: GlueProblem(quad_piece((0, 1)), quad_piece((3, 4)), "strict"),
    radial_problem,
], ids=["strict", "radial"])
def test_a_glue_reads_its_slope_chain_once(build, monkeypatch):
    # delta_search takes the chain that glue computed; a radial glue's chain
    # is its log glue's
    from luxglue import gluing

    calls = []
    chain = gluing.compatibility

    def counted(problem):
        calls.append(problem.mode)
        return chain(problem)

    monkeypatch.setattr(gluing, "compatibility", counted)
    glue(build())
    assert calls == ["strict"]


def _flip_h1(log):
    def jet(tau):
        H0, H1, H2 = log.h.jet(tau)
        return H0, -H1, H2

    return dataclasses.replace(log, h=SmoothFn(log.h.interval, jet))


@pytest.mark.parametrize("name, mutate", [
    ("inf_h2_ge_certified", lambda log, sup: dataclasses.replace(log, c=2.0 * log.c)),
    ("sup_h2_le_certified", lambda log, sup: dataclasses.replace(log, cert_sup_h2=0.5 * sup)),
    ("h1_positive", lambda log, sup: _flip_h1(log)),
])
def test_radial_verdict_fails_on_a_mutant_log_glue(name, mutate):
    res = glue(radial_problem())
    check = verify_glue(res)
    assert all(v.passed for v in check.verdicts)
    mutant = dataclasses.replace(res, log_result=mutate(res.log_result, check.sup_h2))
    assert [v.name for v in verify_glue(mutant).verdicts if not v.passed] == [name]


def test_radial_example_pieces():
    eps = 2.0**-10
    prob = GlueProblem(
        feps_smoothfn(eps, lo=1 / 64, hi=1 / 16),
        SmoothFn(Interval(1.0, 4.0), fs_potential().jet, name="log1p"),
        "radial",
        n=2,
    )
    assert all(v.passed for v in verify_glue(glue(prob)).verdicts)


@pytest.mark.parametrize("lo, hi, jet", [
    (0.3, 0.4, lambda t: (t**2 - t, 2 * t - 1, 2 + 0 * t)),  # lambda1 = f' < 0 only
    (0.5, 1.0, lambda t: (-1 / t, 1 / t**2, -2 / t**3)),  # lambda2 = f' + t f'' < 0 only
    (0.5, 1.0, lambda t: (-t, -1.0 + 0 * t, 0 * t)),  # both
], ids=["lambda1", "lambda2", "both"])
def test_radial_rejects_non_psh_piece(lo, hi, jet):
    mk_bad = SmoothFn(Interval(lo, hi), jet)
    mk = SmoothFn(Interval(3.0, 4.0), lambda t: (t**2, 2 * t, 2 + 0 * t))
    with pytest.raises(NotStrictlyConvexPiece, match="not strictly plurisubharmonic"):
        glue(GlueProblem(mk_bad, mk, "radial"))


def test_glue_idempotent_on_restriction():
    # glue, restrict to the pieces, glue again: identical outputs at probes
    left, right = exp_quad_piece((0, 1)), exp_quad_piece((3, 4), c=1.5)
    res1 = glue(GlueProblem(left, right, "strict"))
    left2 = SmoothFn(Interval(0, 1), res1.h.jet)
    right2 = SmoothFn(Interval(3, 4), res1.h.jet)
    res2 = glue(GlueProblem(left2, right2, "strict"))
    t = np.linspace(0, 1, 101)
    assert np.max(np.abs(res2.h.d0(t) - res1.h.d0(t))) <= 1e-9
    t = np.linspace(3, 4, 101)
    assert np.max(np.abs(res2.h.d2(t) - res1.h.d2(t))) <= 1e-6


def test_internal_guards_raise_invalid_input():
    problem = radial_problem()
    with pytest.raises(InvalidInput):
        delta_search(problem, 1.0, compatibility(problem))


@pytest.mark.parametrize("mode", MODES)
def test_glue_rejects_a_piece_that_breaks_the_derivative_contract(mode):
    # the jet returns 2 f' for f = t^2; a radial glue's nested strict glue
    # meets it as the log piece's H' = 2 t f'
    bad = SmoothFn(Interval(0.5, 1.0), lambda t: (t * t, 4 * t, 2 + 0 * t))
    with pytest.raises(VerificationFailed, match="derivative-consistency contract"):
        glue(GlueProblem(bad, quad_piece((3, 4)), mode))


# repr of (c, delta, eps, cert_sup_h2, det_cert), then of (h, h', h'') at each
# probe, frozen from the glue that extends each piece from its own
# endpoints.  The probes cover both pieces, the four cutoff bands (one of
# them below a1), the bridge and both affine tails.  The strict and convex
# glues are also probed at each edge of their segment table and at its two
# float neighbours, frozen from the glue before its segments were one table.
_LINEAR_PROBES = (-0.9, -0.2, 0.5, 1.2, 2.0, 2.7, 3.5, 4.3, 4.9)


def _at_edges(a1, b1, a2, b2, delta):
    """The edges a1 - ds, a1, b1, b1 + ds, a2 - ds, a2, b2, b2 + ds, with
    ds = 0.9 delta, each between its two float neighbours."""
    ds = 0.9 * delta
    edges = np.array([a1 - ds, a1, b1, b1 + ds, a2 - ds, a2, b2, b2 + ds])
    return tuple(np.stack([np.nextafter(edges, -np.inf), edges,
                           np.nextafter(edges, np.inf)], axis=1).ravel())


# both glues sit on [0, 1] and [3, 4] with delta = 0.5
_EDGE_PROBES = _at_edges(0.0, 1.0, 3.0, 4.0, 0.5)
GLUE_BITS = {
    "strict": (_LINEAR_PROBES + _EDGE_PROBES,
               ("1.045", "0.5", "1.1081447961598316", "299.59698411601124", "None"),
               (("1.3336572610022166", "-0.8748556635490173", "1.045"),
                ("0.9805071538241366", "-0.09012047715409957", "1.6602075444741518"),
                ("1.411834242728283", "1.3485502728184848", "2.1045650818455455"),
                ("2.8720241872058616", "2.8015635017922937", "1.6863840941640884"),
                ("6.158810826819988", "6.33936629511331", "4.521250705691229"),
                ("10.985761308505413", "7.287591521712303", "1.4100172900314218"),
                ("17.557651118063166", "9.257295335418949", "2.657188600625685"),
                ("25.809951289050733", "11.267012484490932", "1.4392313615999879"),
                ("32.76810397734964", "11.91134734140596", "1.045"),
                ("1.045778462405159", "-0.40460566354901734", "1.045"),
                ("1.045778462405159", "-0.4046056635490173", "1.045"),
                ("1.045778462405159", "-0.4046056635490172", "1.045"),
                ("1.0", "0.3", "2.09"),
                ("1.0", "0.3", "2.09"),
                ("1.0", "0.3", "2.09"),
                ("2.3498588075760027", "2.4049576422728007", "2.12148729268184"),
                ("2.349858807576003", "2.4049576422728007", "2.12148729268184"),
                ("2.3498588075760036", "2.4049576422728016", "2.12148729268184"),
                ("3.615786110876235", "3.1323247938958865", "1.879766900548022"),
                ("3.6157861108762366", "3.1323247938958865", "1.8797669005480222"),
                ("3.6157861108762366", "3.1323247938958865", "1.8797669005480315"),
                ("9.906266875901844", "7.11484123267452", "1.045"),
                ("9.906266875901848", "7.11484123267452", "1.045"),
                ("9.906266875901851", "7.114841232674521", "1.045"),
                ("13.259603111156945", "7.937880933347082", "2.6213642800041255"),
                ("13.259603111156949", "7.937880933347084", "2.6213642800041255"),
                ("13.259603111156952", "7.937880933347086", "2.6213642800041255"),
                ("22.520116922736538", "10.596035076820963", "2.698810523046289"),
                ("22.52011692273655", "10.596035076820964", "2.6988105230462893"),
                ("22.52011692273656", "10.596035076820968", "2.6988105230462893"),
                ("27.513803923716946", "11.44109734140596", "1.045"),
                ("27.513803923716953", "11.44109734140596", "1.045"),
                ("27.513803923716964", "11.441097341405962", "1.045"))),
    "convex": (_LINEAR_PROBES + _EDGE_PROBES,
               ("0.0", "0.5", "0.7896573757089635", "57.0", "None"),
               (("0.34637049716414553", "-0.45000000000000023", "0.0"),
                ("0.037585708432806696", "-0.347451017885018", "1.1833658724068052"),
                ("0.25", "1.0", "2.0"),
                ("1.4375857084328065", "2.3474510178850183", "1.1833658724068055"),
                ("4.195685248582072", "4.7749999999999995", "0.0"),
                ("7.5385146642564", "4.785287042077198", "0.2343893554673065"),
                ("11.625", "5.5", "1.0"),
                ("16.338514664256397", "6.214712957922802", "0.2343893554673065"),
                ("20.073185248582075", "6.2250000000000005", "0.0"),
                ("0.14387049716414546", "-0.45000000000000023", "0.0"),
                ("0.1438704971641454", "-0.45000000000000023", "0.0"),
                ("0.14387049716414538", "-0.45000000000000023", "0.0"),
                ("0.0", "-1e-323", "2.0"),
                ("0.0", "0.0", "2.0"),
                ("0.0", "1e-323", "2.0"),
                ("0.9999999999999998", "1.9999999999999998", "2.0"),
                ("1.0", "2.0", "2.0"),
                ("1.0000000000000004", "2.000000000000001", "2.0"),
                ("2.049148943000376", "2.6104739503772665", "3.224113775395864"),
                ("2.049148943000377", "2.610473950377268", "3.224113775395875"),
                ("2.0491489430003775", "2.6104739503772683", "3.224113775395878"),
                ("6.8219352485820695", "4.7749999999999995", "0.0"),
                ("6.821935248582072", "4.7749999999999995", "0.0"),
                ("6.821935248582076", "4.7749999999999995", "0.0"),
                ("8.999999999999998", "5.0", "1.0"),
                ("9.0", "5.0", "1.0"),
                ("9.000000000000004", "5.0", "1.0"),
                ("14.499999999999996", "6.0", "1.0"),
                ("14.5", "6.0", "1.0"),
                ("14.500000000000005", "6.000000000000001", "1.0"),
                ("17.271935248582068", "6.2250000000000005", "0.0"),
                ("17.271935248582075", "6.2250000000000005", "0.0"),
                ("17.27193524858208", "6.2250000000000005", "0.0"))),
    "radial": ((0.0125, 0.03, 0.07, 0.15, 0.3, 0.8, 2.0, 5.0, 8.0),
               ("0.001987411402653746", "0.34657359027997264", "0.18441767239499096",
                "24.350459279799434", "3116.8587878143276"),
               (("-0.23721318818948794", "0.9106439799732553", "-58.30429441040968"),
                ("-0.22578369331013212", "0.5012364095773535", "-11.06786879288984"),
                ("-0.2109826635550558", "0.28813424374886176", "-2.926564524886527"),
                ("-0.1572900767247897", "1.7639832871058874", "26.055003978530532"),
                ("0.1355560373823967", "1.5301453511189815", "-5.078402154811563"),
                ("0.586773534576198", "0.5774916093174438", "-0.655070600932848"),
                ("1.0986122886681098", "0.3333333333333333", "-0.1111111111111111"),
                ("1.7911635310041694", "0.16463825495271206", "-0.03193682702545137"),
                ("2.1785361137006833", "0.10308486005993497", "-0.012854554204325406"))),
}


GLUE_PROBLEMS = {
    "strict": lambda: GlueProblem(exp_quad_piece((0, 1)), exp_quad_piece((3, 4), c=1.2),
                                  "strict"),
    "convex": lambda: GlueProblem(quad_piece((0, 1)),
                                  quad_piece((3, 4), a=9 - 5 * 3 + 0.5 * 9, b=5 - 3.0, c=0.5),
                                  "convex"),
    # the README's radial glue
    "radial": lambda: GlueProblem(
        feps_smoothfn(2.0**-10, lo=1 / 64, hi=1 / 16),
        SmoothFn(Interval(1.0, 4.0), fs_potential().jet, name="log1p"),
        "radial", n=2),
}


@pytest.mark.parametrize("kind", sorted(GLUE_BITS))
def test_glue_keeps_its_bits(kind):
    probes, scalars, jets = GLUE_BITS[kind]
    res = glue(GLUE_PROBLEMS[kind]())
    got = (res.c, res.delta, res.eps, res.cert_sup_h2, res.det_cert)
    assert tuple(repr(None if x is None else float(x)) for x in got) == scalars
    h = res.h.eval(np.array(probes))
    assert tuple(tuple(repr(float(v)) for v in col) for col in zip(*h)) == jets


# repr of (h, h', h'') at NaN, -inf and +inf, frozen from the glue before
# its segments were one table; the last is the README's chart potential at
# eps = 2^-10.  NaN lies past +inf in numpy's sort order, so a bare
# searchsorted would hand it to the right piece's tail, whose h'' is c.
NONFINITE_BITS = {
    "strict": (("nan", "nan", "nan"), ("nan", "-inf", "1.045"), ("inf", "inf", "1.045")),
    "convex": (("nan", "nan", "nan"), ("nan", "nan", "0.0"), ("nan", "nan", "0.0")),
    "radial": (("nan", "nan", "nan"), ("nan", "nan", "nan"), ("inf", "nan", "nan")),
    "chart": (("nan", "nan", "nan"), ("0.0", "0.0", "0.0"), ("inf", "0.0", "-0.0")),
}


@pytest.mark.parametrize("kind", sorted(NONFINITE_BITS))
def test_h_keeps_its_values_at_nan_and_inf(kind):
    fn = (build_v_eps(CounterexampleParams(2.0**-10, 2)).fn if kind == "chart"
          else glue(GLUE_PROBLEMS[kind]()).h)
    with np.errstate(all="ignore"):  # the tails read inf - inf and 0 * inf
        jet = fn.eval(np.array([np.nan, -np.inf, np.inf]))
    assert tuple(tuple(repr(float(v)) for v in col) for col in zip(*jet)) == NONFINITE_BITS[kind]


@pytest.mark.parametrize("kind", ["strict", "convex", "radial", "chart"])
def test_h_of_a_shuffled_grid_is_the_shuffled_h(kind):
    # on an unsorted grid a segment's points, taken in the order of their
    # values, can span another segment's points by index; each point must
    # still read its own segment, bit for bit
    fn = (build_v_eps(CounterexampleParams(2.0**-10, 2)).fn if kind == "chart"
          else glue(GLUE_PROBLEMS[kind]()).h)
    t = np.linspace(fn.interval.lo, fn.interval.hi, 4097)
    perm = rng_from_seed(4097).permutation(t.size)
    want = fn.eval(t)
    got = fn.eval(t[perm])
    assert all(np.array_equal(g, w[perm]) for g, w in zip(got, want))
    if kind == "strict":  # pieces on [0, 1] and [3, 4]; 9.0 lies in g's tail
        t = np.array([0.5, 9.0, 0.3, 9.0, 0.7])
        got = fn.eval(t)
        want = [np.concatenate(col) for col in zip(*(fn.eval(t[[k]]) for k in range(t.size)))]
        assert all(np.array_equal(g, w) for g, w in zip(got, want))


@pytest.mark.parametrize("kind", ["strict", "convex", "random"])
def test_h_is_the_piece_on_its_interval(kind):
    rng = rng_from_seed(103)
    problems = ([random_compatible_strict_pair(rng) for _ in range(4)] if kind == "random"
                else [GLUE_PROBLEMS[kind]()])
    for problem in problems:
        res = glue(problem)
        for piece in (problem.left, problem.right):
            t = np.linspace(piece.interval.lo, piece.interval.hi, 1001)
            for got, want in zip(res.h.eval(t), piece.eval(t)):
                assert np.array_equal(got, want)
        match = [v.lhs for v in verify_glue(res).verdicts if v.name.startswith("restriction_match")]
        assert match == [0.0, 0.0]


@pytest.mark.parametrize("mode", ["strict", "convex"])
def test_each_piece_owns_its_ends_where_a_band_collapses(mode):
    # near 1e17 the float spacing is 16, so each end e and e -+ ds are one
    # float; h must still read the piece at e, not a tail or the bridge
    def square(lo, hi):
        return SmoothFn(Interval(lo, hi), lambda t: (
            (t - 1e17) ** 2, 2.0 * (t - 1e17), np.full(t.shape, 2.0)), name="square")

    f, g = square(1e17, 1e17 + 1e8), square(1e17 + 1e8 + 32, 1e17 + 2e8)
    res = glue(GlueProblem(f, g, mode))
    ends = (f.interval.lo, f.interval.hi, g.interval.lo, g.interval.hi)
    assert all(e - 0.9 * res.delta == e == e + 0.9 * res.delta for e in ends)
    for e, piece in zip(ends, (f, f, g, g)):
        assert [float(v) for v in res.h.eval(e)] == [float(v) for v in piece.eval(e)]


def test_tables_touched_in_any_order_give_the_same_glue():
    # Each end's cumulative tables are built on first use.  Building the
    # glue reads F past b1 and G before a2; below a1 and past b2, touched in
    # either order or together, h must read what a fresh glue reads when
    # that end is the first it touches.
    problem = GLUE_PROBLEMS["strict"]()
    t = np.linspace(-1.0, 5.0, 4097)
    below, above = t < 0.0, t > 4.0
    want = [glue(problem).h.eval(t[below]), glue(problem).h.eval(t[above])]
    jets = []
    for order in ([below, above], [above, below], []):
        h = glue(problem).h
        for mask in order:
            h.eval(t[mask])
        jets.append(h.eval(t))
        for mask, ref in zip((below, above), want):
            assert all(np.array_equal(got[mask], w) for got, w in zip(jets[-1], ref))
    assert all(np.array_equal(a, b) for jet in jets[1:] for a, b in zip(jet, jets[0]))


@pytest.mark.parametrize("kind", ["strict", "radial"])
def test_h_eval_leaves_its_grid_unchanged(kind):
    # branch jets get views of the grid's runs, so a jet that wrote into its
    # argument would show here
    res = glue(GLUE_PROBLEMS[kind]())
    t = np.linspace(res.working.lo, res.working.hi, 4097)
    before = t.copy()
    res.h.eval(t)
    verify_glue(res)
    assert np.array_equal(t, before)


def test_one_basis_gives_each_pairs_own_interpolant():
    fx = _fixed()
    rng = rng_from_seed(2049)
    sq = np.concatenate([[0.0, 1.0, -0.5, 1.5, np.nan, 0.5, 1.0 - 2.0**-53],
                         np.arange(_TABLE_N + 1) / _TABLE_N, rng.uniform(-0.1, 1.1, 5000)])

    def clipped(V, D):  # the single-pair form with np.clip
        with np.errstate(invalid="ignore"):  # NaN to int
            x = np.clip(sq, 0.0, 1.0)
            i = np.clip((x * _TABLE_N).astype(int), 0, _TABLE_N - 1)
        x = x * _TABLE_N - i
        x2 = x * x
        x3 = x2 * x
        return (V[i] * (2 * x3 - 3 * x2 + 1) + V[i + 1] * (-2 * x3 + 3 * x2)
                + (1.0 / _TABLE_N) * (D[i] * (x3 - 2 * x2 + x) + D[i + 1] * (x3 - x2)))

    with np.errstate(invalid="ignore"):
        both = _hermite(sq, (fx.J, fx.I), (fx.I, fx.g))
        single = [_hermite(sq, (fx.J, fx.I))[0], _hermite(sq, (fx.I, fx.g))[0]]
    for got, one, ref in zip(both, single, (clipped(fx.J, fx.I), clipped(fx.I, fx.g))):
        assert got.tobytes() == one.tobytes() == ref.tobytes()
    assert np.isnan(both[0][4]) and not np.isnan(np.delete(both[0], 4)).any()


# ---------------------------------------------------------------------------
# what a glue evaluates


def _recording(fn, sizes):
    """fn with a jet that appends the size of each call to sizes."""
    return dataclasses.replace(fn, jet=lambda t: sizes.append(t.size) or fn.jet(t))


def _glue_call_sizes(kind, monkeypatch):
    """The jet call sizes of the left and right piece while the glue of kind
    is built, or for kind "chart" while the chart density at eps = 2^-10 is."""
    left, right = [], []
    if kind != "chart":
        problem = GLUE_PROBLEMS[kind]()
        glue(dataclasses.replace(problem, left=_recording(problem.left, left),
                                 right=_recording(problem.right, right)))
        return left, right
    from luxglue import radialpsh

    jet, reference = radialpsh._feps_jet, radialpsh.fs_potential
    monkeypatch.setattr(radialpsh, "_feps_jet",
                        lambda t, eps, coeff: left.append(t.size) or jet(t, eps, coeff))
    monkeypatch.setattr(radialpsh, "fs_potential", lambda: _recording(reference(), right))
    radialpsh.chart_density(2, 2.0**-10)
    return left, right


@pytest.mark.parametrize("kind, right_small", [
    ("strict", []),
    ("convex", []),
    # the radial determinant certificate reads g'(a2) of the right piece in t
    ("radial", [1]),
    # and the chart potential also reads the reference on the measure's atom at t = 2
    ("chart", [1, 1]),
])
def test_a_glue_reads_its_end_values_from_its_probes(kind, right_small, monkeypatch):
    # the slope chain, delta_search's margin ends, the extensions' end values
    # and the bridge gaps are the end nodes of the pieces' probes: no jet call
    # on one or two points
    left, right = _glue_call_sizes(kind, monkeypatch)
    assert left and [s for s in left if s < 3] == []
    assert [s for s in right if s < 3] == right_small
    # building the glue makes one table per piece, f's past b1 and g's below
    # a2, and each table's f'' is evaluated in blocks: two full ones and a
    # last of 2,049 nodes
    assert _fixed().nodes.size == 2 * _BLOCK_N + _PROBE_N
    for sizes in (left, right):
        assert [s for s in sizes if s > _PROBE_N] == [_BLOCK_N, _BLOCK_N]


@pytest.mark.parametrize("kind", ["convex", "radial"])
def test_kept_table_curvature_is_the_one_call_curvature(kind):
    # convex: quadratic pieces; radial: the README's pieces, whose glue runs on
    # the log pieces of the family and of log1p
    res = glue(GLUE_PROBLEMS[kind]())
    cert = res.log_result or res
    cert.h.eval(np.array([cert.working.lo, cert.working.hi]))  # the two tables glue left
    nodes, ds = _fixed().nodes, 0.9 * res.delta
    assert nodes.size % _BLOCK_N  # a last, partial block
    for piece in (cert.problem.left, cert.problem.right):
        for sign, e in ((-1.0, piece.interval.lo), (1.0, piece.interval.hi)):
            kept = piece._kept[("nodes_d2", sign, ds)]
            assert kept.tobytes() == piece.d2(e + sign * nodes * ds).tobytes(), (piece.name, sign)
