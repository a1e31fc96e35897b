import math
import sys
import weakref

import numpy as np
import pytest

from luxglue.errors import NonFinite, OutOfDomain
from luxglue.numgrid import GridFn, Interval, SmoothFn, WeightedMeasure, gauss_measure
from luxglue.orlicz import EntropyParams, entropies, luxemburg_norm
from luxglue.radialpsh import (
    AppendixReport,
    CounterexampleParams,
    FEPS_COEFF,
    HessianSpectrum,
    RadialProfile,
    appendix_c_bounds,
    build_v_eps,
    chart_density,
    chart_measure,
    chart_total_mass,
    density_ratio,
    entropy_sweep,
    feps_smoothfn,
    fs_background_det,
    fs_potential,
    hessian_spectrum,
)
from luxglue.sampling import rng_from_seed
from luxglue.youngfn import phi


def _minima(profile, nodes):
    """Least lambda_small and least lambda_big of the profile over the nodes."""
    s = hessian_spectrum(profile, nodes)
    return float(s.lam_small.min()), float(s.lam_big.min())


def _strictly_psh(profile, nodes):
    return min(_minima(profile, nodes)) > 0


def test_flat_potential_spectrum():
    flat = RadialProfile(3, SmoothFn(Interval(0.0, 10.0), lambda t: (t, 1.0 + 0 * t, 0 * t)))
    s = hessian_spectrum(flat, 2.0)
    assert s.lam_small == 1.0 and s.lam_big == 1.0 and s.det == 1.0


@pytest.mark.parametrize("n", [2, 3, 4])
def test_reference_potential_spectrum(n):
    p = RadialProfile(n, fs_potential())
    for t in (0.1, 1.0, 3.5):
        s = hessian_spectrum(p, t)
        assert abs(s.lam_small - 1 / (1 + t)) < 1e-14
        assert abs(s.lam_big - 1 / (1 + t) ** 2) < 1e-12
        assert abs(s.det - (1 + t) ** (-(n + 1))) < 1e-12
        assert abs(s.det - fs_background_det(n, np.asarray(t))) < 1e-14


def test_spectrum_out_of_domain():
    with pytest.raises(OutOfDomain):
        hessian_spectrum(RadialProfile(2, fs_potential()), -1.0)


@pytest.mark.parametrize("build", [lambda: RadialProfile(3, fs_potential()),
                                   lambda: build_v_eps(CounterexampleParams(2.0**-20, 3))],
                         ids=["fs", "chart"])
def test_spectrum_of_an_array_is_its_points_spectra(build):
    profile = build()
    t = np.concatenate([gauss_measure(Interval(0.0, 9.0), 16, 8).nodes, [0.0, 1 / 16, 1.0, 9.0]])
    s = hessian_spectrum(profile, t)
    for field in ("lam_small", "lam_big", "det"):
        points = [getattr(hessian_spectrum(profile, x), field) for x in t]
        assert getattr(s, field).shape == t.shape and all(np.shape(p) == () for p in points)
        assert np.array_equal(getattr(s, field), points)


def test_psh_check_and_density_ratio_read_inside_the_profile():
    profile = build_v_eps(CounterexampleParams(2.0**-10, 2))
    past = WeightedMeasure(np.array([1.0, 9.5]), np.array([1.0, 1.0]))
    with pytest.raises(OutOfDomain):
        hessian_spectrum(profile, past.nodes)
    with pytest.raises(OutOfDomain):
        density_ratio(profile, past)


def test_det_product_consistency():
    rng = rng_from_seed(31)
    for _ in range(10_000):
        n = int(rng.integers(2, 6))
        lam_small = float(np.exp(rng.uniform(-20, 20)))
        lam_big = float(np.exp(rng.uniform(-20, 20)))
        s = HessianSpectrum(lam_small, lam_big, lam_small ** (n - 1) * lam_big)
        recomputed = np.exp((n - 1) * np.log(s.lam_small) + np.log(s.lam_big))
        assert abs(s.det - recomputed) <= 1e-12 * abs(s.det)


def test_psh_check_reference_and_failure():
    grid = gauss_measure(Interval(1e-6, 4.0), 32, 8)
    assert _strictly_psh(RadialProfile(2, fs_potential()), grid.nodes)
    bad = RadialProfile(2, SmoothFn(Interval(0.0, 5.0),
                                    lambda t: (-t, -1.0 + 0 * t, 0 * t)))
    assert not _strictly_psh(bad, grid.nodes) and _minima(bad, grid.nodes)[0] == -1.0


@pytest.mark.parametrize("k", [5, 10, 20, 40])
def test_feps_strictly_psh_on_quarter_disc(k):
    params = CounterexampleParams(2.0**-k, 2)
    grid = gauss_measure(Interval(1e-8, 0.25), 64, 8)
    assert _strictly_psh(RadialProfile(params.n, feps_smoothfn(params.eps)), grid.nodes)


def test_feps_value_at_zero_formula():
    eps = 2.0**-8
    expected = -FEPS_COEFF * np.log(1 + np.log(1 + np.log(1 + np.log(1 + 1 / eps))))
    assert abs(float(feps_smoothfn(eps).d0(0.0)) - expected) < 1e-14


def test_feps_monotone_blowup():
    vals = [float(feps_smoothfn(2.0**-k).d0(0.0)) for k in range(5, 41)]
    assert np.all(np.diff(vals) < 0)  # more negative as eps shrinks


@pytest.mark.parametrize("t", [1e-3, 1.0 / 32.0, 1.0 / 8.0])
def test_feps_derivatives_match_finite_differences(t):
    fn = feps_smoothfn(2.0**-12)
    h = 1e-6 * max(t, 1e-3)
    (f_lo, d1_lo, _), (f_hi, d1_hi, _) = fn.eval(t - h), fn.eval(t + h)
    _, d1, d2 = fn.eval(t)
    fd1 = (f_hi - f_lo) / (2 * h)
    assert abs(fd1 - d1) <= 1e-5 * abs(fd1)
    fd2 = (d1_hi - d1_lo) / (2 * h)
    assert abs(fd2 - d2) <= 1e-5 * abs(fd2)


@pytest.mark.parametrize("t", [-1e-9, np.nan, [0.1, np.nan]])
def test_feps_jet_rejects_negative_and_nan(t):
    # hessian_spectrum is the one reader of the family's jet, and its guard
    # is the family's domain guard.
    with pytest.raises(OutOfDomain):
        hessian_spectrum(RadialProfile(2, feps_smoothfn(2.0**-8)), t)


def _feps_jet_as_written(t, eps, coeff):
    """The family's jet with each 1 + L formed where it is used."""
    u = 1.0 / (t + eps)
    L1 = np.log1p(u)
    L2 = np.log1p(L1)
    L3 = np.log1p(L2)
    D = (1 + u) * (1 + L1) * (1 + L2) * (1 + L3)
    S = (1 + L1) * (1 + L2) * (1 + L3) + (1 + L2) * (1 + L3) + (1 + L3) + 1.0
    return (-coeff * np.log1p(L3), coeff * u * u / D,
            coeff * u**3 * (u * S - 2.0 * D) / D**2)


def test_feps_jet_keeps_its_bits():
    # t from -2 eps (where log1p reads NaN) through the eps scale to 1/4, with
    # eps = 2^-k for k up to 299; f'' overflows at t = 0 from k = 254 on
    from luxglue.radialpsh import _feps_jet

    rng = rng_from_seed(299)
    overflowed = 0
    for k in range(1, 300):
        eps = 2.0**-k
        t = np.concatenate([eps * np.array([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 4.0]),
                            [np.nan, np.inf, -np.inf], eps * 2.0 ** rng.uniform(-2.0, k, 32),
                            rng.uniform(0.0, 0.25, 32)])
        for coeff in (1.0, FEPS_COEFF):
            with np.errstate(all="ignore"):
                got, want = _feps_jet(t, eps, coeff), _feps_jet_as_written(t, eps, coeff)
            assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want)), (k, coeff)
        overflowed += not np.isfinite(want[2][3])
    assert overflowed == 46


def test_feps_slope_bound_at_sixteenth():
    for k in range(5, 41):
        assert (1.0 / 16.0) * feps_smoothfn(2.0**-k).d1(1.0 / 16.0) <= 1.0 / 12.0


def test_appendix_bounds_basic():
    rep = appendix_c_bounds(CounterexampleParams(2.0**-5, 2))
    assert isinstance(rep, AppendixReport)
    assert np.isfinite(rep.integral) and rep.integral > 0
    # frozen adaptive-quadrature oracle values for n=2
    assert rep.integral == pytest.approx(1.1364098619e-4, rel=1e-6)
    rep40 = appendix_c_bounds(CounterexampleParams(2.0**-40, 2))
    assert rep40.integral == pytest.approx(0.108133810092, rel=1e-6)


@pytest.mark.parametrize("n", [2, 3])
def test_appendix_quadrature_resolves_small_eps(n):
    # d/dt (t f')^n = n t^(n-1) F, so the quadrature of t^(n-1) F on [0, 1/4]
    # must equal ((1/4) f'(1/4))^n / n; a rule whose finest panel is much
    # wider than eps misses the mass near t ~ eps.
    for k in (50, 60, 100):
        eps = 2.0**-k
        u = 1.0 / (0.25 + eps)
        L1 = math.log1p(u)
        L2 = math.log1p(L1)
        L3 = math.log1p(L2)
        d1 = u * u / ((1 + u) * (1 + L1) * (1 + L2) * (1 + L3))
        exact = (0.25 * d1) ** n / n
        rep = appendix_c_bounds(CounterexampleParams(eps, n))
        assert rep.mass == pytest.approx(exact, rel=1e-10, abs=0)


def test_appendix_rejects_overflowing_eps():
    with pytest.raises(NonFinite):
        appendix_c_bounds(CounterexampleParams(2.0**-300, 2))


def test_appendix_sup_stable_in_eps():
    # the sup of the big eigenvalue on [1/8, 1/4]; the family's coefficient
    # scales every sup alike, so the ratio is that of the raw family
    t = np.linspace(0.125, 0.25, 4097)
    sups = [float(np.max(hessian_spectrum(RadialProfile(2, feps_smoothfn(2.0**-k)), t).lam_big))
            for k in (5, 10, 20, 30, 40)]
    assert max(sups) / min(sups) < 1.5


def test_chart_measure_mass():
    for n in (2, 3):
        m = chart_measure(n)
        assert abs(m.mass - chart_total_mass(n)) <= 1e-8 * chart_total_mass(n)


def test_build_v_eps_branches_and_seams():
    params = CounterexampleParams(2.0**-10, 2)
    fn = build_v_eps(params).fn
    ts = np.linspace(1.0, 8.0, 50)
    assert np.max(np.abs(fn.d0(ts) - np.log1p(ts))) == 0.0
    assert float(fn.d0(0.0)) == float(feps_smoothfn(params.eps).d0(0.0))
    for seam in (1.0 / 16.0, 1.0):
        for d, tol in ((fn.d0, 1e-9), (fn.d1, 1e-7), (fn.d2, 1e-6)):
            left = float(d(seam - 1e-12))
            right = float(d(seam + 1e-12))
            assert abs(left - right) <= tol * max(1.0, abs(left), abs(right))


@pytest.mark.parametrize("k", [5, 10, 20])
def test_build_v_eps_strictly_psh(k):
    profile = build_v_eps(CounterexampleParams(2.0**-k, 2))
    grid = gauss_measure(Interval(1e-9, 9.0), 64, 8)
    assert _strictly_psh(profile, grid.nodes)


def test_density_ratio_tail_is_unit():
    params = CounterexampleParams(2.0**-10, 2)
    m = chart_measure(2)
    dens = density_ratio(build_v_eps(params), m)
    tail = m.nodes >= 1.0
    assert np.all(dens.values[tail] == 1.0)
    assert np.all(dens.values > 0)


def test_constant_density_norm_matches_scalar_equation():
    # density identically 1 on the chart measure: the norm solves
    # mass * phi(1/c) = 1, with the closed-form mass pi^n / n!
    n, r = 2, 1.0
    m = chart_measure(n)
    params = EntropyParams(n, r).young
    norm = luxemburg_norm(GridFn(m, np.ones_like(m.nodes)), params).norm

    def equation(c):
        return chart_total_mass(n) * float(phi(params, np.asarray(1.0 / c)))

    assert equation(norm * (1.0 - 1e-8)) > 1.0 >= equation(norm * (1.0 + 1e-8))


def test_entropy_sweep_small():
    rows = entropy_sweep(2, (1.0,), [2.0**-5, 2.0**-10, 2.0**-20])
    ents = [r.ent[0] for r in rows]
    oscs = [r.osc for r in rows]
    assert max(ents) / min(ents) < 2.0
    assert oscs[0] < oscs[1] < oscs[2]


def test_entropy_sweep_shares_one_density_across_r():
    n, eps_list = 3, [2.0**-5, 2.0**-17, 2.0**-33]
    both = entropy_sweep(n, (2.0, 4.0), eps_list)
    single = [entropy_sweep(n, (r,), eps_list) for r in (2.0, 4.0)]
    for i, (row, eps) in enumerate(zip(both, eps_list)):
        assert row.eps == eps
        assert row.ent == (single[0][i].ent[0], single[1][i].ent[0])
        assert row.osc == single[0][i].osc == single[1][i].osc
        # the same bits as the density assembled step by step
        dens = density_ratio(build_v_eps(CounterexampleParams(eps, n)), chart_measure(n, eps))
        shared = chart_density(n, eps)
        assert np.array_equal(shared.measure.nodes, dens.measure.nodes)
        assert np.array_equal(shared.measure.weights, dens.measure.weights)
        assert np.array_equal(shared.values, dens.values)
        for j, r in enumerate((2.0, 4.0)):
            ep = EntropyParams(n, r)
            assert row.ent[j] == entropies([dens], [ep])[0]


def test_chart_sweep_builds_without_verifying(monkeypatch):
    from luxglue import gluing, radialpsh

    def refuse(_result):
        raise AssertionError("the chart sweep must not sample its glue")

    monkeypatch.setattr(gluing, "verify_glue", refuse)
    monkeypatch.setattr(radialpsh, "verify_glue", refuse, raising=False)
    rows = entropy_sweep(2, (1, 3), [2.0**-5, 2.0**-20])
    assert all(np.isfinite(row.ent).all() for row in rows)


@pytest.mark.parametrize("k", [5, 20, 40])
def test_chart_density_evaluates_the_family_on_17229_points(k, monkeypatch):
    # 10,241 table nodes past the left piece's upper end (of the four cutoff
    # tables, the one a density reads), one probe at margin 0 and two at
    # delta_search's margins of 2,049 points each, 640 density nodes below
    # t = 1/16, 3 x 64 derivative-contract points and 9 density nodes in the
    # band past the left piece: 10,241 + 3 x 2,049 + 640 + 192 + 9.  Every end
    # value the glue reads is a probe's end node, so no call is on one point.
    # A table or a probe that nothing reads would add 10,241 or 2,049, and an
    # end value read by its own call one.
    from luxglue import radialpsh

    points = []
    jet = radialpsh._feps_jet
    monkeypatch.setattr(radialpsh, "_feps_jet",
                        lambda t, eps, coeff: points.append(np.size(t)) or jet(t, eps, coeff))
    chart_density(2, 2.0**-k)
    assert sum(points) == 17_229


def test_a_sweep_evaluates_the_reference_once_for_what_no_row_changes(monkeypatch):
    # one sweep makes the reference side's three probes of 2,049 points
    # (margin 0 and delta_search's two margins), its 10,241 table nodes below
    # the glue's right piece and its 3 x 64 derivative-contract points:
    # 16,580.  Each row makes the other 110: the density on the nodes of the
    # band below t = 1 and on the atom past it, and one point, the radial
    # determinant certificate's g'(a2).  Made per row, the four rows below
    # read 4 x 16,690 = 66,760 points.
    from luxglue import radialpsh

    points = []
    reference = radialpsh.fs_potential

    def counted():
        fs = reference()
        return SmoothFn(fs.interval, lambda t: points.append(np.size(t)) or fs.jet(t), fs.name)

    monkeypatch.setattr(radialpsh, "fs_potential", counted)
    entropy_sweep(2, (1, 3), [2.0**-20])
    one_row, shared = sum(points), 3 * 2049 + 10_241 + 3 * 64
    points.clear()
    entropy_sweep(2, (1, 3), [2.0**-k for k in (5, 20, 30, 40)])
    assert shared == 16_580
    assert one_row == 16_690
    assert sum(points) == shared + 4 * (one_row - shared) == 17_020


@pytest.mark.parametrize("ks, measures, rules", [
    ((5, 6, 7, 8), 1, 1),  # 40 panels each
    ((45, 46, 47), 2, 3),  # chart measure 40, 40, 41 panels; appendix rule 41, 42, 43
])
def test_a_sweep_builds_one_chart_measure_and_rule_per_panel_count(ks, measures, rules,
                                                                   monkeypatch):
    from luxglue import radialpsh

    calls = {"chart_measure": 0, "_appendix_rule": 0}
    for name in calls:
        original = getattr(radialpsh, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(radialpsh, name, counted)
    rows = entropy_sweep(2, (1,), [2.0**-k for k in ks])
    assert calls == {"chart_measure": measures, "_appendix_rule": rules}
    for row in rows:  # the same bits as a row built alone
        assert row.apx_integral == appendix_c_bounds(CounterexampleParams(row.eps, 2)).integral


def _module_containers() -> dict[tuple[str, str], int]:
    """Size of every container and function cache that a luxglue module holds."""
    sizes = {}
    for name, mod in list(sys.modules.items()):
        if name.startswith("luxglue") and mod is not None:
            for attr, obj in vars(mod).items():
                if isinstance(obj, (dict, list, set)):
                    sizes[name, attr] = len(obj)
                elif hasattr(obj, "cache_info"):
                    sizes[name, attr] = obj.cache_info().currsize
    return sizes


def test_a_sweep_keeps_nothing_past_its_return(monkeypatch):
    from luxglue import radialpsh

    held = []
    build = radialpsh.build_v_eps

    def recorded(params, reference=None):
        held.append((id(reference), weakref.ref(reference)))
        return build(params, reference)

    monkeypatch.setattr(radialpsh, "build_v_eps", recorded)
    entropy_sweep(2, (1, 3), [2.0**-6])  # fills what a process builds once (the bump tables)
    before = _module_containers()
    held.clear()
    entropy_sweep(2, (1, 3), [2.0**-k for k in (7, 8, 9)])
    assert len(held) == 3 and len({key for key, _ in held}) == 1  # one piece, every row
    assert all(ref() is None for _, ref in held)  # gone without a collection: no cycle holds it
    assert _module_containers() == before


def test_chart_measure_resolves_small_eps():
    # the density varies on the scale t ~ eps (docs/DECISIONS.md section 4)
    assert np.array_equal(chart_measure(2, 2.0**-44).nodes, chart_measure(2).nodes)
    ents = [row.ent[0] for row in entropy_sweep(2, (3,), [2.0**-k for k in (44, 50, 55, 60)])]
    assert all(a < b for a, b in zip(ents, ents[1:]))
    assert np.isfinite(entropy_sweep(2, (3,), [2.0**-150])[0].ent[0])


# reprs of (ent at n - 1, ent at n + 1, osc, apx_integral) for each row of
# entropy_sweep(n, (n - 1, n + 1), [2^-5, 2^-20, 2^-40]), and of
# (integral, mass) of appendix_c_bounds at eps = 2^-10, n = 2;
# frozen from the code before the chart became a bare RadialProfile.  The two
# entropies of each row are frozen from the solver whose norm is the narrowed
# known side; each lies within 1e-10 (relative) below the plain-bisection
# value the row had before.
SWEEP_ROWS = {
    2: [("2.8468288192405278", "2.819495393176034", "0.22564704811797964",
         "0.00011364098619577128"),
        ("2.900844312438252", "2.9201693599544485", "0.289871844025193",
         "0.04580876770187961"),
        ("2.927895925885381", "3.219814520384139", "0.3136540236472179",
         "0.10813381009209207")],
    3: [("4.593481843804453", "4.912210000575925", "0.22564704811797964",
         "6.759832387618205e-07"),
        ("4.724324331202837", "5.083355781393454", "0.289871844025193",
         "0.053668060765271745"),
        ("4.745203847714674", "5.3533072106516295", "0.3136540236472179",
         "0.18086528015941924")],
}
APPENDIX_2_10 = ("0.006877934112082297", "0.004355265086299882")


def test_chart_sweep_keeps_its_bits():
    for n, want in SWEEP_ROWS.items():
        rows = entropy_sweep(n, (n - 1, n + 1), [2.0**-5, 2.0**-20, 2.0**-40])
        assert [tuple(map(repr, (*row.ent, row.osc, row.apx_integral))) for row in rows] == want
    rep = appendix_c_bounds(CounterexampleParams(2.0**-10, 2))
    assert tuple(map(repr, (rep.integral, rep.mass))) == APPENDIX_2_10
