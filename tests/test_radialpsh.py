import math

import numpy as np
import pytest

from luxglue.errors import InvalidInput, NonFinite, OutOfDomain
from luxglue.numgrid import Interval, gauss_measure
from luxglue.orlicz import EntropyParams, entropy
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
    f_eps_at_zero,
    f_eps_jet,
    feps_profile,
    feps_smoothfn,
    fs_background_det,
    fs_constant_density_norm,
    fs_profile,
    hessian_spectrum,
    psh_check,
)
from luxglue.sampling import rng_from_seed


def test_flat_potential_spectrum():
    flat = RadialProfile(3, fs_profile(3).fn.__class__(
        Interval(0.0, 10.0), lambda t: (t, 1.0 + 0 * t, 0 * t)))
    s = hessian_spectrum(flat, 2.0)
    assert s.lam_small == 1.0 and s.lam_big == 1.0 and s.det == 1.0


@pytest.mark.parametrize("n", [2, 3, 4])
def test_reference_potential_spectrum(n):
    p = fs_profile(n)
    for t in (0.1, 1.0, 3.5):
        s = hessian_spectrum(p, t)
        assert abs(s.lam_small - 1 / (1 + t)) < 1e-14
        assert abs(s.lam_big - 1 / (1 + t) ** 2) < 1e-12
        assert abs(s.det - (1 + t) ** (-(n + 1))) < 1e-12
        assert abs(s.det - fs_background_det(n, np.asarray(t))) < 1e-14


def test_spectrum_out_of_domain():
    with pytest.raises(OutOfDomain):
        hessian_spectrum(fs_profile(2), -1.0)


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
    assert psh_check(fs_profile(2), grid).strict
    from luxglue.numgrid import SmoothFn

    bad = RadialProfile(2, SmoothFn(Interval(0.0, 5.0),
                                    lambda t: (-t, -1.0 + 0 * t, 0 * t)))
    rep = psh_check(bad, grid)
    assert not rep.strict and rep.min_small == -1.0


@pytest.mark.parametrize("k", [5, 10, 20, 40])
def test_feps_strictly_psh_on_quarter_disc(k):
    params = CounterexampleParams(2.0**-k, 2)
    grid = gauss_measure(Interval(1e-8, 0.25), 64, 8)
    assert psh_check(feps_profile(params), grid).strict


def test_feps_value_at_zero_formula():
    params = CounterexampleParams(2.0**-8, 2)
    eps = params.eps
    expected = -FEPS_COEFF * np.log(1 + np.log(1 + np.log(1 + np.log(1 + 1 / eps))))
    assert abs(f_eps_at_zero(params) - expected) < 1e-14


def test_feps_monotone_blowup():
    vals = [f_eps_at_zero(CounterexampleParams(2.0**-k, 2)) for k in range(5, 41)]
    assert np.all(np.diff(vals) < 0)  # more negative as eps shrinks


@pytest.mark.parametrize("t", [1e-3, 1.0 / 32.0, 1.0 / 8.0])
def test_feps_derivatives_match_finite_differences(t):
    params = CounterexampleParams(2.0**-12, 2)
    h = 1e-6 * max(t, 1e-3)
    (f_lo, d1_lo, _), (f_hi, d1_hi, _) = (f_eps_jet(params, t - h), f_eps_jet(params, t + h))
    _, d1, d2 = f_eps_jet(params, t)
    fd1 = (f_hi - f_lo) / (2 * h)
    assert abs(fd1 - d1) <= 1e-5 * abs(fd1)
    fd2 = (d1_hi - d1_lo) / (2 * h)
    assert abs(fd2 - d2) <= 1e-5 * abs(fd2)


def test_feps_out_of_domain():
    params = CounterexampleParams(2.0**-8, 2)
    with pytest.raises(OutOfDomain):
        f_eps_jet(params, 0.3)


@pytest.mark.parametrize("t", [-1e-9, np.nan, [0.1, np.nan]])
def test_feps_jet_rejects_negative_and_nan(t):
    with pytest.raises(OutOfDomain):
        f_eps_jet(CounterexampleParams(2.0**-8, 2), t)


def test_feps_jet_is_the_unguarded_jet_on_the_quarter():
    params = CounterexampleParams(2.0**-12, 2)
    t = np.linspace(0.0, 0.25, 1001)
    for got, want in zip(f_eps_jet(params, t), feps_smoothfn(params.eps).jet(t)):
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_feps_slope_bound_at_sixteenth():
    for k in range(5, 41):
        params = CounterexampleParams(2.0**-k, 2)
        assert (1.0 / 16.0) * f_eps_jet(params, 1.0 / 16.0)[1] <= 1.0 / 12.0


def test_appendix_bounds_basic():
    rep = appendix_c_bounds(CounterexampleParams(2.0**-5, 2), t0=1.0 / 8.0)
    assert isinstance(rep, AppendixReport)
    assert np.isfinite(rep.integral) and rep.integral > 0
    assert np.isfinite(rep.sup_big_eigen)
    # frozen adaptive-quadrature oracle values for n=2
    assert rep.integral == pytest.approx(1.1364098619e-4, rel=1e-6)
    rep40 = appendix_c_bounds(CounterexampleParams(2.0**-40, 2), t0=1.0 / 8.0)
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
        rep = appendix_c_bounds(CounterexampleParams(eps, n), t0=1.0 / 8.0)
        assert rep.mass == pytest.approx(exact, rel=1e-10)


def test_appendix_rejects_overflowing_eps():
    with pytest.raises(NonFinite):
        appendix_c_bounds(CounterexampleParams(2.0**-300, 2), t0=1.0 / 8.0)


def test_appendix_sup_stable_in_eps():
    sups = [appendix_c_bounds(CounterexampleParams(2.0**-k, 2), 1.0 / 8.0).sup_big_eigen
            for k in (5, 10, 20, 30, 40)]
    assert max(sups) / min(sups) < 1.5


def test_chart_measure_mass():
    for n in (2, 3):
        m = chart_measure(n)
        assert abs(m.mass - chart_total_mass(n)) <= 1e-8 * chart_total_mass(n)


def test_build_v_eps_branches_and_seams():
    params = CounterexampleParams(2.0**-10, 2)
    chart = build_v_eps(params)
    fn = chart.profile.fn
    ts = np.linspace(1.0, 8.0, 50)
    assert np.max(np.abs(fn.d0(ts) - np.log1p(ts))) == 0.0
    assert float(fn.d0(0.0)) == f_eps_at_zero(params)
    for seam in (1.0 / 16.0, 1.0):
        for d, tol in ((fn.d0, 1e-9), (fn.d1, 1e-7), (fn.d2, 1e-6)):
            left = float(d(seam - 1e-12))
            right = float(d(seam + 1e-12))
            assert abs(left - right) <= tol * max(1.0, abs(left), abs(right))


@pytest.mark.parametrize("k", [5, 10, 20])
def test_build_v_eps_strictly_psh(k):
    chart = build_v_eps(CounterexampleParams(2.0**-k, 2))
    grid = gauss_measure(Interval(1e-9, 9.0), 64, 8)
    assert psh_check(chart.profile, grid).strict


def test_density_ratio_tail_is_unit():
    params = CounterexampleParams(2.0**-10, 2)
    chart = build_v_eps(params)
    m = chart_measure(2)
    dens = density_ratio(chart, m)
    tail = m.nodes >= 1.0
    assert np.all(dens.values[tail] == 1.0)
    assert np.all(dens.values > 0)


def test_constant_density_norm_matches_scalar_equation():
    # density identically 1: the norm solves mass * phi(1/c) = 1 directly
    from luxglue.numgrid import bisect_monotone
    from luxglue.youngfn import YoungParams, phi

    n, r = 2, 1.0
    mass = chart_total_mass(n)
    params = YoungParams(1, n, r)
    oracle = bisect_monotone(
        lambda c: mass * float(phi(params, np.asarray(1.0 / c))),
        1e-6, 1e6, target=1.0, direction="decreasing", tol=1e-13,
    )
    val = fs_constant_density_norm(n, r)
    assert abs(val - oracle) <= 1e-8 * oracle


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
            assert row.ent[j] == entropy(dens, ep)


def test_chart_sweep_builds_without_verifying(monkeypatch):
    from luxglue import gluing, radialpsh

    def refuse(_result):
        raise AssertionError("the chart sweep must not sample its glue")

    monkeypatch.setattr(gluing, "verify_glue", refuse)
    monkeypatch.setattr(radialpsh, "verify_glue", refuse, raising=False)
    rows = entropy_sweep(2, (1, 3), [2.0**-5, 2.0**-20])
    assert all(np.isfinite(row.ent).all() for row in rows)
    assert build_v_eps(CounterexampleParams(2.0**-10, 2)).glue_result.det_cert > 0


def test_chart_measure_resolves_small_eps():
    # the density varies on the scale t ~ eps (docs/DECISIONS.md section 4)
    assert np.array_equal(chart_measure(2, 2.0**-44).nodes, chart_measure(2).nodes)
    ents = [row.ent[0] for row in entropy_sweep(2, (3,), [2.0**-k for k in (44, 50, 55, 60)])]
    assert all(a < b for a, b in zip(ents, ents[1:]))
    assert np.isfinite(entropy_sweep(2, (3,), [2.0**-150])[0].ent[0])


def test_appendix_t0_outside_the_quarter_raises_invalid_input():
    with pytest.raises(InvalidInput):
        appendix_c_bounds(CounterexampleParams(2.0**-10, 2), t0=0.3)
