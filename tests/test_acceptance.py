"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Every tolerance is pinned here, none deferred.  Criteria combining several
clauses print one line per clause and fail if any clause fails.
"""

import json
import math
import time

import numpy as np
import pytest

from luxglue.cli import main as cli_main
from luxglue.degiorgi import simulate_power_profile
from luxglue.errors import IncompatiblePieces
from luxglue.gluing import GlueProblem, compatibility, glue, rho_eps, verify_glue
from luxglue.numgrid import GridFn, WeightedMeasure, integrate
from luxglue.orlicz import holder_young_bounds, luxemburg_norms, sweep_verdict
from luxglue.radialpsh import (
    CounterexampleParams,
    appendix_bound,
    appendix_c_bounds,
    entropy_sweep,
    feps_smoothfn,
    sweep_verdicts,
)
from luxglue.sampling import random_step_fn, random_young_params, rng_from_seed
from luxglue.youngfn import YoungParams, check_strict_convexity

from test_gluing import random_compatible_strict_pair, quad_piece

SLACK = 1e-8
EPS_KS = list(range(5, 41))


def _clause(name: str, ok: bool, detail: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return ok


def test_criterion_01_lp_oracle_equivalence():
    t0 = time.monotonic()
    rng = rng_from_seed(1001)
    worst = 0.0
    drawn = [(random_step_fn(rng), float(rng.uniform(1.0, 3.0))) for _ in range(200)]
    results = luxemburg_norms([f for f, _ in drawn], [YoungParams(p) for _, p in drawn])
    for (f, p), res in zip(drawn, results):
        norm = res.norm
        direct = integrate(GridFn(f.measure, np.abs(f.values) ** p)) ** (1.0 / p)
        if direct > 0:
            worst = max(worst, abs(norm - direct) / direct)
        else:
            worst = max(worst, abs(norm))
    elapsed = time.monotonic() - t0
    ok = _clause("criterion 1 (plain p-norm equivalence, 200 instances)",
                 worst <= SLACK and elapsed < 5.0,
                 f"worst rel err {worst:.3e}, {elapsed:.2f}s")
    assert ok


def test_criterion_02_holder_young_sweep():
    t0 = time.monotonic()
    rng = rng_from_seed(1002)
    drawn = [(random_step_fn(rng), random_young_params(rng)) for _ in range(1000)]
    bounds = holder_young_bounds(*zip(*drawn))
    max_ratio = max(b.lhs / b.rhs for b in bounds if b.rhs > 0)
    sweep = sweep_verdict(bounds)
    elapsed = time.monotonic() - t0
    ok = _clause("criterion 2 (product-integral bound, 1000 instances)",
                 sweep.passed and elapsed < 60.0,
                 f"violations {sweep.lhs:g}, min slack {1 - max_ratio:.4f}, "
                 f"{elapsed:.1f}s")
    assert ok


def test_criterion_03_weight_convexity():
    rng = rng_from_seed(1003)
    nodes = np.geomspace(1e-6, 1e6, 10_000)
    grid = WeightedMeasure(nodes, np.ones_like(nodes))
    worst_plain = np.inf
    worst_composed = np.inf
    for i in range(50):
        if i == 0:
            params = YoungParams(2.0, 0.0, 0.0)  # p-only member
        elif i == 1:
            params = YoungParams(1.0, 0.0, 1.5)  # double-log-only member
        else:
            params = random_young_params(rng)
        if params.degenerate:
            continue
        rep = check_strict_convexity(params, grid)
        worst_plain = min(worst_plain, rep.min_d2)
        assert rep.min_d2 > 0, f"plain curvature failed at {params}"
        if params.q > 0 or params.r > 0:
            assert rep.min_compose_d2 > 0, f"composed curvature failed at {params}"
            worst_composed = min(worst_composed, rep.min_compose_d2)
    ok = _clause("criterion 3 (weight curvature, 50 parameter samples)",
                 worst_plain > 0 and worst_composed > 0,
                 f"min plain {worst_plain:.3e}, min composed {worst_composed:.3e}")
    assert ok


def test_criterion_04_sharpness_bound_and_near_attainment():
    n = 2048
    grid = WeightedMeasure(np.linspace(0.0, 10.0, n), np.full(n, 10.0 / n))
    all_ok = True
    for alpha in (0.5, 1.0, 2.0, 4.0):
        from luxglue.degiorgi import sharpness_sup

        upper = sharpness_sup(alpha, grid)
        sup = upper.lhs
        # Limit along s - t = alpha e^-t, t -> infinity, and the cap every
        # pair obeys (docs/DECISIONS.md, section 1).
        limit = (alpha / np.e) ** alpha
        cap = ((1 + np.log1p(np.exp(-1.0))) * alpha / np.e) ** alpha
        ok_attain = sup >= 0.95 * limit
        ok_cap = sup <= cap * (1 + SLACK)
        all_ok &= _clause(
            f"criterion 4 (sharpness, alpha={alpha}) upper", upper.passed,
            f"sup {sup:.6f} <= bound {upper.rhs:.6f}")
        all_ok &= _clause(
            f"criterion 4 (sharpness, alpha={alpha}) attainment >= "
            f"0.95*(alpha/e)^alpha", ok_attain,
            f"sup/(alpha/e)^alpha {sup / limit:.4f} (see docs/DECISIONS.md, "
            f"section 1)")
        all_ok &= _clause(
            f"criterion 4 (sharpness, alpha={alpha}) cap "
            f"((1+log(1+1/e)) alpha/e)^alpha", ok_cap,
            f"sup {sup:.6f} <= cap {cap:.6f} (see docs/DECISIONS.md, section 1)")
    assert all_ok


def test_criterion_05_vanishing_simulations():
    rng = rng_from_seed(1005)
    failures = 0
    runs = 0
    for _ in range(20):
        k = float(rng.uniform(0.5, 4.0))
        amplitude = float(rng.uniform(0.5, 2.0))
        length = float(rng.uniform(0.5, 2.0))
        alpha = float(rng.uniform(0.8, 2.0))
        ratio = float(rng.uniform(1.5, 3.0))
        beta = alpha * ratio
        gammas = (1.1, (1.1 + ratio) / 2.0, ratio)
        for gamma in gammas:
            rep, _, _ = simulate_power_profile(k, alpha, beta, gamma, n_nodes=1500,
                                               amplitude=amplitude, length=length)
            runs += 1
            failures += not all(v.passed for v in rep.verdicts)
    ok = _clause("criterion 5 (level-set vanishing, 20 profiles x 3 gammas)",
                 failures == 0, f"{runs} runs, {failures} failures")
    assert ok


def test_criterion_06_mollifier_properties():
    worst_peak = 0.0
    all_ok = True
    for eps in (1.0, 0.1, 0.01):
        rho = rho_eps(eps)
        t = np.linspace(-3 * eps, 3 * eps, 40001)
        r0, r1, r2 = rho.d0(t), rho.d1(t), rho.d2(t)
        outside = np.abs(t) >= eps
        checks = {
            "equals |t| outside": float(np.max(np.abs(r0[outside] - np.abs(t[outside])))) <= 1e-12,
            "dominates |t|": float(np.min(r0 - np.abs(t))) >= -1e-12,
            "even": float(np.max(np.abs(r0 - r0[::-1]))) <= 1e-12,
            "slope bounded": float(np.max(np.abs(r1))) <= 1.0 + 1e-12,
            "curvature in [0, 3/eps]": float(np.min(r2)) >= 0.0
                                       and float(np.max(r2)) <= 3.0 / eps,
        }
        peak = float(np.max(r2)) * eps
        worst_peak = max(worst_peak, peak)
        all_ok &= all(checks.values())
        assert all(checks.values()), (eps, checks)
    ok = _clause("criterion 6 (mollified |t| properties, eps in {1, .1, .01})",
                 all_ok and worst_peak <= 3.0,
                 f"measured sup(curvature)*eps = {worst_peak:.4f} (expected ~1.66)")
    assert ok


def test_criterion_07_glue_certified_bounds():
    rng = rng_from_seed(1007)
    worst_inf_margin = np.inf
    worst_sup_margin = np.inf
    for _ in range(20):
        prob = random_compatible_strict_pair(rng)
        res = glue(prob)
        check = verify_glue(res)
        assert all(v.passed for v in check.verdicts), check.verdicts
        worst_inf_margin = min(worst_inf_margin, check.inf_h2 - res.c)
        worst_sup_margin = min(worst_sup_margin, res.cert_sup_h2 - check.sup_h2)
        for piece in (prob.left, prob.right):
            t = np.linspace(piece.interval.lo, piece.interval.hi, 257)
            assert np.max(np.abs(res.h.d1(t) - piece.d1(t))) <= 1e-7
            assert np.max(np.abs(res.h.d2(t) - piece.d2(t))) <= 1e-6
    rejected = 0
    for _ in range(5):
        left = quad_piece((0, 1))
        right = quad_piece((3, 4), a=float(rng.uniform(-30, -10)))
        if not compatibility(GlueProblem(left, right, "strict")).ok:
            with pytest.raises(IncompatiblePieces):
                glue(GlueProblem(left, right, "strict"))
            rejected += 1
    ok = _clause("criterion 7 (glue certificates, 20 pairs + rejections)",
                 rejected > 0,
                 f"inf margin >= {worst_inf_margin:.2e}, sup margin >= "
                 f"{worst_sup_margin:.3g}, {rejected} incompatible rejected")
    assert ok


def test_criterion_08_example_chain_values():
    worst_lhs = 0.0
    mids = []
    for k in EPS_KS:
        f, f1, _ = feps_smoothfn(2.0**-k).eval(1.0 / 16.0)
        lhs = (1.0 / 16.0) * float(f1)
        mid = (np.log(2.0) - float(f)) / np.log(16.0)
        worst_lhs = max(worst_lhs, lhs)
        mids.append(mid)
        assert lhs <= 1.0 / 12.0
        assert 0.25 <= mid < 3.0 / 8.0 < 0.5
    ok = _clause("criterion 8 (bridge chain arithmetic, k = 5..40)",
                 True, f"max lhs {worst_lhs:.5f} <= 1/12, mid in "
                 f"[{min(mids):.5f}, {max(mids):.5f}] < 3/8 < 1/2")
    assert ok


def test_criterion_09_bounded_entropy_unbounded_oscillation():
    t0 = time.monotonic()
    eps_list = [2.0**-k for k in EPS_KS]
    # |f(0)| = (log 2 / 2) log1p^4(1/eps), with 1/eps = 2^k exactly.
    osc_closed = np.array([
        math.log(2.0) / 2.0
        * math.log1p(math.log1p(math.log1p(math.log1p(2.0**k))))
        for k in EPS_KS
    ])
    all_ok = True
    for n in (2, 3):
        rows = entropy_sweep(n, (float(n - 1), float(n + 1)), eps_list)
        ent_low = np.array([r.ent[0] for r in rows])
        ent_high = np.array([r.ent[1] for r in rows])
        osc = np.array([r.osc for r in rows])
        # the fourth, appendix_integral_uniform, fails by design: criterion 10
        plateau, high_incr, osc_incr, _, ent_bound = sweep_verdicts((n - 1, n + 1), rows)
        all_ok &= _clause(
            f"criterion 9 (n={n}) entropy plateau at r={n - 1}",
            plateau.passed, f"max/min = {plateau.lhs:.4f} <= 10")
        all_ok &= _clause(
            f"criterion 9 (n={n}) entropy <= max(1, integral of phi(density))",
            ent_bound.passed, f"max ratio {ent_bound.lhs:.4f} <= 1")
        all_ok &= _clause(
            f"criterion 9 (n={n}) oscillation strictly increasing",
            osc_incr.passed, f"min step {osc_incr.lhs:.3e}")
        osc_err = float(np.max(np.abs(osc / osc_closed - 1.0)))
        all_ok &= _clause(
            f"criterion 9 (n={n}) oscillation equals closed form",
            osc_err <= 1e-12, f"max rel err {osc_err:.1e} <= 1e-12")
        osc_growth = float(osc[-1] / osc[0])
        growth_closed = float(osc_closed[-1] / osc_closed[0])
        all_ok &= _clause(
            f"criterion 9 (n={n}) oscillation growth equals closed form",
            abs(osc_growth / growth_closed - 1.0) <= 1e-12,
            f"ratio {osc_growth:.10f} vs {growth_closed:.10f} (doubling needs "
            f"eps ~ 1e-331274; see docs/DECISIONS.md, section 2a)")
        all_ok &= _clause(
            f"criterion 9 (n={n}) entropy strictly increasing at r={n + 1}",
            high_incr.passed, f"min step {high_incr.lhs:.2e}")
        # Second half of the sweep, k >= 23.
        sep_steps = np.diff((ent_high / ent_low)[len(EPS_KS) // 2:])
        all_ok &= _clause(
            f"criterion 9 (n={n}) ent(r={n + 1})/ent(r={n - 1}) strictly "
            f"increasing for k >= {EPS_KS[len(EPS_KS) // 2]}",
            bool(np.all(sep_steps > 0)),
            f"min step {float(np.min(sep_steps)):.2e} (see docs/DECISIONS.md, "
            f"section 2b)")
    elapsed = time.monotonic() - t0
    all_ok &= _clause("criterion 9 runtime < 10 min", elapsed < 600.0,
                      f"{elapsed:.1f}s")
    assert all_ok


def test_criterion_10_appendix_integral_uniformity():
    all_ok = True
    for n in (2, 3):
        vals = np.array([
            appendix_c_bounds(CounterexampleParams(2.0**-k, n)).integral
            for k in EPS_KS
        ])
        finite = bool(np.isfinite(vals).all() and np.all(vals > 0))
        all_ok &= _clause(f"criterion 10 (n={n}) integral finite at every eps",
                          finite, f"range [{vals.min():.3e}, {vals.max():.3e}]")
        # Past the sweep too, where the integral is still growing.
        deep = np.array([
            appendix_c_bounds(CounterexampleParams(2.0**-k, n)).integral
            for k in (60, 100, 200)
        ])
        top = float(max(vals.max(), deep.max()))
        bound = appendix_bound(n)
        all_ok &= _clause(
            f"criterion 10 (n={n}) integral <= eps-free B_{n} at k = 5..40, "
            f"60, 100, 200", top <= bound,
            f"max {top:.4f} <= B_{n} = {bound:.4f} (see docs/DECISIONS.md, "
            f"section 3b)")
    assert all_ok


def test_criterion_11_cli_determinism(tmp_path):
    blobs = []
    for i in range(2):
        out = tmp_path / f"rep{i}.json"
        code = cli_main(["holder-young", "--sweep", "100", "--seed", "12345",
                         "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        doc.pop("meta")
        blobs.append(json.dumps(doc, indent=2, sort_keys=True).encode())
    ok = _clause("criterion 11 (seeded CLI determinism)", blobs[0] == blobs[1],
                 f"{len(blobs[0])} bytes, byte-identical outside meta")
    assert ok
