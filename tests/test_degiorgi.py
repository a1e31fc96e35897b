import math
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from luxglue import degiorgi
from luxglue.degiorgi import (
    IterationHypothesis,
    LevelSetFn,
    check_hypothesis,
    double_exp_level_fn,
    fit_constant,
    induction_inequality_gap,
    l_gamma,
    power_superlevel_fn,
    sharpness_sup,
    simulate_power_profile,
    simulate_vanishing,
    t_gamma,
)
from luxglue.errors import (
    BetaNotGreaterThanAlpha,
    GammaOutOfRange,
    GridTooShort,
    HypothesisFails,
    InvalidInput,
    OutOfDomain,
    VerificationFailed,
)
from luxglue.gluing import GlueProblem
from luxglue.numgrid import (Interval, SmoothFn, WeightedMeasure, gauss_measure,
                             geometric_gauss_measure)
from luxglue.orlicz import EntropyParams, norm_bound_from_integral, young_pair_check
from luxglue.radialpsh import (CounterexampleParams, RadialProfile, feps_smoothfn, fs_potential,
                               hessian_spectrum)
from luxglue.sampling import rng_from_seed
from luxglue.youngfn import YoungParams

# 50-digit evaluations of the threshold formulas, frozen.
T_1_1_2_2_F1 = 22.630989917543453427205206889       # C=1 a=1 b=2 g=2 f0=1
T_2_1_3_15_F10 = 35520.706904534328430524459353     # C=2 a=1 b=3 g=1.5 f0=10
L_1_1_3_2_T1 = 22.630989917543453427205206889       # C=1 a=1 b=3 g=2 T=1
# ... of l_gamma at g=1.5 T=1 where (C e)^(1/a) overflows, C the float nearest 1e300
L_1E300_001_1_15_T1 = 1.04592454591927119853126753454e+305  # C=1e300 a=0.01 b=1
L_1_0001_2_15_T1 = 1.65122503313073844319586055408          # C=1 a=0.001 b=2
# 60-digit mpmath evaluations where (C e)^(1/alpha) is subnormal (about 3.16e-320)
# at C = 7.53766052568409e-246, alpha = 0.7658461568897805, beta = 663.7336321393266:
# t_gamma at gamma = 1.5, f0 = 1, and l_gamma at gamma = 801.608711020282,
# T = 2.540258941056332e+78
T_SUBNORMAL_CE = 1.59621616257273871863485737716e-181
L_SUBNORMAL_CE = 0.654576858383801868785729113686


def test_t_gamma_branch_crossing_value():
    # f0 = 1 sits on the branch boundary; both branches coincide there
    tg = t_gamma(IterationHypothesis(1, 1, 2), 1.0, 2.0)
    assert abs(tg.value - T_1_1_2_2_F1) <= 1e-12 * T_1_1_2_2_F1
    assert not tg.at_zero_level


def test_t_gamma_oracle_upper_branch():
    tg = t_gamma(IterationHypothesis(2, 1, 3), 10.0, 1.5)
    assert abs(tg.value - T_2_1_3_15_F10) <= 1e-12 * T_2_1_3_15_F10


def test_t_gamma_zero_level_limit():
    tg = t_gamma(IterationHypothesis(1, 1, 2), 0.0, 1.5)
    assert tg.value == 0.0 and tg.at_zero_level
    # at gamma = beta/alpha the limit is the finite front factor
    tg2 = t_gamma(IterationHypothesis(1, 1, 2), 0.0, 2.0)
    assert tg2.at_zero_level and tg2.value > 0


def test_t_gamma_vanishing_level_monotone():
    vals = [t_gamma(IterationHypothesis(1, 1, 2), f0, 1.5).value
            for f0 in (1e-6, 1e-4, 1e-2)]
    assert vals[0] < vals[1] < vals[2]


@pytest.mark.parametrize("C, alpha, beta, f0", [
    (1e300, 0.01, 1.0, 1.0),  # (C e)^(1/alpha) overflows a Python float power
    (1.0, 0.001, 2.0, 1.0),
    (1e300, 0.01, 1.0, 10.0),  # the upper branch, which computes the power again
])
def test_an_overflowing_power_reads_inf(C, alpha, beta, f0):
    # as a float64 power does, with no warning; every finite result keeps its bits
    h = IterationHypothesis(C, alpha, beta)
    tg = t_gamma(h, f0, 2.0)
    assert tg.value == np.inf and not tg.verdict.passed
    # l_gamma's exact value is finite here, and its log form reads it
    exact = L_1E300_001_1_15_T1 if C == 1e300 else L_1_0001_2_15_T1
    assert l_gamma(h, 1.5, 1.0) == pytest.approx(exact, rel=1e-13, abs=0)


def test_an_overflowing_power_times_an_underflowed_factor_reads_inf():
    # (C e)^(1/alpha) overflows and the max factor underflows to 0: the
    # product is inf * 0, and its log form reads the overflow
    tg = t_gamma(IterationHypothesis(1e300, 0.01, 10.0), 1e-300, 2.0)
    assert tg.value == np.inf and not tg.verdict.passed
    # where the exact threshold is below the smallest float, it reads 0
    assert t_gamma(IterationHypothesis(0.01, 0.001, 3.0), 1.0, 2000.0).value == 0.0
    assert t_gamma(IterationHypothesis(0.01, 0.001, 2.0), 0.0, 2000.0).value == 0.0
    # l_gamma's inf * 0 term is its log form, a finite exponent
    assert 0.0 < l_gamma(IterationHypothesis(0.01, 0.001, 3.0), 2000.0, 1.0) < np.inf


def test_a_subnormal_power_reads_its_log_form():
    # the product form carries the power's few significant bits: 6.5e-5 and
    # 7.8e-8 relative off in t_gamma and l_gamma
    h = IterationHypothesis(7.53766052568409e-246, 0.7658461568897805, 663.7336321393266)
    assert 0.0 < (h.C * np.e) ** (1.0 / h.alpha) < np.finfo(float).tiny
    tg = t_gamma(h, 1.0, 1.5)
    assert abs(tg.value - T_SUBNORMAL_CE) <= 1e-13 * T_SUBNORMAL_CE and tg.verdict.passed
    L = l_gamma(h, 801.608711020282, 2.540258941056332e+78)
    assert abs(L - L_SUBNORMAL_CE) <= 1e-13 * L_SUBNORMAL_CE


def test_thresholds_warn_nothing_outside_the_cli():
    # L^(beta/alpha) underflows to 0, so the product form divides by 0; the
    # suite turns a warning into an error
    tg = t_gamma(IterationHypothesis(1.0, 0.001, 2.0), 10.0, 2.0)
    assert tg.value == np.inf and not tg.verdict.passed
    # (gamma - 1) T underflows to 0, where a Python float quotient raised
    # ZeroDivisionError
    assert l_gamma(IterationHypothesis(1.0, 1.0, 2.0), 1.5, 5e-324) == np.inf


def _chain_by_steps(f: LevelSetFn, T: float, gamma: float) -> tuple[int, bool]:
    """(chain_depth, chain_ok) of the decay chain with one scalar bound per
    step, as ``simulate_vanishing`` first computed it: the reference for its
    one array pass."""
    depth, ok = 0, True
    if f.f_t0 > 0:
        bounds, points = [], []
        for n in range(1, 200):
            bound = f.f_t0 * np.exp(1.0 - n)
            if bound < degiorgi.ZERO_FLOOR:
                break
            bounds.append(bound)
            points.append(f.t0 + (1.0 - float(n) ** (1.0 - gamma)) * T)
        idx = np.searchsorted(f.grid, points)
        short = np.flatnonzero(idx >= f.grid.size)
        depth = int(short[0]) if short.size else idx.size
        over = np.flatnonzero(f.values[idx[:depth]]
                              > np.multiply(bounds[:depth], 1 + degiorgi._CHAIN_SLACK))
        if over.size:
            depth, ok = int(over[0]) + 1, False
    return depth, ok


@pytest.mark.parametrize("gamma", [1.2, 1.5, 1.7, 2.0])
@pytest.mark.parametrize("scale, shrink, want", [
    (1.0, 1.0, (199, True)),  # every step holds
    (1.0, 0.05, (2, False)),  # a threshold shrunk 20-fold: f is still high at step 2
    (1e-290, 1.0, (24, True)),  # the bounds pass below ZERO_FLOOR after 24 steps
    (0.0, 1.0, (0, True)),  # no chain at f(t0) = 0
])
def test_decay_chain_matches_its_step_by_step_form(scale, shrink, want, gamma, monkeypatch):
    threshold = degiorgi.t_gamma

    def shrunk(h, f0, g):
        tg = threshold(h, f0, g)
        return tg._replace(value=shrink * tg.value)

    monkeypatch.setattr(degiorgi, "t_gamma", shrunk)
    t = np.append(np.linspace(0.0, 40.0, 2000), 1e300)  # the far zero node covers any threshold
    f = LevelSetFn(t, scale * np.append(np.maximum(0.0, 1.0 - t[:-1] / 2.0), 0.0))
    rep = simulate_vanishing(f, IterationHypothesis(fit_constant(f, 1.0, 2.0), 1.0, 2.0), gamma)
    assert (rep.chain_depth, rep.chain_ok) == _chain_by_steps(f, rep.threshold, gamma) == want


def test_t_gamma_guards():
    with pytest.raises(BetaNotGreaterThanAlpha):
        t_gamma(IterationHypothesis(1, 1, 1), 1.0, 1.0)
    with pytest.raises(GammaOutOfRange):
        t_gamma(IterationHypothesis(1, 1, 2), 1.0, 2.5)
    with pytest.raises(GammaOutOfRange):
        t_gamma(IterationHypothesis(1, 1, 2), 1.0, 1.0)


def test_t_gamma_monotonicities():
    # increasing in f0 (the log(1 + 1/f0) denominator shrinks: a larger
    # starting level takes longer to die out) and increasing in C
    f0s = np.geomspace(1.5, 100.0, 12)
    vals = [t_gamma(IterationHypothesis(1, 1, 3), f0, 1.5).value for f0 in f0s]
    assert np.all(np.diff(vals) > 0)
    Cs = np.geomspace(0.1, 10.0, 12)
    vals = [t_gamma(IterationHypothesis(C, 1, 3), 2.0, 1.5).value for C in Cs]
    assert np.all(np.diff(vals) > 0)


def test_thresholds_keep_their_bits():
    # the README's formula example (C, alpha, beta, gamma, f0) = (1, 1, 2, 2, 1);
    # l_gamma needs gamma < beta/alpha, so it is taken there at gamma = 1.5 and
    # T = 1; both frozen from the code before f(t0) left the hypothesis
    h = IterationHypothesis(1.0, 1.0, 2.0)
    assert repr(t_gamma(h, 1.0, 2.0).value) == "22.630989917543452"
    assert repr(l_gamma(h, 1.5, 1.0)) == "710.0068831350086"
    with pytest.raises(GammaOutOfRange):
        l_gamma(h, 2.0, 1.0)


def _power(base, exponent):
    """base ** exponent as a Python float power, +inf where it overflows."""
    try:
        return base ** exponent
    except OverflowError:
        return math.inf


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def _t_gamma_by_cases(h, f_t0, gamma):
    """t_gamma's value and flag as first written with a Python float power
    and one hand-written log fallback per product: the reference for its
    bits."""
    ratio = h.beta / h.alpha
    ce = _power(h.C * np.e, 1.0 / h.alpha)
    normal = np.finfo(float).tiny <= ce < np.inf
    front = ce * (2.0 / np.log(2.0)) ** gamma / (gamma - 1.0)
    log_front = ((np.log(h.C) + 1.0) / h.alpha + gamma * np.log(2.0 / np.log(2.0))
                 - np.log(gamma - 1.0))
    if f_t0 == 0.0:
        if gamma < ratio:
            return 0.0, True
        return (front if normal and np.isfinite(front) else np.exp(log_front)), True
    L = np.log1p(1.0 / f_t0)
    value = front * max(L ** (gamma - ratio), np.log(2.0) ** gamma / L**ratio)
    if f_t0 <= 1.0:
        branch = front / L ** (ratio - gamma)
    else:
        branch = ce * _power(2.0, gamma) / ((gamma - 1.0) * L**ratio)
    exact = normal and np.isfinite(value)
    if exact and abs(branch - value) > 1e-12 * max(abs(branch), abs(value)):
        raise VerificationFailed(f"threshold forms disagree: max-form {value} vs branch {branch}")
    if not exact:
        log_L = np.log(L)
        log_max = max((gamma - ratio) * log_L if gamma < ratio else 0.0,
                      gamma * np.log(np.log(2.0)) - ratio * log_L)
        value = np.exp(log_front + log_max)
    return float(value), False


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def _l_gamma_by_cases(h, gamma, T):
    """l_gamma as first written, as ``_t_gamma_by_cases``."""
    ce = _power(h.C * np.e, 1.0 / h.alpha)
    p1, p2 = h.alpha / (h.beta - gamma * h.alpha), h.alpha / h.beta
    den = np.float64(gamma - 1.0) * T
    a1 = (ce * (2.0 / np.log(2.0)) ** gamma / den) ** p1
    a2 = (ce * _power(2.0, gamma) / den) ** p2
    log_base = (np.log(h.C) + 1.0) / h.alpha - np.log(gamma - 1.0) - np.log(T)
    normal = np.finfo(float).tiny <= ce < np.inf
    if not (normal and np.isfinite(a1)):
        a1 = np.exp(p1 * (log_base + gamma * np.log(2.0 / np.log(2.0))))
    if not (normal and np.isfinite(a2)):
        a2 = np.exp(p2 * (log_base + gamma * np.log(2.0)))
    return float(max(a1, a2))


def _threshold_draws(n, seed):
    """n draws of (hypothesis, gamma, f0, T): C in [1e-300, 1e300], alpha in
    [1e-3, 1e2] and gamma up to 101, log-uniform; every fourth C is drawn so
    that (C e)^(1/alpha) is near the subnormal range, every third f0 is 0
    and every fifth gamma is beta/alpha."""
    rng = rng_from_seed(seed)
    for i in range(n):
        alpha = 10.0 ** rng.uniform(-3.0, 2.0)
        if i % 4 == 3:  # log (C e)^(1/alpha) in [-750, -700]
            alpha = 10.0 ** rng.uniform(-3.0, np.log10(0.9))
            C = float(np.exp(alpha * rng.uniform(-750.0, -700.0) - 1.0))
        else:
            C = 10.0 ** rng.uniform(-300.0, 300.0)
        beta = alpha * (1.0 + 10.0 ** rng.uniform(-3.0, 3.0))
        ratio = beta / alpha
        gamma = ratio if i % 5 == 1 else 1.0 + rng.uniform(0.0, 1.0) * (min(ratio, 101.0) - 1.0)
        f0 = 0.0 if i % 3 == 0 else 10.0 ** float(rng.choice([rng.uniform(-300.0, 300.0),
                                                              rng.uniform(-2.0, 2.0)]))
        T = 10.0 ** rng.uniform(-300.0, 300.0)
        yield IterationHypothesis(C, alpha, beta), gamma, f0, T


def test_thresholds_keep_the_bits_of_their_hand_written_fallbacks():
    # each value is ==, NaN-free and a float; the cases named in the tests
    # above and the draws reach every case that the fallback rule tells apart
    named = [(IterationHypothesis(C, alpha, beta), gamma, f0, T)
             for C, alpha, beta, gamma, f0, T in [
        (7.53766052568409e-246, 0.7658461568897805, 663.7336321393266, 1.5, 1.0, 1.0),
        (7.53766052568409e-246, 0.7658461568897805, 663.7336321393266, 801.608711020282, 1.0,
         2.540258941056332e+78),
        (1e300, 0.01, 10.0, 2.0, 1e-300, 1.0), (0.01, 0.001, 3.0, 2000.0, 1.0, 1.0),
        (1.0, 0.001, 2.0, 2.0, 10.0, 5e-324)]]
    seen = Counter()
    for h, gamma, f0, T in [*named, *_threshold_draws(6000, 39)]:
        ratio = h.beta / h.alpha
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            ce = _power(h.C * np.e, 1.0 / h.alpha)
            L = np.log1p(1.0 / np.float64(f0))
            front = ce * (2.0 / np.log(2.0)) ** gamma / (gamma - 1.0)
            den = np.float64(gamma - 1.0) * T
            t_nan = f0 > 0 and np.isnan(front * max(L ** (gamma - ratio),
                                                    np.log(2.0) ** gamma / L**ratio))
            l_nan = (np.isnan(ce * (2.0 / np.log(2.0)) ** gamma / den)
                     or np.isnan(ce * 2.0**gamma / den))
        seen["subnormal power"] += 0.0 < ce < np.finfo(float).tiny
        if 1.0 < gamma <= ratio:
            try:
                want = _t_gamma_by_cases(h, f0, gamma)
            except VerificationFailed as exc:
                with pytest.raises(VerificationFailed, match=re.escape(str(exc))):
                    t_gamma(h, f0, gamma)
                continue
            tg = t_gamma(h, f0, gamma)
            assert tuple(tg) == want, (h, gamma, f0)
            assert type(tg.value) is float and isinstance(want[0], float)
            assert not math.isnan(tg.value)
            seen["t finite" if tg.value < np.inf else "t inf"] += 1
            seen["t inf * 0"] += t_nan
            seen["f0 = 0" if gamma < ratio else "f0 = 0, gamma = beta/alpha"] += f0 == 0.0
        if 1.0 < gamma < ratio:
            lg = l_gamma(h, gamma, T)
            assert lg == _l_gamma_by_cases(h, gamma, T), (h, gamma, T)
            assert type(lg) is float and not math.isnan(lg)
            seen["l finite" if lg < np.inf else "l inf"] += 1
            seen["l inf * 0"] += l_nan
    assert min(seen[k] for k in ("subnormal power", "t finite", "t inf", "t inf * 0", "f0 = 0",
                                 "f0 = 0, gamma = beta/alpha", "l finite", "l inf",
                                 "l inf * 0")) > 0, seen


def test_l_gamma_oracle_and_symmetric():
    L = l_gamma(IterationHypothesis(1, 1, 3), 2, 1.0)
    assert abs(L - L_1_1_3_2_T1) <= 1e-12 * L_1_1_3_2_T1
    # at f0 = 1 both max arguments of the threshold agree; for l_gamma pick a
    # T making both arguments equal: arg1 = arg2 iff (2/log2)^g' scaling cancels
    v = l_gamma(IterationHypothesis(1.0, 1.0, 4.0), 2.0, 5.0)
    assert v > 0


def test_l_gamma_guards():
    with pytest.raises(GammaOutOfRange):
        # gamma must stay strictly below beta/alpha
        l_gamma(IterationHypothesis(1, 1, 3), 3.0, 1.0)
    with pytest.raises(ValueError):
        l_gamma(IterationHypothesis(1, 1, 3), 2.0, 0.0)


def test_threshold_duality():
    # if f is positive at t0 + T then T < threshold: contrapositive on the
    # power superlevel data
    f = power_superlevel_fn(2.0, n_nodes=2000)
    alpha, beta, gamma = 1.0, 2.0, 1.5
    C = fit_constant(f, alpha, beta)
    hyp = IterationHypothesis(C, alpha, beta)
    T = t_gamma(hyp, f.f_t0, gamma).value
    positive = f.grid[f.values > 0]
    assert np.all(positive - f.t0 < T)
    # and l_gamma at such a T gives a valid positive lower bound on f(t0)
    T_pos = float(positive[-1] - f.t0)
    L = l_gamma(hyp, gamma, T_pos)
    assert f.f_t0 > 1.0 / (np.exp(L) - 1.0)


def test_threshold_to_lower_bound_consistency():
    # evaluate the dual exponent at a time just below the vanishing threshold:
    # the implied lower bound on f(t0) must be finite, positive, and satisfied
    C, alpha, beta, gamma, f0 = 2.0, 1.0, 3.0, 1.5, 10.0
    hyp = IterationHypothesis(C, alpha, beta)
    T_star = t_gamma(hyp, f0, gamma).value
    L = l_gamma(hyp, gamma, 0.999 * T_star)
    bound = 1.0 / (np.exp(L) - 1.0)
    assert np.isfinite(L) and L > 0
    assert f0 > bound > 0


def test_check_hypothesis_vacuous():
    f = LevelSetFn(np.linspace(0, 1, 50), np.zeros(50))
    rep = check_hypothesis(f, IterationHypothesis(1, 1, 2))
    assert rep.vacuous and rep.satisfied


def test_check_hypothesis_double_exp():
    grid = np.linspace(0.0, 5.0, 1200)
    f = double_exp_level_fn(grid)
    for alpha in (0.5, 1.0, 2.0):
        C = (2 * alpha / np.e) ** alpha
        hyp = IterationHypothesis(C, alpha, alpha)
        rep = check_hypothesis(f, hyp)
        assert rep.satisfied and rep.worst_ratio <= 1.0 + 1e-12


def test_check_hypothesis_flags_violation():
    grid = np.array([0.0, 1.0, 2.0])
    values = np.array([1.0, 1.0, 1.0])  # constant positive: decay fails
    f = LevelSetFn(grid, values)
    rep = check_hypothesis(f, IterationHypothesis(0.01, 1, 2))
    assert not rep.satisfied
    assert rep.worst_pair[1] > rep.worst_pair[0]


def test_simulate_zero_function():
    f = LevelSetFn(np.linspace(0, 2, 64), np.zeros(64))
    rep = simulate_vanishing(f, IterationHypothesis(1, 1, 2), 1.5)
    assert rep.status == "verified" and rep.value_at_node == 0.0


def test_simulate_power_superlevel():
    for k in (1.0, 2.0, 3.0):
        # the default grid ends at 1.5, short of the threshold: one refit
        rep, _, extensions = simulate_power_profile(k, 1.0, 2.0, 1.5, n_nodes=1500)
        assert rep.status == "verified" and rep.value_at_node == 0.0
        assert all(v.passed for v in rep.verdicts) and extensions == 1


def test_simulate_not_applicable_at_equal_exponents():
    grid = np.linspace(0.0, 5.0, 800)
    f = double_exp_level_fn(grid)
    alpha = 1.0
    C = (2 * alpha / np.e) ** alpha
    hyp = IterationHypothesis(C, alpha, alpha)
    rep = simulate_vanishing(f, hyp, 1.5)
    assert rep.status == "not_applicable"
    assert not any(v.passed for v in rep.verdicts)


def test_simulate_rejects_bad_hypothesis():
    f = LevelSetFn(np.array([0.0, 1.0, 2.0]), np.array([1.0, 1.0, 1.0]))
    with pytest.raises(HypothesisFails):
        simulate_vanishing(f, IterationHypothesis(0.01, 1, 2), 1.5)


def test_simulate_grid_too_short():
    f = power_superlevel_fn(2.0, n_nodes=300, t_end=0.5)  # never reaches 0
    C = fit_constant(f, 1.0, 2.0)
    hyp = IterationHypothesis(C, 1.0, 2.0)
    with pytest.raises(GridTooShort):
        simulate_vanishing(f, hyp, 1.5)


def sharpness_grid(t_max=10.0, n=2048):
    dt = t_max / n
    return WeightedMeasure(np.linspace(0.0, t_max, n), np.full(n, dt))


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 4.0])
def test_sharpness_below_bound(alpha):
    verdict = sharpness_sup(alpha, sharpness_grid(n=1024))
    assert verdict.passed and verdict.rhs == (2 * alpha / np.e) ** alpha


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 4.0])
def test_sharpness_near_attains_peak_value(alpha):
    # the pair supremum approaches max of x^alpha e^-x = (alpha/e)^alpha as
    # the lower time grows and the gap shrinks like alpha e^-t
    sup = sharpness_sup(alpha, sharpness_grid(n=2048)).lhs
    peak = (alpha / np.e) ** alpha
    assert sup >= 0.95 * peak


# sharpness_sup(alpha, grid).lhs on the CLI's grid of nodes // 16 panels of
# order 16 on [0, t_max], for alpha = 0.5, 1 and 4; frozen from the scan before
# it was shared with the hypothesis scan, and kept by the blocked scan and the
# monotone scan after it.  On [0, 800], e^t overflows from t = 709.78 on.
SHARPNESS_LHS = {
    (10.0, 16): ("0.4225764862466746", "0.33934436796560985", "1.0752437431980677"),
    (10.0, 256): ("0.445486680232805", "0.3666096671739246", "4.555814508093361"),
    (10.0, 272): ("0.4450555333801265", "0.36158096052027894", "4.630255702570365"),
    (10.0, 528): ("0.445696599505805", "0.3672376945327139", "4.624641483428392"),
    (800.0, 528): ("0.38595285635121584", "0.33845022510481165", "0.6925328160554002"),
}


@pytest.mark.parametrize("t_max, nodes", sorted(SHARPNESS_LHS))
def test_sharpness_sup_keeps_its_bits(t_max, nodes):
    grid = gauss_measure(Interval(0.0, t_max), nodes // 16, 16)
    got = tuple(repr(sharpness_sup(alpha, grid).lhs) for alpha in (0.5, 1.0, 4.0))
    assert got == SHARPNESS_LHS[t_max, nodes]


@pytest.mark.parametrize("nodes", [240, 256, 272])
def test_sharpness_sup_keeps_finite_pairs_past_overflow(nodes):
    # past t = 709.78 both e^s and e^t overflow, and their difference is NaN;
    # such a pair's ratio is 0, and the finite pairs of the grid still count
    grid = gauss_measure(Interval(0.0, 800.0), nodes // 16, 16)
    t = grid.nodes
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        et = np.exp(t)
        cells = (np.log(t[None, :] - t[:, None])
                 + degiorgi._log_log1p_exp_exp(t)[:, None] - (et[None, :] - et[:, None]))
    upper = cells[np.triu_indices(t.size, 1)]
    assert np.isnan(upper).any()
    sup = sharpness_sup(1.0, grid).lhs
    assert sup == np.exp(np.max(upper[~np.isnan(upper)])) > 0.05


@pytest.mark.parametrize("n", [2, 256, 257, 513])
def test_pair_scan_matches_brute_force_with_ties(n):
    # The scan's contract: cells whose leftmost row argmax does not decrease
    # down the rows.  Three such cell sets, all with ties: cells drawn from
    # {0, 1, 2}, each row's peak 3 or 4 at a drawn non-decreasing column and
    # again at drawn columns right of it; cells peaking on the whole diagonal
    # j - i = 37 (or j - i = 1 at n = 2); cells equal to i, peaking on the
    # last row.  The scan must return the first maximum of the upper triangle
    # in row-major order.
    t = np.arange(n, dtype=float)
    rng = np.random.default_rng(n)
    rows = np.arange(n)
    peak = np.maximum.accumulate(rng.integers(np.minimum(rows + 1, n - 1), n))
    top = rng.integers(3, 5, n).astype(float)
    drawn = rng.integers(0, 3, (n, n)).astype(float)
    drawn[rows, peak] = top
    again = (rng.random((n, n)) < 0.3) & (rows[None, :] > peak[:, None])
    drawn[again] = np.broadcast_to(top[:, None], (n, n))[again]
    for cell in (lambda r, c: drawn[r, c],
                 lambda r, c: -np.abs(t[c] - t[r] - min(37.0, n - 1.0)),
                 lambda r, c: t[r] + 0.0 * t[c]):
        full = np.full((n, n), -np.inf)
        full[np.triu_indices(n, 1)] = cell(*np.triu_indices(n, 1))
        first = int(np.argmax(full))
        assert degiorgi._pair_scan(t, cell) == (full.max(), (first // n, first % n))


def _scan_checked_against_brute_force(t, cell, scan=degiorgi._pair_scan):
    """The pair scan, asserting it returns the maximum of every cell i < j,
    NaN counting as -inf, from the same cells, at the first pair in
    row-major order that attains it; where that maximum is inf, at a pair
    whose cell is inf (cells that overflow tie, their exact values need not)."""
    got = scan(t, cell)
    if t.size > 1:
        rows, cols = np.triu_indices(t.size, 1)
        full = cell(rows, cols)
        full[np.isnan(full)] = -np.inf
        k = int(np.argmax(full))
        if full[k] < np.inf:
            assert got == (full[k], (rows[k], cols[k]))
        else:
            assert got[0] == np.inf and cell(*(np.array([k]) for k in got[1]))[0] == np.inf
    return got


_LEVELS = st.one_of(st.floats(1e-200, 1e5), st.floats(1e295, 1e305),
                    st.sampled_from([0.0, 1e-300]))


@st.composite
def plateau_level_fns(draw):
    # integer grids whose values repeat in plateaus, or e^(-e^t) on them;
    # then kept, scaled by 10^k, or spread over [-1.7e308, 1.7e308] so that
    # gaps overflow: where the product form overflows, cells are redone in
    # log space, beside product-form cells of the same rows
    steps = draw(st.lists(st.integers(1, 3), min_size=1, max_size=150))
    grid = draw(st.integers(-5, 5)) + np.concatenate([[0], np.cumsum(steps)]).astype(float)
    if draw(st.booleans()):
        levels = draw(st.lists(_LEVELS, min_size=1, max_size=6))
        values = np.sort(draw(st.lists(st.sampled_from(levels), min_size=grid.size,
                                       max_size=grid.size)))[::-1]
    else:
        values = np.exp(-np.exp(grid / draw(st.sampled_from([1.0, 4.0, 16.0]))))
    scale = draw(st.one_of(st.just(1.0), st.integers(1, 100).map(lambda k: 10.0**k), st.none()))
    if scale is None:
        grid = grid - (grid[0] + grid[-1]) / 2
        grid, scale = grid / grid[-1], 1.7e308
    return LevelSetFn(grid * scale, values)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(plateau_level_fns(), st.floats(0.01, 5.0), st.floats(0.01, 5.0),
       st.floats(1.0, 800.0), st.integers(1, 40))
def test_both_callers_scans_match_brute_force(f, alpha, beta, t_max, panels):
    # the hypothesis cells and the sharpness cells (NaN past t = 709.78), each
    # against all of its own pairs, ties and all
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(degiorgi, "_pair_scan", _scan_checked_against_brute_force)
        check_hypothesis(f, IterationHypothesis(1.0, alpha, beta))
        sharpness_sup(alpha, gauss_measure(Interval(0.0, t_max), panels, 16))


@pytest.mark.filterwarnings("error")
def test_scan_over_log_form_and_product_form_cells_matches_brute_force():
    # 300-1,200 nodes with values log-uniform over 1e-300..1e305 and grids
    # spanning 10^(250/alpha)..10^(330/alpha), or at every fourth seed
    # [-1.7e308, 1.7e308], where gaps overflow too: rows hold log-form cells
    # beside product-form cells, and each scan must match all of its pairs
    mixed = 0
    for seed in range(12):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(300, 1200))
        alpha, beta = rng.uniform(0.5, 5.0, 2)
        span = 10.0 ** (rng.uniform(250, 330) / alpha)
        if seed % 4 == 3:
            alpha, span = alpha / 5, 1.7e308
        grid = np.cumsum(rng.uniform(0.5, 1.5, n))
        grid = ((grid - grid[0]) / (grid[-1] - grid[0]) * 2 - 1) * span
        f = LevelSetFn(grid, np.sort(10.0 ** rng.uniform(-300, 305, n))[::-1])
        rows, cols = np.triu_indices(n, 1)
        with np.errstate(over="ignore", invalid="ignore"):
            product = (f.values[cols] * (f.grid[cols] - f.grid[rows])**alpha
                       * np.log1p(1.0 / f.values[rows])**beta / f.values[rows])
        redone = ~np.isfinite(product)
        mixed += np.intersect1d(rows[redone], rows[~redone]).size > 0
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(degiorgi, "_pair_scan", _scan_checked_against_brute_force)
            check_hypothesis(f, IterationHypothesis(1.0, alpha, beta))
    assert mixed >= 10


@pytest.mark.filterwarnings("error")
def test_check_hypothesis_on_a_drop_to_1e_300_warns_nothing():
    # the cells with j < i overflowed in a divide once; no scanned cell has j <= i
    f = LevelSetFn([0, 1, 2, 3], [3, 3, 1e-300, 1e-300])
    rep = check_hypothesis(f, IterationHypothesis(1, 1, 3.76))
    assert rep.worst_pair == (2.0, 3.0) and not rep.satisfied
    assert rep.worst_ratio == pytest.approx(np.log1p(1e300) ** 3.76, rel=1e-15)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("grid, values, worst", [
    # 1e300 (1e10)^2 overflows and the weight log^3(1 + 1e-300) underflows: inf * 0
    ([0, 1e10], [1e300, 1e300], 0.0),
    # (1e200)^2 overflows, and so does the true ratio
    ([0, 1e200], [1, 1], np.inf),
    # 1e-300 (1e300)^2 overflows, but the true ratio is 1e204, though
    # v_j / v_i = 1e-324 is below the smallest float
    ([0, 1e300], [1e24, 1e-300], 1e204),
    # and here the gap t_j - t_i = 2e308 overflows as well: 4e220
    ([-1e308, 1e308], [1e24, 1e-300], 4e220),
])
def test_check_hypothesis_redoes_overflowed_cells_in_log_space(grid, values, worst):
    rep = check_hypothesis(LevelSetFn(grid, values), IterationHypothesis(1, 2, 3))
    assert rep.worst_ratio == pytest.approx(worst, rel=1e-12, abs=0.0)
    assert rep.satisfied == (worst == 0.0)


def _square(interval) -> SmoothFn:
    return SmoothFn(Interval(*interval), lambda t: (t * t, 2 * t, 2 + 0 * t))


# A point outside a function's domain raises OutOfDomain, not InvalidInput:
# the reference potential on [0, 1e6] and the quadruple-log family on [0, 1/4].
_OUTSIDE = {f"hessian-spectrum{label}-{name}":
            lambda fn=fn, t=t: hessian_spectrum(RadialProfile(2, fn), t)
            for label, fn in (("", fs_potential()), ("-feps", feps_smoothfn(2.0**-8)))
            for name, t in (("nan", [0.1, np.nan]), ("inf", np.inf), ("outside", [0.1, 2e6]),
                            ("negative", -1e-9))}


@pytest.mark.parametrize("build", [
    pytest.param(lambda: IterationHypothesis(np.inf, 1.0, 2.0), id="C-inf"),
    pytest.param(lambda: IterationHypothesis(np.nan, 1.0, 2.0), id="C-nan"),
    pytest.param(lambda: IterationHypothesis(1.0, 1.0, np.inf), id="beta-inf"),
    pytest.param(lambda: t_gamma(IterationHypothesis(1.0, 1.0, 2.0), np.inf, 1.5), id="f_t0-inf"),
    pytest.param(lambda: t_gamma(IterationHypothesis(1.0, 1.0, 2.0), np.nan, 1.5), id="f_t0-nan"),
    pytest.param(lambda: power_superlevel_fn(np.nan), id="k-nan"),
    pytest.param(lambda: power_superlevel_fn(np.inf), id="k-inf"),
    pytest.param(lambda: power_superlevel_fn(2.0, amplitude=np.nan), id="amplitude-nan"),
    pytest.param(lambda: LevelSetFn([0.0, 1.0], [np.nan, 0.0]), id="level-nan-first"),
    pytest.param(lambda: LevelSetFn([0.0, 1.0], [1.0, np.nan]), id="level-nan-last"),
    pytest.param(lambda: LevelSetFn([0.0, 1.0], [np.inf, 1.0]), id="level-inf"),
    pytest.param(lambda: LevelSetFn([0.0, np.inf], [1.0, 0.0]), id="level-grid-inf"),
    pytest.param(lambda: norm_bound_from_integral(1.0, np.nan, YoungParams(2.0)), id="M-nan"),
    pytest.param(lambda: norm_bound_from_integral(np.inf, 1.0, YoungParams(2.0)), id="c-inf"),
    pytest.param(lambda: EntropyParams(2, r=np.nan), id="r-nan"),
    pytest.param(lambda: EntropyParams(2, r=np.inf), id="r-inf"),
    pytest.param(lambda: EntropyParams(np.nan), id="n-nan"),
    pytest.param(lambda: young_pair_check(1.0, np.nan, YoungParams(2.0, 1.0)), id="young-b-nan"),
    pytest.param(lambda: young_pair_check(1.0, np.inf, YoungParams(2.0, 1.0)), id="young-b-inf"),
    pytest.param(lambda: young_pair_check(np.nan, 1.0, YoungParams(2.0, 1.0)), id="young-a-nan"),
    pytest.param(lambda: l_gamma(IterationHypothesis(np.inf, 1.0, 3.0), 2.0, 1.0),
                 id="l_gamma-C-inf"),
    pytest.param(lambda: l_gamma(IterationHypothesis(1.0, 1.0, 3.0), 2.0, np.inf),
                 id="l_gamma-T-inf"),
    pytest.param(lambda: l_gamma(IterationHypothesis(1.0, np.nan, 3.0), 2.0, 1.0),
                 id="l_gamma-alpha-nan"),
    pytest.param(lambda: induction_inequality_gap(1.0, np.inf, 2.0), id="induction-b-inf"),
    pytest.param(lambda: induction_inequality_gap(1.0, 2.0, np.nan), id="induction-mu-nan"),
    pytest.param(lambda: sharpness_sup(np.nan, sharpness_grid(n=16)), id="sharpness-nan"),
    pytest.param(lambda: sharpness_sup(np.inf, sharpness_grid(n=16)), id="sharpness-inf"),
    pytest.param(lambda: feps_smoothfn(np.nan), id="feps-eps-nan"),
    pytest.param(lambda: feps_smoothfn(np.inf), id="feps-eps-inf"),
    pytest.param(lambda: feps_smoothfn(0.0), id="feps-eps-zero"),
    pytest.param(lambda: feps_smoothfn(-1.0), id="feps-eps-negative"),
    pytest.param(lambda: feps_smoothfn(1e-3, lo=-1e-4), id="feps-lo-negative"),
    *(pytest.param(lambda n=n: CounterexampleParams(2.0**-10, n), id=f"counterexample-n-{n}")
      for n in (np.nan, 2.5, np.inf)),
    *(pytest.param(lambda n=n: RadialProfile(n, fs_potential()), id=f"profile-n-{n}")
      for n in (np.nan, 2.5, np.inf)),
    *(pytest.param(lambda n=n: GlueProblem(_square((0.5, 1.0)), _square((3.0, 4.0)), "radial",
                                           n=n), id=f"glue-n-{n}")
      for n in (np.nan, 2.5, np.inf)),
    *(pytest.param(lambda k=k: gauss_measure(Interval(0.0, 1.0), k, 8), id=f"panels-{k}")
      for k in (np.nan, 2.5, np.inf)),
    *(pytest.param(lambda k=k: geometric_gauss_measure(Interval(0.0, 1.0), k),
                   id=f"geometric-panels-{k}") for k in (np.nan, 2.5, np.inf, 1024)),
    pytest.param(lambda: gauss_measure(Interval(0.0, 1.0), 2, 2.5), id="order-2.5"),
    pytest.param(lambda: WeightedMeasure([0.0, 1.0, np.inf], [1.0, 1.0, 1.0]), id="node-inf"),
    pytest.param(lambda: WeightedMeasure([-np.inf, 0.0, 1.0], [1.0, 1.0, 1.0]), id="node-neginf"),
    pytest.param(lambda: WeightedMeasure([0.0, 1.0], [1.0, np.inf]), id="weights-inf"),
    *(pytest.param(lambda s=s: rng_from_seed(s), id=f"seed-{s}") for s in (np.nan, 2.5, -1)),
    *(pytest.param(build, id=name) for name, build in _OUTSIDE.items()),
])
def test_domain_guards_reject_nan_and_inf(build):
    with pytest.raises(OutOfDomain if build in _OUTSIDE.values() else InvalidInput):
        build()


@settings(max_examples=80, deadline=None)
@given(st.floats(1e-3, 1e3), st.floats(1e-3, 1e3), st.floats(1.0, 8.0))
def test_induction_inequality(a, b, mu):
    lo, hi = min(a, b), max(a, b)
    gap = induction_inequality_gap(lo, hi, mu)
    assert gap >= -1e-9 * max(1.0, abs(lo ** (1 - mu)), abs(hi ** (1 - mu)))


def test_level_set_underflow_floor():
    f = LevelSetFn(np.array([0.0, 1.0]), np.array([1e-310, 0.0]))
    assert f.values[0] == 0.0


def test_level_set_arrays_are_private_and_read_only():
    grid = np.linspace(0.0, 1.0, 8)
    values = np.linspace(1.0, 0.0, 8)
    f = LevelSetFn(grid, values)
    with pytest.raises(ValueError):
        f.values[0] = 2.0
    with pytest.raises(ValueError):
        f.grid[0] = -1.0
    grid[0] = -1.0  # the caller's arrays stay writable and detached from f
    values[-1] = 0.5
    assert f.grid[0] == 0.0 and f.values[-1] == 0.0


def _reference_scan(f, h):
    """Every pair i < j of the grid, with the ratio written as its definition
    (C included) and ties going to the first pair in row-major order.  Each
    row is one numpy array because numpy's vectorised pow can differ in the
    last bit from its scalar pow."""
    t, v = f.grid, f.values
    worst, pair, checked = -np.inf, (f.t0, f.t0), 0
    for i in range(t.size - 1):
        if v[i] == 0:
            continue
        weight = np.log1p(1.0 / v[i:i + 1]) ** h.beta
        row = v[i + 1:] * (t[i + 1:] - t[i]) ** h.alpha * weight / (h.C * v[i])
        j = int(np.argmax(row))
        if row[j] > worst:
            worst, pair = float(row[j]), (float(t[i]), float(t[i + 1 + j]))
        checked += t.size - 1 - i
    return worst, pair, checked


def _assert_matches_reference(f, alpha, beta, C):
    h = IterationHypothesis(C, alpha, beta)
    rep = check_hypothesis(f, h)
    worst, pair, checked = _reference_scan(f, h)
    assert rep.pairs_checked == checked
    assert rep.vacuous == (checked == 0)
    assert rep.worst_pair == pair
    if rep.vacuous:
        return
    if C == 1.0:
        assert rep.worst_ratio == worst
    else:
        assert abs(rep.worst_ratio - worst) <= 1e-15 * worst
    assert rep.satisfied == (rep.worst_ratio <= 1.0 + 1e-12)


@st.composite
def level_set_fns(draw):
    n = draw(st.integers(2, 40))
    steps = draw(st.lists(st.floats(1e-3, 10.0), min_size=n - 1, max_size=n - 1))
    grid = draw(st.floats(-5.0, 5.0)) + np.concatenate([[0.0], np.cumsum(steps)])
    levels = draw(st.lists(st.floats(1e-6, 1e3), min_size=n, max_size=n))
    values = np.sort(levels)[::-1]
    shape = draw(st.sampled_from(["zero_tail", "single", "constant", "zeros"]))
    positive = {"zero_tail": draw(st.integers(1, n)), "single": 1,
                "constant": n, "zeros": 0}[shape]
    if shape == "constant":
        values[:] = values[0]
    values[positive:] = 0.0
    return LevelSetFn(grid, values)


exponents = st.floats(0.2, 4.0)


@settings(max_examples=100, deadline=None)
@given(level_set_fns(), exponents, exponents, st.floats(1e-3, 1e3))
def test_check_hypothesis_matches_brute_force(f, alpha, beta, C):
    for c in (1.0, C):
        _assert_matches_reference(f, alpha, beta, c)


@settings(max_examples=4, deadline=None)
@given(st.integers(4097, 5000), st.floats(0.5, 4.0), st.floats(1.1, 5.0),
       exponents, exponents, st.floats(1e-3, 1e3))
def test_check_hypothesis_matches_brute_force_above_4096_nodes(n, k, t_end, alpha, beta, C):
    f = power_superlevel_fn(k, n_nodes=n, t_end=t_end)
    for c in (1.0, C):
        _assert_matches_reference(f, alpha, beta, c)


@pytest.mark.parametrize("k, alpha, beta", [(2.0, 1.3, 3.0), (0.7, 1.0, 2.5), (3.5, 1.8, 4.0)])
def test_fitted_constant_never_drops_when_nodes_are_added(k, alpha, beta):
    # each grid's nodes are every other node of the next, bit for bit, so the
    # next grid's pairs include this grid's pairs, and C is a maximum over them
    fs = [power_superlevel_fn(k, n_nodes=n, t_end=3.0) for n in (2049, 4097, 8193, 16385)]
    for coarse, fine in zip(fs, fs[1:]):
        assert np.array_equal(fine.grid[::2].view(np.int64), coarse.grid.view(np.int64))
        assert np.array_equal(fine.values[::2].view(np.int64), coarse.values.view(np.int64))
    Cs = [fit_constant(f, alpha, beta) for f in fs]
    assert Cs == sorted(Cs), Cs


def test_fit_then_simulate_scans_once(monkeypatch):
    calls = []
    scan = degiorgi._pair_max

    def counted(*args):
        calls.append(args[1:])
        return scan(*args)

    monkeypatch.setattr(degiorgi, "_pair_max", counted)
    f = power_superlevel_fn(2.0, n_nodes=600, t_end=20.0)
    C = fit_constant(f, 1.0, 2.0)
    hyp = IterationHypothesis(C, 1.0, 2.0)
    rep = simulate_vanishing(f, hyp, 1.5)
    assert rep.status == "verified"
    assert calls == [(1.0, 2.0)]
    assert rep.pairs_checked == check_hypothesis(f, hyp).pairs_checked > 0
