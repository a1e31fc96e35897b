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
    simulate_vanishing,
    t_gamma,
)
from luxglue.errors import (
    BetaNotGreaterThanAlpha,
    GammaOutOfRange,
    GridTooShort,
    HypothesisFails,
)
from luxglue.numgrid import WeightedMeasure

# 50-digit evaluations of the threshold formulas, frozen.
T_1_1_2_2_F1 = 22.630989917543453427205206889       # C=1 a=1 b=2 g=2 f0=1
T_2_1_3_15_F10 = 35520.706904534328430524459353     # C=2 a=1 b=3 g=1.5 f0=10
L_1_1_3_2_T1 = 22.630989917543453427205206889       # C=1 a=1 b=3 g=2 T=1


def test_t_gamma_branch_crossing_value():
    # f0 = 1 sits on the branch boundary; both branches coincide there
    tg = t_gamma(IterationHypothesis(1, 1, 2, 0, 1.0), 2.0)
    assert abs(tg.value - T_1_1_2_2_F1) <= 1e-12 * T_1_1_2_2_F1
    assert not tg.at_zero_level


def test_t_gamma_oracle_upper_branch():
    tg = t_gamma(IterationHypothesis(2, 1, 3, 0, 10.0), 1.5)
    assert abs(tg.value - T_2_1_3_15_F10) <= 1e-12 * T_2_1_3_15_F10


def test_t_gamma_zero_level_limit():
    tg = t_gamma(IterationHypothesis(1, 1, 2, 0, 0.0), 1.5)
    assert tg.value == 0.0 and tg.at_zero_level
    # at gamma = beta/alpha the limit is the finite front factor
    tg2 = t_gamma(IterationHypothesis(1, 1, 2, 0, 0.0), 2.0)
    assert tg2.at_zero_level and tg2.value > 0


def test_t_gamma_vanishing_level_monotone():
    vals = [t_gamma(IterationHypothesis(1, 1, 2, 0, f0), 1.5).value
            for f0 in (1e-6, 1e-4, 1e-2)]
    assert vals[0] < vals[1] < vals[2]


def test_t_gamma_guards():
    with pytest.raises(BetaNotGreaterThanAlpha):
        t_gamma(IterationHypothesis(1, 1, 1, 0, 1.0), 1.0)
    with pytest.raises(GammaOutOfRange):
        t_gamma(IterationHypothesis(1, 1, 2, 0, 1.0), 2.5)
    with pytest.raises(GammaOutOfRange):
        t_gamma(IterationHypothesis(1, 1, 2, 0, 1.0), 1.0)


def test_t_gamma_monotonicities():
    # increasing in f0 (the log(1 + 1/f0) denominator shrinks: a larger
    # starting level takes longer to die out) and increasing in C
    f0s = np.geomspace(1.5, 100.0, 12)
    vals = [t_gamma(IterationHypothesis(1, 1, 3, 0, f0), 1.5).value for f0 in f0s]
    assert np.all(np.diff(vals) > 0)
    Cs = np.geomspace(0.1, 10.0, 12)
    vals = [t_gamma(IterationHypothesis(C, 1, 3, 0, 2.0), 1.5).value for C in Cs]
    assert np.all(np.diff(vals) > 0)


def test_l_gamma_oracle_and_symmetric():
    assert abs(l_gamma(1, 1, 3, 2, 1.0) - L_1_1_3_2_T1) <= 1e-12 * L_1_1_3_2_T1
    # at f0 = 1 both max arguments of the threshold agree; for l_gamma pick a
    # T making both arguments equal: arg1 = arg2 iff (2/log2)^g' scaling cancels
    v = l_gamma(1.0, 1.0, 4.0, 2.0, 5.0)
    assert v > 0


def test_l_gamma_guards():
    with pytest.raises(GammaOutOfRange):
        l_gamma(1, 1, 3, 3.0, 1.0)  # gamma must stay strictly below beta/alpha
    with pytest.raises(ValueError):
        l_gamma(1, 1, 3, 2.0, 0.0)


def test_threshold_duality():
    # if f is positive at t0 + T then T < threshold: contrapositive on the
    # power superlevel data
    f = power_superlevel_fn(2.0, n_nodes=2000)
    alpha, beta, gamma = 1.0, 2.0, 1.5
    C = fit_constant(f, alpha, beta)
    hyp = IterationHypothesis(C, alpha, beta, f.t0, f.f_t0)
    T = t_gamma(hyp, gamma).value
    positive = f.grid[f.values > 0]
    assert np.all(positive - f.t0 < T)
    # and l_gamma at such a T gives a valid positive lower bound on f(t0)
    T_pos = float(positive[-1] - f.t0)
    L = l_gamma(C, alpha, beta, gamma, T_pos)
    assert f.f_t0 > 1.0 / (np.exp(L) - 1.0)


def test_threshold_to_lower_bound_consistency():
    # evaluate the dual exponent at a time just below the vanishing threshold:
    # the implied lower bound on f(t0) must be finite, positive, and satisfied
    C, alpha, beta, gamma, f0 = 2.0, 1.0, 3.0, 1.5, 10.0
    T_star = t_gamma(IterationHypothesis(C, alpha, beta, 0.0, f0), gamma).value
    L = l_gamma(C, alpha, beta, gamma, 0.999 * T_star)
    bound = 1.0 / (np.exp(L) - 1.0)
    assert np.isfinite(L) and L > 0
    assert f0 > bound > 0


def test_check_hypothesis_vacuous():
    f = LevelSetFn(np.linspace(0, 1, 50), np.zeros(50))
    rep = check_hypothesis(f, IterationHypothesis(1, 1, 2, 0, 0))
    assert rep.vacuous and rep.satisfied


def test_check_hypothesis_double_exp():
    grid = np.linspace(0.0, 5.0, 1200)
    f = double_exp_level_fn(grid)
    for alpha in (0.5, 1.0, 2.0):
        C = (2 * alpha / np.e) ** alpha
        hyp = IterationHypothesis(C, alpha, alpha, 0.0, f.f_t0)
        rep = check_hypothesis(f, hyp)
        assert rep.satisfied and rep.worst_ratio <= 1.0 + 1e-12


def test_check_hypothesis_flags_violation():
    grid = np.array([0.0, 1.0, 2.0])
    values = np.array([1.0, 1.0, 1.0])  # constant positive: decay fails
    f = LevelSetFn(grid, values)
    rep = check_hypothesis(f, IterationHypothesis(0.01, 1, 2, 0, 1.0))
    assert not rep.satisfied
    assert rep.worst_pair[1] > rep.worst_pair[0]


def test_simulate_zero_function():
    f = LevelSetFn(np.linspace(0, 2, 64), np.zeros(64))
    rep = simulate_vanishing(f, IterationHypothesis(1, 1, 2, 0, 0), 1.5)
    assert rep.status == "verified" and rep.value_at_node == 0.0


def test_simulate_power_superlevel():
    for k in (1.0, 2.0, 3.0):
        f = power_superlevel_fn(k, n_nodes=1500)
        alpha, beta = 1.0, 2.0
        C = fit_constant(f, alpha, beta)
        hyp = IterationHypothesis(C, alpha, beta, f.t0, f.f_t0)
        T = t_gamma(hyp, 1.5).value
        if f.grid[-1] < f.t0 + T:
            f = power_superlevel_fn(k, n_nodes=1500, t_end=(f.t0 + T) * 1.05)
            C = fit_constant(f, alpha, beta)
            hyp = IterationHypothesis(C, alpha, beta, f.t0, f.f_t0)
        rep = simulate_vanishing(f, hyp, 1.5)
        assert rep.status == "verified"
        assert rep.value_at_node == 0.0
        assert rep.chain_ok


def test_simulate_not_applicable_at_equal_exponents():
    grid = np.linspace(0.0, 5.0, 800)
    f = double_exp_level_fn(grid)
    alpha = 1.0
    C = (2 * alpha / np.e) ** alpha
    hyp = IterationHypothesis(C, alpha, alpha, 0.0, f.f_t0)
    rep = simulate_vanishing(f, hyp, 1.5)
    assert rep.status == "not_applicable"


def test_simulate_rejects_bad_hypothesis():
    f = LevelSetFn(np.array([0.0, 1.0, 2.0]), np.array([1.0, 1.0, 1.0]))
    with pytest.raises(HypothesisFails):
        simulate_vanishing(f, IterationHypothesis(0.01, 1, 2, 0, 1.0), 1.5)


def test_simulate_grid_too_short():
    f = power_superlevel_fn(2.0, n_nodes=300, t_end=0.5)  # never reaches 0
    C = fit_constant(f, 1.0, 2.0)
    hyp = IterationHypothesis(C, 1.0, 2.0, f.t0, f.f_t0)
    with pytest.raises(GridTooShort):
        simulate_vanishing(f, hyp, 1.5)


def sharpness_grid(t_max=10.0, n=2048):
    dt = t_max / n
    return WeightedMeasure(np.linspace(0.0, t_max, n), np.full(n, dt))


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 4.0])
def test_sharpness_below_bound(alpha):
    sup = sharpness_sup(alpha, sharpness_grid(n=1024))
    assert sup <= (2 * alpha / np.e) ** alpha * (1 + 1e-8)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 4.0])
def test_sharpness_near_attains_peak_value(alpha):
    # the pair supremum approaches max of x^alpha e^-x = (alpha/e)^alpha as
    # the lower time grows and the gap shrinks like alpha e^-t
    sup = sharpness_sup(alpha, sharpness_grid(n=2048))
    peak = (alpha / np.e) ** alpha
    assert sup >= 0.95 * peak


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
    """Every pair i < j of the evenly subsampled grid, with the ratio written
    as its definition (C included) and ties going to the first pair in
    row-major order.  Each row is one numpy array because numpy's vectorised
    pow can differ in the last bit from its scalar pow."""
    n = f.grid.size
    idx = np.arange(n) if n <= 4096 else np.unique(np.linspace(0, n - 1, 4096).astype(int))
    t, v = f.grid[idx], f.values[idx]
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
def test_check_hypothesis_matches_brute_force_subsampled(n, k, t_end, alpha, beta, C):
    f = power_superlevel_fn(k, n_nodes=n, t_end=t_end)
    for c in (1.0, C):
        _assert_matches_reference(f, alpha, beta, c)


def test_fit_then_simulate_scans_once(monkeypatch):
    calls = []
    scan = degiorgi._pair_max

    def counted(*args):
        calls.append(args[1:])
        return scan(*args)

    monkeypatch.setattr(degiorgi, "_pair_max", counted)
    f = power_superlevel_fn(2.0, n_nodes=600, t_end=20.0)
    C = fit_constant(f, 1.0, 2.0)
    hyp = IterationHypothesis(C, 1.0, 2.0, f.t0, f.f_t0)
    rep = simulate_vanishing(f, hyp, 1.5)
    assert rep.status == "verified"
    assert calls == [(1.0, 2.0)]
    assert rep.pairs_checked == check_hypothesis(f, hyp).pairs_checked > 0
