import contextlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from luxglue import orlicz
from luxglue.errors import (DegenerateParams, InvalidInput, NegativeDensity, NonFinite,
                            VerificationFailed, ZeroMass)
from luxglue.numgrid import GridFn, WeightedMeasure, integrate, pairwise_sums
from luxglue.orlicz import (
    EntropyParams,
    entropies,
    entropy_domination_factor,
    holder_young_bounds,
    holder_young_constant,
    integral_bound_from_norm,
    luxemburg_norm,
    luxemburg_norms,
    norm_bound_from_integral,
    sweep_verdict,
    young_pair_check,
)
from luxglue.radialpsh import chart_density
from luxglue.sampling import random_measure, random_step_fn, random_young_params, rng_from_seed
from luxglue.youngfn import YoungParams, phi

# Root of (1/c) log(1 + 1/c) = 1: the norm of the unit density on a unit-mass
# measure at weight (1, 1, 0).  Frozen from a 50-digit bisection.
UNIT_DENSITY_NORM_110 = 0.80646599423632680877


def unit_mass_measure():
    return WeightedMeasure(np.array([0.3, 0.7]), np.array([0.4, 0.6]))


def test_zero_function():
    f = GridFn(unit_mass_measure(), np.zeros(2))
    res = luxemburg_norm(f, YoungParams(1, 1, 0))
    assert res.norm == 0.0 and res.objective_at_norm == 0.0


def test_plain_p_norm_equivalence():
    rng = rng_from_seed(7)
    drawn = [(random_step_fn(rng), float(rng.uniform(1.0, 3.0))) for _ in range(40)]
    results = luxemburg_norms([f for f, _ in drawn], [YoungParams(p) for _, p in drawn])
    for (f, p), res in zip(drawn, results):
        direct = integrate(GridFn(f.measure, np.abs(f.values) ** p)) ** (1 / p)
        if direct == 0:
            assert res.norm == 0
        else:
            assert abs(res.norm - direct) <= 1e-8 * direct


def test_unit_density_oracle():
    f = GridFn(unit_mass_measure(), np.ones(2))
    res = luxemburg_norm(f, YoungParams(1, 1, 0))
    assert abs(res.norm - UNIT_DENSITY_NORM_110) <= 1e-8


def test_single_nonzero_node():
    m = WeightedMeasure(np.array([0.0, 1.0, 2.0]), np.array([0.2, 0.5, 0.3]))
    f = GridFn(m, np.array([0.0, 3.0, 0.0]))
    res = luxemburg_norm(f, YoungParams(1, 1, 0))
    assert res.norm > 0 and res.objective_at_norm <= 1 + 1e-8


def test_normalization_identity():
    rng = rng_from_seed(11)
    drawn = []
    for _ in range(25):
        f = random_step_fn(rng)
        if np.all(f.values == 0):
            continue
        drawn.append((f, random_young_params(rng)))
    for res in luxemburg_norms(*zip(*drawn)):
        assert res.objective_at_norm <= 1.0 + 1e-8


@settings(max_examples=30, deadline=None)
@given(st.floats(0.01, 100.0))
def test_homogeneity(lam):
    rng = rng_from_seed(5)
    f = random_step_fn(rng)
    params = YoungParams(1, 2, 1)
    n0 = luxemburg_norm(f, params).norm
    n1 = luxemburg_norm(GridFn(f.measure, lam * f.values), params).norm
    assert abs(n1 - lam * n0) <= 1e-8 * max(1.0, lam * n0)


def test_triangle_inequality():
    rng = rng_from_seed(13)
    params = YoungParams(1, 1, 0)
    fs = []
    for _ in range(25):
        m = random_measure(rng)
        f = random_step_fn(rng, m)
        g = random_step_fn(rng, m)
        fs += [GridFn(m, f.values + g.values), f, g]
    norms = [res.norm for res in luxemburg_norms(fs, [params] * len(fs))]
    for ns, nf, ng in zip(norms[::3], norms[1::3], norms[2::3]):
        assert ns <= nf + ng + 1e-8


def test_entropy_zero_and_scalar():
    m = unit_mass_measure()
    assert entropies([GridFn(m, np.zeros(2))], [EntropyParams(1, 0.0)]) == [0.0]
    (val,) = entropies([GridFn(m, np.ones(2))], [EntropyParams(1, 0.0)])
    assert abs(val - UNIT_DENSITY_NORM_110) <= 1e-8


def test_entropy_rejects_negative():
    for bad in (-1.0, np.nan):  # a NaN density value is not >= 0 either
        with pytest.raises(NegativeDensity):
            entropies([GridFn(unit_mass_measure(), np.array([1.0, bad]))], [EntropyParams(1)])


def test_entropy_integral_upper_bound():
    rng = rng_from_seed(17)
    ep = EntropyParams(2, 1.0)
    fs = [random_step_fn(rng) for _ in range(100)]
    for f, ent in zip(fs, entropies(fs, [ep] * len(fs))):
        raw = integrate(GridFn(f.measure, phi(ep.young, f.values)))
        assert ent <= max(1.0, raw) * (1 + 1e-8)


def test_norm_bound_from_integral_values():
    assert norm_bound_from_integral(1.0, 1.0, YoungParams(2)) == 1.0
    assert norm_bound_from_integral(2.0, 8.0, YoungParams(3)) == 4.0


def test_norm_bound_wiring():
    rng = rng_from_seed(19)
    drawn = []
    for _ in range(50):
        f = random_step_fn(rng)
        if np.all(f.values == 0):
            continue
        params = random_young_params(rng)
        c = float(rng.uniform(0.5, 5.0))
        M = integrate(GridFn(f.measure, phi(params, np.abs(f.values) / c)))
        if M <= 0:
            continue
        drawn.append((f, params, norm_bound_from_integral(c, M, params)))
    results = luxemburg_norms([f for f, _, _ in drawn], [p for _, p, _ in drawn])
    for (_, _, bound), res in zip(drawn, results):
        assert res.norm <= bound * (1 + 1e-8)


def test_integral_bound_zero_and_l1():
    m = unit_mass_measure()
    zero = integral_bound_from_norm(GridFn(m, np.zeros(2)), YoungParams(1), 0.0)
    assert zero.passed and zero.lhs == 0.0 and zero.rhs == 0.0
    f = GridFn(m, np.array([2.0, 3.0]))
    l1 = integral_bound_from_norm(f, YoungParams(1), luxemburg_norm(f, YoungParams(1)).norm)
    assert abs(l1.lhs - l1.rhs) <= 1e-8 * l1.rhs  # L^1: both sides are the L^1 norm


def test_integral_bound_random_sweep():
    rng = rng_from_seed(23)
    params = YoungParams(1, 2, 1)
    fs = [random_step_fn(rng) for _ in range(100)]
    for f, res in zip(fs, luxemburg_norms(fs, [params] * len(fs))):
        assert res.verdict.passed and integral_bound_from_norm(f, params, res.norm).passed


def test_holder_young_constant():
    assert holder_young_constant(YoungParams(1)) == 1.0
    assert holder_young_constant(YoungParams(1, 1, 0)) == 1.5
    p = YoungParams(2, 1, 1)
    assert abs(holder_young_constant(p) - (2 + 0.5 + 0.25) ** 1.0) < 1e-15


def test_holder_young_l1_case():
    f = GridFn(unit_mass_measure(), np.array([1.0, 4.0]))
    (bound,) = holder_young_bounds([f], [YoungParams(1)])  # C = 1
    norm = luxemburg_norm(f, YoungParams(1)).norm
    assert abs(bound.rhs - 2 * norm) <= 1e-8 * bound.rhs
    assert bound.passed and bound.lhs <= bound.rhs


def test_holder_young_indicator():
    # indicator of a set of mass 0.01 inside a mass-1 space, params (1,1,0)
    m = WeightedMeasure(np.array([0.0, 1.0]), np.array([0.01, 0.99]))
    f = GridFn(m, np.array([1.0, 0.0]))
    (bound,) = holder_young_bounds([f], [YoungParams(1, 1, 0)])  # C = 1.5
    assert bound.lhs == pytest.approx(0.01)
    assert bound.passed


def test_holder_young_zero_mass_guard():
    with pytest.raises(ZeroMass):
        # masquerade a zero-mass measure through direct field poking is not
        # possible (validated), so exercise the CLI-level guard value instead
        from luxglue.cli import cmd_holder_young
        import argparse

        ns = argparse.Namespace(sweep=0, young="1,1,0", indicator_mass=0.0,
                                space_mass=0.0, seed=0)
        cmd_holder_young(ns)


def test_young_pair_trivial_and_unit():
    params = YoungParams(1, 1, 0)
    assert young_pair_check(0.0, 5.0, params)
    assert young_pair_check(5.0, 0.0, params)
    assert young_pair_check(1.0, 1.0, params)


def test_young_pair_grid():
    params = YoungParams(2, 1, 1)
    vals = [0.05, 0.3, 1.0, 3.0, 10.0]
    assert all(young_pair_check(a, b, params) for a in vals for b in vals)


@pytest.mark.parametrize("p, b", [(1.01, 100.0), (1.01, 0.5), (1.5, 100.0), (3.0, 1e-3),
                                  (1.001, 1.1)])
def test_young_pair_inverse_matches_closed_form(monkeypatch, p, b):
    # at q = r = 0, Psi(t) = t^((p-1)/p) and C = 1, so PsiInv(b) = b^(p/(p-1))
    # (1e202 at (1.01, 100)).  With phi read as 0 the check is
    # a*b <= PsiInv(b) (1 + slack), so it flips between a = PsiInv(b)/b times
    # 1 - 1e-6 and 1 + 1e-6, where Psi(a*b) moves by (p-1)/p * 1e-6 >= 1e-9.
    monkeypatch.setattr(orlicz, "phi", lambda params, t: np.zeros_like(t, dtype=float))
    edge = b ** (p / (p - 1.0)) / b
    assert young_pair_check(edge * (1.0 - 1e-6), b, YoungParams(p))
    assert not young_pair_check(edge * (1.0 + 1e-6), b, YoungParams(p))


def test_young_pair_inverse_past_the_float_range():
    # PsiInv(100) = 100^1001 at p = 1.001: Psi stays below 100 on every float
    assert young_pair_check(1.0, 100.0, YoungParams(1.001))
    assert young_pair_check(1e300, 1e10, YoungParams(1.0, 0.5, 0.0))


def test_young_pair_when_phi_overflows():
    # the past-the-float-range test above covers a*b = inf alone: Psi is read
    # at the largest float there
    with np.errstate(over="ignore"):
        # phi(a) = inf with a*b finite: a*b - phi(a) = -inf
        assert young_pair_check(1e200, 1e-100, YoungParams(2.0))
        # both overflow: inf - inf is NaN, and inf <= inf
        assert young_pair_check(1e300, 1e10, YoungParams(2.0))


def test_young_pair_degenerate():
    with pytest.raises(DegenerateParams):
        young_pair_check(1.0, 1.0, YoungParams(1))


def test_entropy_domination():
    rng = rng_from_seed(29)
    n, r = 2, 1.5
    fs = [f for f in (random_step_fn(rng) for _ in range(30)) if not np.all(f.values == 0)]
    ents = entropies([f for f in fs for _ in range(2)],
                     [EntropyParams(n, 0.0), EntropyParams(n, r)] * len(fs))
    for f, e0, er in zip(fs, ents[::2], ents[1::2]):
        factor = entropy_domination_factor(f.measure.mass, r)
        assert e0 <= factor * er * (1 + 1e-8)


def test_pointwise_weight_ordering_above_unit_logs():
    # the single-log factor crosses 1 at t = e - 1, the double-log factor at
    # t = e^(e-1) - 1; past each point the larger exponent dominates
    # pointwise, hence the objective ordering at equal scale on densities
    # supported there
    t_q = np.linspace(np.e - 1.0, 50.0, 500)
    assert np.all(phi(YoungParams(1, 3, 1), t_q)
                  >= phi(YoungParams(1, 2, 1), t_q) * (1 - 1e-12))
    t_r = np.linspace(np.exp(np.e - 1.0) - 1.0, 50.0, 500)
    lo = phi(YoungParams(1, 2, 0.5), t_r)
    hi = phi(YoungParams(1, 2, 1.5), t_r)
    assert np.all(hi >= lo * (1 - 1e-12))


@st.composite
def _extreme_draw(draw):
    """Up to four grid functions of 1-20 nodes, with masses from 1e-300 to
    1e300 and values over 16 decades anywhere from 1e-300 to 1e300, so that
    some L1 sums overflow to inf."""
    fs, params = [], []
    for _ in range(draw(st.integers(1, 4))):
        n = draw(st.integers(1, 20))
        top, first = draw(st.floats(-300.0, 298.0)), draw(st.floats(-300.0, 284.0))
        weights = draw(st.lists(st.floats(top - 2.0, top), min_size=n, max_size=n))
        decades = draw(st.lists(st.floats(first, first + 16.0), min_size=n, max_size=n))
        fs.append(GridFn(WeightedMeasure(np.arange(n) + 0.5, 10.0 ** np.array(weights)),
                         10.0 ** np.array(decades)))
        params.append(YoungParams(draw(st.sampled_from([1.0, 2.0]) | st.floats(1.0, 3.0)),
                                  draw(_EXPONENTS), draw(_EXPONENTS)))
    return fs, params


@settings(max_examples=100, deadline=None)
@given(_extreme_draw())
@example(([GridFn(unit_mass_measure(), np.ones(2))], [YoungParams(1, 0, 0)]))  # exactly 1/2
@example(([GridFn(WeightedMeasure(np.array([0.5, 1.5]), np.array([1e300, 1e300])),
                  np.array([1e300, 1e10]))], [YoungParams(2, 1, 1)]))  # L1 = inf, v(hi) > 1
@example(([GridFn(WeightedMeasure(np.array([0.5, 1.5]), np.array([1e300, 1e300])),
                  np.array([1e-290, 1e-290]))], [YoungParams(1, 0, 0)]))  # hi = 2 L1
def test_objective_at_the_upper_bracket_end_is_at_most_half(drawn):
    # hi = max(L1, max|f|) (1 + mass) and phi(t) <= t on [0, 1] bound the
    # objective there by min(1, mass) / (1 + mass) <= 1/2 (docs/DECISIONS.md,
    # section 5, fact 4), up to rounding: equal values on weights that sum
    # to 1 can read 1/2 + 2^-53.  Where that product overflows, hi =
    # max(2 L1, max|f|) bounds it by L1 / hi <= 1/2.  Where that overflows
    # too, hi is the largest float, where no bound holds: the column either
    # solves with v <= 1 there or its norm exceeds the largest float.  The
    # solver's first evaluation is at hi.
    fs, params = drawn
    calls = []

    def recording(x, w, exps, c):
        calls.append((c, objective(x, w, exps, c)))
        return calls[-1][1]

    objective = orlicz._objective
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(orlicz, "_objective", recording)
        with contextlib.suppress(NonFinite):  # a norm below 5e-324 fails the lower search
            luxemburg_norms(fs, params)
    hi, values = calls[0]
    assert values.shape == (len(fs),)
    below = hi < orlicz._FLOAT_MAX
    assert np.all(values[below] <= 0.5 * (1.0 + 1e-12))
    for i in np.flatnonzero(~below):
        if values[i] <= 1.0:
            assert luxemburg_norm(fs[i], params[i]).verdict.passed
        else:
            with pytest.raises(NonFinite, match="exceeds the largest float"):
                luxemburg_norm(fs[i], params[i])


def test_lower_bracket_search_runs_past_200_halvings():
    # the search starts at 1e-12 max|f| = 1e78, about 260 halvings above the
    # norm; at weight (1, 0, 0) the norm is the L1 mass
    f = GridFn(WeightedMeasure(np.array([0.0, 1.0]), np.array([1e-95, 1.0])),
               np.array([1e90, 1.0]))
    res = luxemburg_norm(f, YoungParams(1, 0, 0))
    assert abs(res.norm - 1.00001) <= 1e-9 * 1.00001
    _assert_enclosed([res], _reference_norms([f], [YoungParams(1, 0, 0)]))


def test_lower_bracket_search_stops_at_zero(monkeypatch):
    # the batched objective, one value per function, never reaches 1
    monkeypatch.setattr(orlicz, "_objective", lambda x, w, exps, c: np.full(len(c), 0.5))
    with pytest.raises(NonFinite, match="down to c = 0"):
        luxemburg_norm(GridFn(unit_mass_measure(), np.ones(2)), YoungParams(1, 1, 0))


def test_an_overflowing_norm_raises_nonfinite():
    # L1 = 1e600 overflows, so hi is the largest float, where the objective
    # reads about 5.6e291 > 1: the norm, L1, lies past every float
    f = GridFn(WeightedMeasure(np.array([0.1, 0.2]), np.array([1e300, 1e300])),
               np.array([1e300, 1e10]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the overflows by design raise no RuntimeWarning
        with pytest.raises(NonFinite, match="the norm exceeds the largest float"):
            luxemburg_norm(f, YoungParams(1, 0, 0))


@pytest.mark.parametrize("weights, values, p, exact",
                         [((1.0, 1.0), (1e308, 5e307), 1.0, 1.5e308),
                          ((1e300, 1e300), (1e10, 1e10), 2.0, math.sqrt(2.0) * 1e160)])
def test_a_norm_whose_upper_bracket_ends_both_overflow_comes_out_finite(weights, values, p,
                                                                        exact):
    # max(L1, max|f|) (1 + mass) and max(2 L1, max|f|) both overflow, yet the
    # norm at weight (p, 0, 0), the L^p norm, is finite: the objective at the
    # largest float reads at most 1, a known side (docs/DECISIONS.md,
    # section 5, fact 4)
    f = GridFn(WeightedMeasure(np.array([0.5, 1.5]), np.array(weights)), np.array(values))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = luxemburg_norm(f, YoungParams(p))
    assert abs(res.norm - exact) <= 1e-12 * exact and res.verdict.passed
    assert res.bracket[0] < exact <= res.bracket[1] <= res.bracket[0] * (1.0 + 1e-13)


def test_a_column_still_open_at_the_narrowing_cap_fails(monkeypatch):
    # a column with a point left to evaluate when the cap ends the narrowing
    # raises, naming its known sides, rather than return its wide b
    # (docs/DECISIONS.md, section 5, fact 5); a capped solve either raises
    # so or returns the uncapped result, the subnormal norm, whose sides end
    # adjacent floats, included
    f = GridFn(WeightedMeasure(np.arange(3) + 0.5, np.array([1.0, 2.0, 3.0])),
               np.array([2.0, 3.0, 3.0]))
    tiny = GridFn(WeightedMeasure(np.array([0.5, 1.5]), np.array([1e-30, 5e-31])),
                  np.array([1e-285, 3e-286]))
    cases = [(f, YoungParams(1.5, 1, 1)), (tiny, YoungParams(1, 0, 2.35))]
    uncapped = [luxemburg_norm(g, params) for g, params in cases]
    monkeypatch.setattr(orlicz, "_NARROW_STEPS", 1)
    with pytest.raises(VerificationFailed, match=r"a = \S+, b = 119\.0 are still apart"):
        luxemburg_norm(f, YoungParams(1.5, 1, 1))  # hi = L1 (1 + mass) = 119
    for (g, params), want in zip(cases, uncapped):
        for cap in range(1, 13):
            monkeypatch.setattr(orlicz, "_NARROW_STEPS", cap)
            try:
                res = luxemburg_norm(g, params)
            except VerificationFailed:
                continue
            assert res == want
            break
        else:
            raise AssertionError("no cap up to 12 let the column finish")


@pytest.mark.parametrize("p, exact", [(1.0, 2e10), (2.0, math.sqrt(2.0) * 1e-140)])
def test_a_norm_whose_upper_bracket_end_overflows_comes_out_finite(p, exact):
    # mass 2e300 makes max(L1, max|f|) (1 + mass) overflow, though the norm
    # at weight (p, 0, 0) is the L^p norm (sum w |f|^p)^(1/p); hi =
    # max(2 L1, max|f|) = 4e10 takes its place (docs/DECISIONS.md, section
    # 5, fact 4)
    f = GridFn(WeightedMeasure(np.array([0.1, 0.2]), np.array([1e300, 1e300])),
               np.array([1e-290, 1e-290]))
    res = luxemburg_norm(f, YoungParams(p))
    assert abs(res.norm - exact) <= 1e-9 * exact and res.verdict.passed
    assert integral_bound_from_norm(f, YoungParams(p), res.norm).passed


def test_bound_helpers_raise_invalid_input():
    params = YoungParams(1.0, 1.0, 0.0)
    with pytest.raises(InvalidInput):
        norm_bound_from_integral(0.0, 1.0, params)
    with pytest.raises(InvalidInput):
        young_pair_check(-1.0, 1.0, params)


def _ragged_instances(rng, count):
    """Grid functions of 1-300 nodes with values across 16 decades, some
    identically zero, and exponent triples that include 0, 0.5, 1 and 2."""
    fs, params = [], []
    for i in range(count):
        n = int(rng.integers(1, 301))
        m = WeightedMeasure(np.cumsum(rng.uniform(0.1, 1.0, n)),
                            np.exp(rng.uniform(np.log(1e-3), np.log(10.0), n)))
        vals = 10.0 ** rng.uniform(-8.0, 8.0, n) * (rng.random(n) > 0.2)
        fs.append(GridFn(m, vals * (i % 11 != 0)))
        if i % 2:  # exponents that numpy computes by a shortcut, or that skip a factor
            q, r = (float(v) for v in rng.choice([0.0, 0.5, 1.0, 2.0, 3.0], 2))
            params.append(YoungParams(float(rng.choice([1.0, 1.5, 2.0])), q, r))
        else:
            params.append(random_young_params(rng))
    return fs, params


def test_batched_norms_equal_their_one_at_a_time_solves(monkeypatch):
    rng = rng_from_seed(41)
    fs, params = _ragged_instances(rng, 120)
    alone = [luxemburg_norm(f, p) for f, p in zip(fs, params)]
    monkeypatch.setattr(orlicz, "BLOCK_SIZE", 32)  # four blocks, the last one short
    for order in (np.arange(len(fs)), rng.permutation(len(fs))):
        batched = luxemburg_norms([fs[i] for i in order], [params[i] for i in order])
        assert [alone[i] for i in order] == batched  # every norm, objective and bracket


def test_zero_functions_and_blocks_keep_their_places():
    m = unit_mass_measure()
    fs = [GridFn(m, np.zeros(2)), GridFn(m, np.ones(2))] * (orlicz.BLOCK_SIZE // 2 + 1)
    results = luxemburg_norms(fs, [YoungParams(1, 1, 0)] * len(fs))
    assert len(results) == orlicz.BLOCK_SIZE + 2
    assert all(r.norm == 0.0 and r.bracket == (0.0, 0.0) for r in results[::2])
    assert all(r == results[1] for r in results[1::2])
    assert abs(results[1].norm - UNIT_DENSITY_NORM_110) <= 1e-8
    assert luxemburg_norms([], []) == []


def test_weight_columns_match_scalar_exponents():
    from luxglue.youngfn import _weight

    rng = rng_from_seed(43)
    for length in (1, 7, 300):
        t = 10.0 ** rng.uniform(-8.0, 8.0, (length, 40))
        p = rng.choice([1.0, 2.0, 3.0, 1.7], 40)
        q = rng.choice([0.0, 0.5, 1.0, 2.0, 2.6], 40)
        r = rng.choice([0.0, 0.5, 1.0, 2.0, 3.0], 40)
        columns = _weight(t, p, q, r)
        for j in range(40):
            assert np.array_equal(columns[:, j], phi(YoungParams(p[j], q[j], r[j]), t[:, j]))


def test_batch_reports_the_first_failing_function(monkeypatch):
    m = unit_mass_measure()
    finite, infinite = GridFn(m, np.ones(2)), GridFn(m, np.array([1.0, np.inf]))
    params = [YoungParams(1, 1, 0)] * 2
    with pytest.raises(NonFinite, match="finite values"):
        luxemburg_norms([finite, infinite], params)
    # an objective that never reaches 1 fails every finite function's lower bracket
    monkeypatch.setattr(orlicz, "_objective", lambda x, w, exps, c: np.full(len(c), 0.5))
    with pytest.raises(NonFinite, match="down to c = 0"):
        luxemburg_norms([finite, infinite], params)
    with pytest.raises(NonFinite, match="finite values"):
        luxemburg_norms([infinite, finite], params)
    with pytest.raises(InvalidInput):
        luxemburg_norms([finite], params)


def test_entropies_check_each_density_against_its_integral():
    m = unit_mass_measure()
    dens = [GridFn(m, np.ones(2)), GridFn(m, np.array([2.0, 3.0]))]
    scales = [EntropyParams(1), EntropyParams(2, 1.0)]
    assert entropies(dens, scales) == [entropies([d], [ep])[0] for d, ep in zip(dens, scales)]
    with pytest.raises(NegativeDensity):
        entropies(dens + [GridFn(m, np.array([1.0, -1.0]))], scales + [EntropyParams(1)])


def test_holder_young_bounds_count_instead_of_raising(monkeypatch):
    rng = rng_from_seed(47)
    fs = [random_step_fn(rng) for _ in range(5)]
    params = [random_young_params(rng) for _ in fs]
    bounds = holder_young_bounds(fs, params)
    assert bounds == [holder_young_bounds([f], [p])[0] for f, p in zip(fs, params)]
    assert sweep_verdict(bounds).passed
    monkeypatch.setattr(orlicz, "holder_young_constant", lambda params: 1e-12)
    broken = holder_young_bounds(fs, params)
    assert not any(b.passed for b in broken if b.lhs > 0)
    assert sweep_verdict(broken).lhs == sum(b.lhs > 0 for b in broken) > 0


def _reference_norms(fs, params):
    """(norm, objective at the norm, bracket) of each f by plain bisection:
    the bracket search of an earlier solver, then bisection, evaluating
    every midpoint, to a relative width of 1e-10."""
    x = np.zeros((max(f.values.size for f in fs), len(fs)))
    w = np.zeros_like(x)
    for i, f in enumerate(fs):
        x[:f.values.size, i] = np.abs(f.values)
        w[:f.values.size, i] = f.measure.weights
    exps = [orlicz._exponent([getattr(pr, a) for pr in params]) for a in "pqr"]

    def objective(cols: list[int], c: list[float]) -> list[float]:
        if len(cols) == len(fs):  # every column: no copies
            return orlicz._objective(x, w, exps, np.array(c)).tolist()
        idx = np.array(cols, dtype=int)
        return orlicz._objective(x[:, idx], w[:, idx], [e[idx] if isinstance(e, np.ndarray) else e
                                                        for e in exps], np.array(c)).tolist()

    finite = np.isfinite(x).all(axis=0)
    vmax = x.max(axis=0)
    lo = (vmax * 1e-12).tolist()
    hi = (np.maximum(pairwise_sums(w * x), vmax) * (1.0 + pairwise_sums(w))).tolist()
    failed = {i: "grid function must have finite values"
              for i in np.flatnonzero(~finite).tolist()}
    cols = np.flatnonzero(finite & (vmax > 0.0)).tolist()  # the zero function has norm 0

    open_ = cols
    for _ in range(200):  # double hi until the objective there is <= 1
        if not open_:
            break
        open_ = [i for i, v in zip(open_, objective(open_, [hi[i] for i in open_]))
                 if not v <= 1.0]
        for i in open_:
            hi[i] *= 2.0
    for i in open_:
        failed[i] = "objective never dropped below 1; values too large"
    cols = [i for i in cols if i not in failed]

    open_ = cols
    while open_:  # halve lo, pulling hi down to it, until the objective there is >= 1
        open_ = [i for i, v in zip(open_, objective(open_, [lo[i] for i in open_]))
                 if not v >= 1.0]
        for i in open_:
            hi[i] = min(hi[i], lo[i])
            lo[i] *= 0.5
            if lo[i] == 0.0:
                failed[i] = "objective stayed below 1 down to c = 0"
        open_ = [i for i in open_ if lo[i] != 0.0]
    if failed:
        raise NonFinite(failed[min(failed)])

    open_ = cols
    while True:  # bisect until the bracket is narrow or its midpoint stops moving
        mid = {i: 0.5 * (lo[i] + hi[i]) for i in open_ if hi[i] - lo[i] > 1e-10 * hi[i]}
        open_ = [i for i, m in mid.items() if lo[i] < m < hi[i]]
        if not open_:
            break
        for i, v in zip(open_, objective(open_, [mid[i] for i in open_])):
            if v <= 1.0:
                hi[i] = mid[i]
            else:
                lo[i] = mid[i]

    out = [(0.0, 0.0, (0.0, 0.0))] * len(fs)
    for i, at_norm in zip(cols, objective(cols, [hi[i] for i in cols])):
        out[i] = (hi[i], at_norm, (lo[i], hi[i]))
    return out


def _assert_enclosed(results, reference):
    """Each norm lies in plain bisection's bracket (lo, hi (1 + 1e-13)]:
    both brackets hold the crossing, and the norm is the upper known side b
    <= a (1 + 1e-13) of one no wider than that (docs/DECISIONS.md, section
    5, fact 5)."""
    assert len(results) == len(reference)
    for res, (norm, _, (lo, hi)) in zip(results, reference):
        if norm == 0.0:
            assert (res.norm, res.bracket, res.evals) == (0.0, (0.0, 0.0), 0)
        else:
            assert lo < res.norm <= hi * (1.0 + 1e-13) and res.objective_at_norm <= 1.0


_EXPONENTS = st.sampled_from([0.0, 0.5, 1.0, 2.0]) | st.floats(0.0, 3.0)


@st.composite
def _ragged_draw(draw):
    """Up to six grid functions of 1-40 nodes, values across 16 decades
    (some 0), weights across 4, and exponents that include 0, 0.5, 1 and 2."""
    fs, params = [], []
    for _ in range(draw(st.integers(1, 6))):
        n = draw(st.integers(1, 40))
        decades = draw(st.lists(st.floats(-8.0, 8.0), min_size=n, max_size=n))
        zeros = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        weights = draw(st.lists(st.floats(-3.0, 1.0), min_size=n, max_size=n))
        m = WeightedMeasure(np.arange(n) + 0.5, 10.0 ** np.array(weights))
        fs.append(GridFn(m, 10.0 ** np.array(decades) * ~np.array(zeros)))
        params.append(YoungParams(draw(st.sampled_from([1.0, 2.0]) | st.floats(1.0, 3.0)),
                                  draw(_EXPONENTS), draw(_EXPONENTS)))
    return fs, params


@settings(max_examples=60, deadline=None)
@given(_ragged_draw())
def test_each_norm_lies_in_plain_bisections_bracket(drawn):
    fs, params = drawn
    _assert_enclosed(luxemburg_norms(fs, params), _reference_norms(fs, params))


@settings(max_examples=100, deadline=None)
@given(st.one_of(_ragged_draw(), _extreme_draw()))
def test_the_norm_is_the_narrowed_known_side(drawn):
    # the objective evaluated again at the returned bracket (a, b) reads > 1
    # at a and objective_at_norm <= 1 at the norm b, and b <= a (1 + 1e-13)
    # unless a and b are adjacent floats
    for f, young in zip(*drawn):
        try:
            res = luxemburg_norm(f, young)
        except NonFinite:  # an L1 that overflows, or a norm below the least positive float
            continue
        if res.norm == 0.0:
            continue
        a, b = res.bracket
        x, w = np.abs(f.values)[:, None], f.measure.weights[:, None]
        exps = [float(young.p), float(young.q), float(young.r)]
        with np.errstate(over="ignore"):
            va, vb = (float(orlicz._objective(x, w, exps, np.array([c]))[0]) for c in (a, b))
        assert b == res.norm and va > 1.0 and vb == res.objective_at_norm <= 1.0
        assert a < b <= a * (1.0 + 1e-13) or math.nextafter(a, math.inf) == b


def test_evals_count_every_objective_evaluation(monkeypatch):
    fs, params = _ragged_instances(rng_from_seed(59), 40)
    counted = []

    def counting(x, w, exps, c):
        counted.append(len(c))
        return objective(x, w, exps, c)

    objective = orlicz._objective
    monkeypatch.setattr(orlicz, "_objective", counting)
    results = luxemburg_norms(fs, params)
    assert sum(r.evals for r in results) == sum(counted)
    assert all((r.evals == 0) == (r.norm == 0.0) for r in results)


def test_replay_bits_and_evaluation_budget_on_ragged_blocks():
    fs, params = _ragged_instances(rng_from_seed(41), 120)
    results = luxemburg_norms(fs, params)
    _assert_enclosed(results, _reference_norms(fs, params))
    evals = [r.evals for r in results if r.norm > 0]
    assert sum(evals) / len(evals) <= 14  # plain bisection spends about 48


def _deep_instances(rng, count):
    """Grid functions of 1-30 nodes with weights across 10^-252..1 and
    values across 10^-250..10^250, each with a finite
    hi = max(L1, max|f|) (1 + mass) and a norm in the normal float range.
    The norm lies up to hundreds of halvings below lo = 1e-12 max|f|."""
    fs, params = [], []
    while len(fs) < count:
        n = int(rng.integers(1, 31))
        m = WeightedMeasure(np.arange(n) + 0.5,
                            10.0 ** rng.uniform(-250.0, 0.0) * 10.0 ** rng.uniform(-2.0, 0.0, n))
        f = GridFn(m, 10.0 ** rng.uniform(-250.0, 234.0) * 10.0 ** rng.uniform(0.0, 16.0, n))
        young = random_young_params(rng)
        with np.errstate(over="ignore"):
            hi = max(float(pairwise_sums(m.weights * f.values)), f.values.max()) * (1.0 + m.mass)
        with contextlib.suppress(NonFinite):  # a norm below 5e-324 fails the lower search
            if hi < np.inf and luxemburg_norm(f, young).norm >= np.finfo(float).tiny:
                fs.append(f)
                params.append(young)
    return fs, params


def test_evaluation_budget_for_deep_crossings():
    # the plain search halves lo 161 times on the median function here; the
    # known sides reach the crossing in a few evaluations.  7.97 evaluations
    # per norm; the geometric midpoint in place of a v(a)^(1/p) where the
    # narrowing's log width does not halve spent 3.55 more
    fs, params = _deep_instances(rng_from_seed(61), 120)
    results = luxemburg_norms(fs, params)
    _assert_enclosed(results, _reference_norms(fs, params))
    assert sum(r.evals for r in results) / len(results) <= 10.5


@pytest.mark.parametrize("weight, value, young", [(2e-24, 1e-290, (1, 0, 0)),
                                                  (2e-24, 1e-290, (1, 0, 2.35)),
                                                  (1e-30, 1e-285, (1, 0, 2.35)),
                                                  (3e-20, 1e-294, (1, 1, 0))])
def test_narrowing_stops_where_no_float_lies_between_the_sides(weight, value, young):
    # norms from 2.3e-314 to 1.4e-312, where floats lie 2e-10 to 4e-12 apart
    # (relative), coarser than the narrowing's 1e-13: it steps to the float
    # next to a side and stops once the sides are adjacent, in 5-8
    # evaluations; evaluating a side again until the step cap took about 68
    m = WeightedMeasure(np.array([0.5, 1.5]), np.array([weight, 0.5 * weight]))
    f, params = GridFn(m, np.array([value, 0.3 * value])), YoungParams(*young)
    res = luxemburg_norm(f, params)
    assert res.norm < np.finfo(float).tiny
    _assert_enclosed([res], _reference_norms([f], [params]))
    assert res.evals <= 12


def test_an_underflowing_lower_bracket_end_reads_the_objective_as_infinite():
    # max|f| = 2e-315, so lo = 1e-12 max|f| underflows to 0, where a node of
    # value 0 (in f or in a block's zero padding) would give 0/0.  The lower
    # search skips lo = 0 and steps down from hi by c v(c)^(1/p) / 2, so a
    # block, a zero node and a solve alone agree, in 4 evaluations where a
    # bisection from [0, hi] took 32.
    m = WeightedMeasure(np.array([0.5, 1.5]), np.array([1.0, 1.0]))
    three = WeightedMeasure(np.array([0.5, 1.5, 2.5]), np.ones(3))
    f, g = GridFn(m, np.array([1e-315, 2e-315])), GridFn(three, np.array([1.0, 2.0, 3.0]))
    zero_node = GridFn(three, np.array([1e-315, 2e-315, 0.0]))
    params = YoungParams(1, 0, 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        alone = [luxemburg_norm(f, params), luxemburg_norm(g, params)]
        assert luxemburg_norms([f, g], [params] * 2) == alone
        assert alone[0].norm == luxemburg_norm(zero_node, params).norm == 3e-315
        assert alone[0].evals <= 12


def test_narrowing_halves_its_log_width_on_a_far_known_side():
    # hi takes the max(2 L1, max|f|) end here, so plain bisection has another
    # bracket and _reference_norms does not apply.  Stepping to a v(a)^(1/p)
    # where the log width does not halve takes 7 evaluations; interpolation
    # alone stalls on the far side b until the 64-step cap, 66 evaluations,
    # and returns that b, 2.1e248, for a crossing at 5.7e195.
    f = GridFn(WeightedMeasure(np.array([0.5]), np.array([7.428533515761995e65])),
               np.array([1.4101438535498882e182]))
    res = luxemburg_norm(f, YoungParams(1.6634702654621885, 0.5947119417388589,
                                        2.5828071525198832))
    assert res.verdict.passed and res.evals <= 12


@pytest.mark.parametrize("n", [2, 3])
def test_lower_search_replay_on_chart_densities(n):
    # the sweep's densities at both of its r columns, from eps = 2^-5, where
    # the search stops at lo itself, to 2^-40, where it stops 19 (n = 2) or
    # 48 (n = 3) halvings below lo
    dens = [chart_density(n, 2.0 ** -k) for k in (5, 12, 20, 40)]
    fs = [d for d in dens for _ in (n - 1, n + 1)]
    params = [EntropyParams(n, float(r)).young for _ in dens for r in (n - 1, n + 1)]
    results = luxemburg_norms(fs, params)
    _assert_enclosed(results, _reference_norms(fs, params))
    # 9.5 (n = 2) and 9.875 (n = 3) per norm; the halving loop spent 18.5 on
    # these, and 17.49 on the 1,224 columns of the chart-sweep op sets at
    # seeds 301-302
    assert sum(r.evals for r in results) / len(results) <= 13


def test_replay_survives_an_ulp_wiggle(monkeypatch):
    # non-monotone in c at the ulp scale: the objective moves by up to
    # 1.5 * 2^-46 relative with the two low bits of c.  log v falls with
    # slope >= p >= 1 in log c, so the crossing blurs over at most
    # 3 * 2^-46 (4e-14) of c; each known side is read off its own
    # evaluation, so the norm stays inside plain bisection's bracket.
    def wiggly(x, w, exps, c):
        return objective(x, w, exps, c) * (1.0 + 2.0**-46 * ((c.view(np.int64) & 3) - 1.5))

    objective = orlicz._objective
    monkeypatch.setattr(orlicz, "_objective", wiggly)
    fs, params = _ragged_instances(rng_from_seed(61), 60)
    _assert_enclosed(luxemburg_norms(fs, params), _reference_norms(fs, params))
