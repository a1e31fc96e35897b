import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from luxglue import orlicz
from luxglue.errors import (DegenerateParams, InvalidInput, NegativeDensity, NonFinite,
                            VerificationFailed, ZeroMass)
from luxglue.numgrid import GridFn, WeightedMeasure, integrate
from luxglue.orlicz import (
    EntropyParams,
    entropies,
    entropy,
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
    assert entropy(GridFn(m, np.zeros(2)), EntropyParams(1, 0.0)) == 0.0
    val = entropy(GridFn(m, np.ones(2)), EntropyParams(1, 0.0))
    assert abs(val - UNIT_DENSITY_NORM_110) <= 1e-8


def test_entropy_rejects_negative():
    with pytest.raises(NegativeDensity):
        entropy(GridFn(unit_mass_measure(), np.array([1.0, -1.0])), EntropyParams(1))


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
    # at q = r = 0, Psi(t) = t^((p-1)/p) and C = 1, so PsiInv(b) = b^(p/(p-1));
    # (1.01, 100) needs a bracket past 2^400: PsiInv = 1e202
    solved = []

    def recorded(*args, **kwargs):
        solved.append(bisect(*args, **kwargs))
        return solved[-1]

    bisect = orlicz.bisect_monotone
    monkeypatch.setattr(orlicz, "bisect_monotone", recorded)
    assert young_pair_check(1.0, b, YoungParams(p))
    exact = b ** (p / (p - 1.0))
    # the bisection stops at a width of 1e-12 max(1, hi), with hi < 2 max(1, exact)
    assert abs(solved[0] - exact) <= 4e-12 * max(1.0, exact)


def test_young_pair_inverse_past_the_float_range(monkeypatch):
    # PsiInv(100) = 100^1001 at p = 1.001: Psi stays below 100 on every float,
    # so the inverse is taken as inf and the inequality holds without a solve
    monkeypatch.setattr(orlicz, "bisect_monotone", None)
    assert young_pair_check(1.0, 100.0, YoungParams(1.001))
    assert young_pair_check(1e300, 1e10, YoungParams(1.0, 0.5, 0.0))


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


def test_lower_bracket_search_runs_past_200_halvings():
    # the search starts at 1e-12 max|f| = 1e78, about 260 halvings above the
    # norm; at weight (1, 0, 0) the norm is the L1 mass
    f = GridFn(WeightedMeasure(np.array([0.0, 1.0]), np.array([1e-95, 1.0])),
               np.array([1e90, 1.0]))
    res = luxemburg_norm(f, YoungParams(1, 0, 0))
    assert abs(res.norm - 1.00001) <= 1e-9 * 1.00001


def test_lower_bracket_search_stops_at_zero(monkeypatch):
    # the batched objective, one value per function, never reaches 1
    monkeypatch.setattr(orlicz, "_objective", lambda x, w, exps, c: np.full(len(c), 0.5))
    with pytest.raises(NonFinite, match="down to c = 0"):
        luxemburg_norm(GridFn(unit_mass_measure(), np.ones(2)), YoungParams(1, 1, 0))


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


def test_entropies_check_each_density_against_its_integral(monkeypatch):
    m = unit_mass_measure()
    dens = [GridFn(m, np.ones(2)), GridFn(m, np.array([2.0, 3.0]))]
    scales = [EntropyParams(1), EntropyParams(2, 1.0)]
    assert entropies(dens, scales) == [entropy(d, ep) for d, ep in zip(dens, scales)]
    with pytest.raises(NegativeDensity):
        entropies(dens + [GridFn(m, np.array([1.0, -1.0]))], scales + [EntropyParams(1)])
    inflated = [orlicz.LuxemburgResult(1e9, 1.0, (1e9, 1e9))] * 2
    monkeypatch.setattr(orlicz, "luxemburg_norms", lambda fs, params: inflated)
    with pytest.raises(VerificationFailed):
        entropies(dens, scales)


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
