import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from luxglue.errors import InvalidInput, NonFinite
from luxglue.numgrid import (
    GridFn,
    Interval,
    SmoothFn,
    WeightedMeasure,
    check_derivative_consistency,
    gauss_measure,
    geometric_gauss_measure,
    integrate,
    pairwise_sum,
    piecewise,
)


def test_interval_validation():
    with pytest.raises(ValueError):
        Interval(1.0, 1.0)
    with pytest.raises(ValueError):
        Interval(0.0, np.inf)


def test_measure_validation():
    with pytest.raises(ValueError):
        WeightedMeasure(np.array([0.0, 0.0]), np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        WeightedMeasure(np.array([0.0, 1.0]), np.array([1.0, -1.0]))


def test_finite_weights_whose_mass_overflows_are_non_finite():
    # an infinite weight is outside the domain (InvalidInput); finite weights
    # whose pairwise sum overflows are a NonFinite mass, with no overflow warning
    with pytest.raises(NonFinite, match="total mass"):
        WeightedMeasure(np.array([0.0, 1.0]), np.array([1e308, 1e308]))


def test_integrate_constant_and_zero():
    m = WeightedMeasure(np.array([0.25, 0.75]), np.array([0.5, 0.5]))
    assert integrate(GridFn(m, np.array([1.0, 1.0]))) == 1.0
    assert integrate(GridFn(m, np.array([0.0, 0.0]))) == 0.0


def test_integrate_t_squared():
    m = gauss_measure(Interval(0.0, 1.0), 1000, 4)
    val = integrate(GridFn(m, m.nodes**2))
    assert abs(val - 1.0 / 3.0) < 1e-12


def test_integrate_rejects_nan():
    m = WeightedMeasure(np.array([0.0, 1.0]), np.array([1.0, 1.0]))
    with pytest.raises(NonFinite):
        integrate(GridFn(m, np.array([np.nan, 0.0])))


@settings(max_examples=50, deadline=None)
@given(st.floats(-5, 5), st.floats(-5, 5))
def test_integrate_linear(alpha, beta):
    m = gauss_measure(Interval(0.0, 2.0), 4, 6)
    f = GridFn(m, np.cos(m.nodes))
    g = GridFn(m, np.exp(m.nodes))
    combo = GridFn(m, alpha * f.values + beta * g.values)
    lhs = integrate(combo)
    rhs = alpha * integrate(f) + beta * integrate(g)
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs), abs(rhs))


def test_gauss_two_point_nodes():
    m = gauss_measure(Interval(0.0, 1.0), 1, 2)
    expected = np.array([0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0)])
    np.testing.assert_allclose(m.nodes, expected, atol=1e-15)
    np.testing.assert_allclose(m.weights, [0.5, 0.5], atol=1e-15)


def test_gauss_three_point_middle():
    m = gauss_measure(Interval(-1.0, 1.0), 1, 3)
    assert abs(m.nodes[1]) < 1e-15
    assert abs(m.weights[1] - 8.0 / 9.0) < 1e-15


def test_gauss_mass():
    assert abs(gauss_measure(Interval(0.0, 2.0), 2, 2).mass - 2.0) < 1e-13
    assert abs(geometric_gauss_measure(Interval(0.0, 1.0), 20, 8).mass - 1.0) < 1e-13


@pytest.mark.parametrize("order", [2, 5, 8, 16])
def test_gauss_polynomial_exactness(order):
    m = gauss_measure(Interval(0.0, 1.0), 3, order)
    for deg in range(2 * order):
        val = integrate(GridFn(m, m.nodes**deg))
        exact = 1.0 / (deg + 1)
        assert abs(val - exact) <= 1e-12 * exact


def test_gauss_order_out_of_range():
    with pytest.raises(ValueError):
        gauss_measure(Interval(0.0, 1.0), 1, 1)
    with pytest.raises(ValueError):
        gauss_measure(Interval(0.0, 1.0), 1, 65)


def test_geometric_measure_refines_toward_lo():
    m = geometric_gauss_measure(Interval(0.0, 1.0), panels=10, order=2)
    assert m.nodes[0] < 1e-3  # the first panel is ~2^-10 wide
    assert m.nodes[-1] > 0.5


def test_pairwise_sum_matches_fsum():
    import math

    rng = np.random.default_rng(3)
    a = rng.normal(size=1234)
    assert abs(pairwise_sum(a) - math.fsum(a)) < 1e-10


def test_smooth_fn_contract_pass_and_fail():
    good = SmoothFn(Interval(0.1, 3.0), lambda t: (t**3, 3 * t**2, 6 * t))
    assert check_derivative_consistency(good).ok
    bad = SmoothFn(Interval(0.1, 3.0), lambda t: (t**3, 2 * t**2, 6 * t))
    assert not check_derivative_consistency(bad).ok


def _three_call_report(fn, n_probes=64):
    """check_derivative_consistency as written with one jet call per grid."""
    dom = fn.interval
    scale = max(1.0, abs(dom.lo), abs(dom.hi))
    h = min(1e-5 * scale, dom.length / 8.0)
    t = np.linspace(dom.lo + h, dom.hi - h, n_probes)

    def sup_rel_err(approx, exact):
        denom = max(float(np.max(np.abs(approx))), float(np.max(np.abs(exact))), 1e-12)
        return float(np.max(np.abs(approx - exact)) / denom)

    f0_hi, f1_hi, _ = fn.eval(t + h)
    f0_lo, f1_lo, _ = fn.eval(t - h)
    _, f1, f2 = fn.eval(t)
    e1 = sup_rel_err((f0_hi - f0_lo) / (2 * h), f1)
    e2 = sup_rel_err((f1_hi - f1_lo) / (2 * h), f2)
    return e1 <= 1e-5 and e2 <= 1e-5, e1, e2


@pytest.mark.parametrize("jet, ok", [
    (lambda t: (np.exp(t) + t**3, np.exp(t) + 3 * t**2, np.exp(t) + 6 * t), True),
    (lambda t: (np.exp(t) + t**3, np.exp(t) + 3 * t**2, np.exp(t) + 5 * t), False),
])
def test_the_derivative_check_makes_one_jet_call(jet, ok):
    sizes = []
    fn = SmoothFn(Interval(0.1, 3.0), lambda t: sizes.append(t.size) or jet(t))
    got = check_derivative_consistency(fn)
    assert sizes == [3 * 64]
    want = _three_call_report(SmoothFn(fn.interval, jet))
    assert want[0] is ok
    assert [repr(v) for v in (got.ok, got.worst_d1_err, got.worst_d2_err)] == [
        repr(v) for v in want]


def test_smooth_fn_scalar_shape():
    fn = SmoothFn(Interval(0.0, 1.0), lambda t: (t**2, 2 * t, 2.0 + 0 * t))
    assert np.ndim(fn.d0(0.5)) == 0
    assert fn.d1(np.array([0.25, 0.5])).shape == (2,)


def test_smooth_fn_eval_scalar_jet():
    fn = SmoothFn(Interval(0.0, 1.0), lambda t: (t**2, 2 * t, 2.0 + 0 * t))
    jet = fn.eval(0.5)
    assert [np.ndim(v) for v in jet] == [0, 0, 0]
    assert [float(v) for v in jet] == [0.25, 1.0, 2.0]


def test_piecewise_evaluates_each_branch_on_its_own_points():
    t = np.array([-2, -1, 0, 1, 2, 3])  # integer input must not truncate values
    # edges (0, 2): an even edge closes the segment on its left and an odd
    # one the segment on its right, so the segments are t <= 0, 0 < t < 2
    # and t >= 2
    owned = [t <= 0, (t > 0) & (t < 2), t >= 2]

    def only(k, jet):
        def guarded(s):
            if not np.array_equal(s, t[owned[k]]):
                raise AssertionError(f"segment {k} handed {s}, expected {t[owned[k]]}")
            return jet(s)
        return guarded

    v, v1, v2 = piecewise(t, (0, 2), [
        only(0, lambda s: (-s - 0.5, -1.0, 0.0)),
        only(1, lambda s: (s + 0.5, 1.0 + 0 * s, 0 * s)),
        only(2, lambda s: (s, s, s)),
    ])
    assert v.tolist() == [1.5, 0.5, -0.5, 1.5, 2.0, 3.0]
    assert v1.tolist() == [-1.0, -1.0, -1.0, 1.0, 2.0, 3.0]
    assert v2.tolist() == [0.0, 0.0, 0.0, 0.0, 2.0, 3.0]
    # the infinities fall in the end segments; NaN lies in none, and no jet
    # sees it
    seen = []
    ends = np.array([-np.inf, np.nan, np.inf])
    v, v1, v2 = piecewise(ends, (0, 2), [lambda s: seen.append(s) or (s, 1.0, 2.0)] * 3)
    assert [s.tolist() for s in seen] == [[-np.inf], [np.inf]]
    assert np.isnan(v[1]) and np.isnan(v1[1]) and np.isnan(v2[1])
    assert v[[0, 2]].tolist() == [-np.inf, np.inf]
    assert v1[[0, 2]].tolist() == [1.0, 1.0] and v2[[0, 2]].tolist() == [2.0, 2.0]


def test_piecewise_hands_a_run_its_view_and_other_branches_their_points():
    # segments t <= 1.5, 1.5 < t < 4.5, 4.5 <= t <= 5, 5 < t < 6 and t >= 6
    t = np.array([0.0, 2.0, 3.0, 4.0, 9.0, 1.0, 8.0, np.nan])
    seen = {}

    def record(name):
        def jet(s):
            seen[name] = s
            return 10.0 * s, s + 1.0, 0.0
        return jet

    v, v1, v2 = piecewise(t, (1.5, 4.5, 5.0, 6.0), [
        record("split"), record("run"), record("empty"), record("empty"), record("split2")])
    # one run: a view of t, whose values land in the same slice
    assert np.shares_memory(seen["run"], t) and seen["run"].tolist() == [2.0, 3.0, 4.0]
    # two runs: a copy of the segment's points, in the order of t, scattered
    # back by index
    assert not np.shares_memory(seen["split"], t) and seen["split"].tolist() == [0.0, 1.0]
    assert seen["split2"].tolist() == [9.0, 8.0]
    # an empty segment: its jet is never called
    assert "empty" not in seen
    covered = ~np.isnan(t)
    assert v[covered].tolist() == (10.0 * t[covered]).tolist()
    assert v1[covered].tolist() == (t[covered] + 1.0).tolist()
    assert (v2[covered] == 0.0).all()
    # the NaN point comes out NaN
    assert all(np.isnan(o[~covered]).all() for o in (v, v1, v2))
    assert np.array_equal(t, [0.0, 2.0, 3.0, 4.0, 9.0, 1.0, 8.0, np.nan], equal_nan=True)


def test_piecewise_keeps_a_segment_whose_extreme_points_span_another_apart():
    # segment 1 (0 < t < 2) holds indices 2, 0 and 4 in the order of their
    # values: three points whose first and last index in that order are 2
    # apart, yet not a run, since index 1 and 3 lie in segment 2
    t = np.array([0.5, 9.0, 0.3, 9.0, 0.7])
    seen = []

    def middle(s):
        seen.append(s.tolist())
        return 10.0 * s, s, 0.0 * s

    v, v1, v2 = piecewise(t, (0.0, 2.0), [lambda s: (s, s, s), middle,
                                          lambda s: (-s, -s, -s)])
    assert seen == [[0.5, 0.3, 0.7]]
    assert v.tolist() == [5.0, -9.0, 3.0, -9.0, 7.0]
    assert v1.tolist() == [0.5, -9.0, 0.3, -9.0, 0.7]
    assert v2.tolist() == [0.0, -9.0, 0.0, -9.0, 0.0]


def test_piecewise_gives_each_edge_its_owner():
    # an edge at an even position belongs to the segment on its left, one at
    # an odd position to the segment on its right; an even edge equal to the
    # next one keeps that point on its left
    segment = [lambda s, k=k: (k + 0.0 * s, 0.0, 0.0) for k in range(5)]
    edges = (1.0, 2.0, 3.0, 4.0)
    t = np.array([1.0, 2.0, 3.0, 4.0, np.nextafter(1.0, 2.0), np.nextafter(4.0, 3.0)])
    assert piecewise(t, edges, segment)[0].tolist() == [0.0, 2.0, 2.0, 4.0, 1.0, 3.0]
    assert piecewise(np.array([1.0, 2.0]), (1.0, 1.0, 2.0, 2.0), segment)[0].tolist() == [0.0, 2.0]


def test_gridfn_and_bisect_raise_invalid_input():
    m = WeightedMeasure(np.array([0.25, 0.75]), np.array([0.5, 0.5]))
    with pytest.raises(InvalidInput):
        GridFn(m, np.array([1.0]))
