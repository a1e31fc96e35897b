import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from luxglue.errors import InvalidInput, NoBracket, NonFinite
from luxglue.numgrid import (
    GridFn,
    Interval,
    SmoothFn,
    WeightedMeasure,
    bisect_monotone,
    check_derivative_consistency,
    gauss_measure,
    geometric_gauss_measure,
    integrate,
    merge_measures,
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


def test_integrate_constant_and_zero():
    m = WeightedMeasure(np.array([0.25, 0.75]), np.array([0.5, 0.5]))
    assert integrate(GridFn(m, np.array([1.0, 1.0]))) == 1.0
    assert integrate(GridFn(m, np.array([0.0, 0.0]))) == 0.0


def test_integrate_t_squared():
    m = gauss_measure(Interval(0.0, 1.0), 1000, 4)
    val = integrate(GridFn.from_callable(m, lambda t: t**2))
    assert abs(val - 1.0 / 3.0) < 1e-12


def test_integrate_rejects_nan():
    m = WeightedMeasure(np.array([0.0, 1.0]), np.array([1.0, 1.0]))
    with pytest.raises(NonFinite):
        integrate(GridFn(m, np.array([np.nan, 0.0])))


@settings(max_examples=50, deadline=None)
@given(st.floats(-5, 5), st.floats(-5, 5))
def test_integrate_linear(alpha, beta):
    m = gauss_measure(Interval(0.0, 2.0), 4, 6)
    f = GridFn.from_callable(m, np.cos)
    g = GridFn.from_callable(m, np.exp)
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
        val = integrate(GridFn.from_callable(m, lambda t, d=deg: t**d))
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


def test_bisect_square():
    c = bisect_monotone(lambda c: c * c, 0.0, 3.0, target=4.0, tol=1e-10)
    assert abs(c - 2.0) <= 1e-9


def test_bisect_decreasing():
    # a decreasing g is solved as the increasing -g
    c = bisect_monotone(lambda c: -1.0 / c, 0.1, 10.0, target=-1.0, tol=1e-10)
    assert abs(c - 1.0) <= 1e-9


def test_bisect_integral_form():
    m = gauss_measure(Interval(0.0, 1.0), 2, 4)

    def g(c):
        return integrate(GridFn.from_callable(m, lambda t: np.full_like(t, 1.0 / c)))

    c = bisect_monotone(lambda c: -g(c), 0.01, 50.0, target=-1.0, tol=1e-11)
    assert abs(c - 1.0) <= 1e-10


def test_bisect_tol_invariance():
    g = lambda c: c**3
    base = bisect_monotone(g, 0.0, 4.0, target=8.0, tol=1e-8)
    finer = bisect_monotone(g, 0.0, 4.0, target=8.0, tol=5e-9)
    assert abs(base - finer) <= 2e-8


def test_bisect_no_bracket():
    with pytest.raises(NoBracket):
        bisect_monotone(lambda c: c, 0.0, 1.0, target=5.0, tol=1e-8)


def test_bisect_nan_detected():
    with pytest.raises(NonFinite):
        bisect_monotone(lambda c: np.nan, 0.0, 1.0, target=0.5, tol=1e-8)


def test_merge_measures():
    a = gauss_measure(Interval(0.0, 1.0), 2, 3)
    b = gauss_measure(Interval(2.0, 3.0), 2, 3)
    merged = merge_measures(a, b)
    assert merged.nodes.size == a.nodes.size + b.nodes.size
    assert abs(merged.mass - 2.0) < 1e-13


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
    t = np.array([-2, -1, 0, 1, 2])  # integer input must not truncate values

    def only(mask, jet):
        def guarded(s):
            if not np.array_equal(s, t[mask]):
                raise AssertionError(f"branch handed {s}, expected {t[mask]}")
            return jet(s)
        return guarded

    neg, pos, far = t < 0, t >= 0, t > 5
    v, v1, v2 = piecewise(t, [
        (neg, only(neg, lambda s: (-s - 0.5, -1.0, 0.0))),
        (pos, only(pos, lambda s: (s + 0.5, 1.0 + 0 * s, 0 * s))),
        (far, only(far, lambda s: (s, s, s))),
    ])
    assert v.tolist() == [1.5, 0.5, 0.5, 1.5, 2.5]
    assert v1.tolist() == [-1.0, -1.0, 1.0, 1.0, 1.0]
    assert v2.tolist() == [0.0] * 5
    # points no branch covers come out NaN
    assert np.isnan(piecewise(t, [(neg, lambda s: (s, s, s))])[0][~neg]).all()


def test_gridfn_and_bisect_raise_invalid_input():
    m = WeightedMeasure(np.array([0.25, 0.75]), np.array([0.5, 0.5]))
    with pytest.raises(InvalidInput):
        GridFn(m, np.array([1.0]))
    with pytest.raises(InvalidInput):
        bisect_monotone(lambda x: x, 1.0, 1.0)
