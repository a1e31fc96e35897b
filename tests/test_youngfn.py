import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from luxglue.errors import DegenerateParams, NegativeArgument
from luxglue.numgrid import WeightedMeasure
from luxglue.youngfn import (
    YoungParams,
    check_strict_convexity,
    delta2_constant,
    phi,
    phi_compose_d2,
    phi_jet,
)


def log_grid(lo=1e-6, hi=1e6, n=2000):
    nodes = np.geomspace(lo, hi, n)
    return WeightedMeasure(nodes, np.ones(n))


def test_params_validation():
    with pytest.raises(ValueError):
        YoungParams(0.5)
    with pytest.raises(ValueError):
        YoungParams(1.0, -1.0)


def test_phi_identity_member():
    assert phi(YoungParams(1), 7.0) == 7.0


def test_phi_zero():
    for params in (YoungParams(1, 1, 0), YoungParams(2, 0, 3), YoungParams(1.5, 2, 1)):
        assert phi(params, 0.0) == 0.0


def test_phi_log_unit_point():
    # log(1 + t) = 1 exactly at t = e - 1
    val = phi(YoungParams(1, 1, 0), np.e - 1.0)
    assert abs(val - (np.e - 1.0)) < 1e-14


def test_phi_negative_rejected():
    with pytest.raises(NegativeArgument):
        phi(YoungParams(1, 1, 0), -0.5)
    with pytest.raises(NegativeArgument):
        phi_jet(YoungParams(1, 1, 0), 0.0)


def test_derivatives_quadratic():
    assert phi_jet(YoungParams(2), 3.0) == (9.0, 6.0, 2.0)


def test_derivative_hand_value():
    expected = np.log(1.5) + 0.5 / 1.5
    assert abs(phi_jet(YoungParams(1, 1, 0), 0.5)[1] - expected) < 1e-15


@pytest.mark.parametrize(
    "params",
    [YoungParams(1, 0, 1), YoungParams(1.7, 2.3, 0.9), YoungParams(3, 3, 3),
     YoungParams(2, 1, 0), YoungParams(1, 2, 2)],
)
def test_derivatives_match_finite_differences(params):
    t = np.geomspace(1e-3, 1e3, 400)
    h = 1e-6 * t
    (f_lo, d1_lo, _), (f_hi, d1_hi, _) = phi_jet(params, t - h), phi_jet(params, t + h)
    _, d1, d2 = phi_jet(params, t)
    fd1 = (f_hi - f_lo) / (2 * h)
    fd2 = (d1_hi - d1_lo) / (2 * h)
    scale1 = np.max(np.abs(fd1))
    scale2 = np.max(np.abs(fd2))
    assert np.max(np.abs(fd1 - d1)) <= 1e-6 * scale1
    assert np.max(np.abs(fd2 - d2)) <= 1e-6 * scale2


_RANDOM_EXPONENTS = np.random.default_rng(7).uniform(0.0, 3.0, size=2)


@pytest.mark.parametrize("q", [0.0, 0.5, 1.0, 2.0, _RANDOM_EXPONENTS[0]])
@pytest.mark.parametrize("r", [0.0, 0.5, 1.0, 2.0, _RANDOM_EXPONENTS[1]])
def test_jet_value_is_phi_bit_for_bit(q, r):
    # the solver's value-only path and the jet must not drift apart
    t = np.geomspace(1e-6, 1e6, 2000)
    for p in (1.0, 1.5, 2.0):
        params = YoungParams(p, q, r)
        assert np.array_equal(phi_jet(params, t)[0].view(np.int64),
                              phi(params, t).view(np.int64))


@pytest.mark.parametrize("pqr,t,d1,d2,digest", [
    ((1.0, 1.0, 0.0), 0.5, "0.7387984414414976", "1.1111111111111112", "19dc7f417d96ddfe"),
    ((1.7, 2.3, 0.9), 3.0, "13.188401236545898", "9.304239802182488", "5beccb04e5dd0ca9"),
    ((2.0, 0.5, 2.0), 1e-3, "1.4191197709001429e-10", "4.963022149171418e-07",
     "118b3eb0aa2a0612"),
    ((1.0, 0.0, 1.5), 1e4, "3.7654205842675705", "2.0672045026505685e-05", "1fc47d0da0d83768"),
    ((3.0, 3.0, 3.0), 7.25, "3605.307004894302", "1920.1063094048727", "9850815c690da0aa"),
])
def test_jet_derivative_bits_pinned(pqr, t, d1, d2, digest):
    # bits of the closed-form derivatives as first written, term by term: the
    # reprs at one point, and a sha256 prefix of phi' then phi'' on 64 nodes
    params = YoungParams(*pqr)
    _, got1, got2 = phi_jet(params, t)
    assert (repr(float(got1)), repr(float(got2))) == (d1, d2)
    _, g1, g2 = phi_jet(params, np.geomspace(1e-4, 1e4, 64))
    raw = np.concatenate([g1, g2]).astype("<f8").tobytes()
    assert hashlib.sha256(raw).hexdigest()[:16] == digest


@settings(max_examples=60, deadline=None)
@given(st.floats(1e-9, 20.0), st.floats(1e-9, 20.0))
def test_monotone_in_t(s, t):
    params = YoungParams(1.5, 1.0, 0.5)
    lo, hi = min(s, t), max(s, t)
    if hi > lo * (1 + 1e-12):
        assert phi(params, lo) < phi(params, hi)


@settings(max_examples=60, deadline=None)
@given(st.floats(1e-3, 50.0), st.floats(1e-3, 50.0))
def test_chord_convexity(s, t):
    params = YoungParams(1, 2, 1)
    mid = phi(params, (s + t) / 2)
    avg = (phi(params, s) + phi(params, t)) / 2
    assert mid <= avg * (1 + 1e-12)
    if abs(s - t) > 1e-6:
        assert mid < avg


def test_doubling_pointwise_bound():
    params = YoungParams(1.5, 2.0, 1.0)
    t = np.geomspace(1e-8, 1e8, 5000)
    K = 2.0 ** (params.p + params.q + params.r)
    assert np.all(phi(params, 2 * t) <= K * phi(params, t) * (1 + 1e-12))


def test_delta2_values():
    grid = log_grid()
    assert abs(delta2_constant(YoungParams(1), grid) - 2.0) < 1e-12
    assert abs(delta2_constant(YoungParams(2), grid) - 4.0) < 1e-12
    # (1,1,0): sup over (0, 1e6] is <= 4, approached near t -> 0; tends to 2 at
    # large t
    g2 = WeightedMeasure(np.geomspace(1e-8, 1e6, 4000), np.ones(4000))
    K = delta2_constant(YoungParams(1, 1, 0), g2)
    assert K <= 4.0 + 1e-9
    big = phi(YoungParams(1, 1, 0), 2e6) / phi(YoungParams(1, 1, 0), 1e6)
    assert abs(big - 2.0) < 0.2


def test_delta2_failure_demo_exponential():
    # e^t - 1 is not doubling: the ratio (e^{2t}-1)/(e^t-1) is unbounded
    t = np.linspace(1.0, 50.0, 100)
    ratio = np.expm1(2 * t) / np.expm1(t)
    assert ratio[-1] > 1e20


def test_convexity_report_positive():
    rep = check_strict_convexity(YoungParams(1, 1, 0), log_grid(1e-6, 100.0))
    assert rep.ok and rep.min_d2 > 0 and rep.violations == 0


def test_convexity_degenerate():
    with pytest.raises(DegenerateParams):
        check_strict_convexity(YoungParams(1), log_grid())


def test_composed_convexity():
    rep = check_strict_convexity(YoungParams(1, 2, 1), log_grid())
    assert rep.min_compose_d2 is not None and rep.min_compose_d2 > 0


def test_composed_skipped_when_no_logs():
    rep = check_strict_convexity(YoungParams(2), log_grid())
    assert rep.min_compose_d2 is None and rep.ok


def test_compose_d2_matches_finite_differences():
    params = YoungParams(2.5, 1.5, 0.5)
    t = np.geomspace(1e-2, 1e2, 200)
    h = 1e-5 * t

    def psi(x):
        return phi(params, x ** (1 / params.p))

    fd2 = (psi(t + h) - 2 * psi(t) + psi(t - h)) / h**2
    exact = phi_compose_d2(params, t)
    assert np.max(np.abs(fd2 - exact)) <= 1e-4 * np.max(np.abs(exact))
