import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rarepath import (IntensityFn, InvalidArgument, InvalidIntensity, JumpPath,
                      RngStream, continuous_exponential,
                      counting_density, cpp_intensity_density,
                      importance_estimate, simulate_brownian)
from rarepath.densities import DensityAccumulator


def _unit_poisson_path(times, horizon):
    times = np.asarray(times, dtype=float)
    return JumpPath(x0=[0.0], jump_times=times,
                    marks=np.ones((len(times), 1)), horizon=horizon)


# ---------------------------------------------------------------------------
# drift exponential


def test_exponential_zero_drift_is_one():
    w = simulate_brownian(RngStream(1), 1, 0.01, 1.0)
    acc = continuous_exponential(w, np.zeros_like(w.values))
    assert acc.log_m == 0.0
    assert acc.m == 1.0


def test_exponential_constant_drift_closed_form():
    w = simulate_brownian(RngStream(2), 1, 0.25, 2.0)
    m = 1.7
    acc = continuous_exponential(w, np.full_like(w.values, m))
    expected = m * w.values[-1] - 0.5 * m * m * 2.0
    assert acc.log_m == pytest.approx(expected, abs=1e-12)
    assert acc.log_stochastic_part == pytest.approx(m * w.values[-1], abs=1e-12)


def test_exponential_grid_mismatch():
    w = simulate_brownian(RngStream(2), 1, 0.25, 2.0)
    with pytest.raises(InvalidArgument):
        continuous_exponential(w, np.zeros(len(w.values) - 1))


def test_exponential_vector_drift():
    w = simulate_brownian(RngStream(9), 3, 0.5, 1.0)
    mu = np.ones_like(w.values)
    acc = continuous_exponential(w, mu)
    dw = np.diff(w.values, axis=0)
    assert acc.log_stochastic_part == pytest.approx(float(dw.sum()), abs=1e-12)
    assert acc.log_compensator_part == pytest.approx(-0.5 * 3.0 * 1.0, abs=1e-12)


def test_exponential_law_and_unit_mean():
    # constant drift: log M(t) is Gaussian with mean -m^2 t/2, var m^2 t,
    # and the density has unit expectation
    m, t, n = 1.5, 1.0, 20000
    z = RngStream(77).generator().standard_normal(n)
    logm = m * math.sqrt(t) * z - 0.5 * m * m * t
    # pin the vectorized law to the accumulator on a few explicit paths
    for k in range(5):
        w = simulate_brownian(RngStream(78, k), 1, 0.125, t)
        acc = continuous_exponential(w, np.full_like(w.values, m))
        assert acc.log_m == pytest.approx(m * w.values[-1] - 0.5 * m * m * t,
                                          abs=1e-12)
    assert abs(logm.mean() + 0.5 * m * m * t) < 3.0 * logm.std() / math.sqrt(n)
    assert abs(logm.var() - m * m * t) < 3.0 * m * m * t * math.sqrt(2.0 / n)
    vals = np.exp(logm)
    assert abs(vals.mean() - 1.0) < 3.0 * vals.std() / math.sqrt(n)


# ---------------------------------------------------------------------------
# counting-process density


def test_counting_zero_exponent():
    path = _unit_poisson_path([0.3, 0.9], 2.0)
    acc = counting_density(path, lambda t: t, lambda s: 0.0, 1.5, u_bound=1.0)
    assert acc.log_m == pytest.approx(0.0, abs=1e-9)


def test_counting_constant_u_closed_form():
    c, t, k = 0.8, 1.4, 3
    path = _unit_poisson_path([0.2, 0.5, 1.1], 2.0)
    acc = counting_density(path, lambda s: s, lambda s: c, t, u_bound=1.0)
    expected = -c * k - (math.exp(-c) - 1.0) * t
    assert acc.log_m == pytest.approx(expected, abs=1e-8)
    assert acc.log_stochastic_part == pytest.approx(-c * k, abs=1e-12)


def test_counting_poisson_series_identity():
    # E[exp(-c L(t))] = exp(t (e^{-c} - 1)) by direct series summation
    c, t = 0.5, 1.0
    series = sum(math.exp(-t) * t ** k / math.factorial(k) * math.exp(-c * k)
                 for k in range(60))
    assert series == pytest.approx(math.exp(t * (math.exp(-c) - 1.0)), abs=1e-12)


def test_counting_unit_mean_small_scale():
    c, t, n = 0.5, 1.0, 50000
    k = RngStream(55).generator().poisson(t, size=n)
    vals = np.exp(-c * k - (math.exp(-c) - 1.0) * t)
    # vectorized form pinned against the accumulator
    path = _unit_poisson_path([0.4, 0.8], 2.0)
    acc = counting_density(path, lambda s: s, lambda s: c, t, u_bound=1.0)
    assert acc.log_m == pytest.approx(-c * 2 - (math.exp(-c) - 1.0) * t, abs=1e-8)
    assert abs(vals.mean() - 1.0) < 3.0 * vals.std() / math.sqrt(n)


def test_counting_bound_enforced():
    path = _unit_poisson_path([0.3], 1.0)
    with pytest.raises(InvalidArgument):
        counting_density(path, lambda t: t, lambda s: 2.0, 1.0, u_bound=1.0)
    with pytest.raises(InvalidArgument):
        counting_density(path, lambda t: t, lambda s: 0.1, 1.0, u_bound=-1.0)
    # a bound of NaN or inf would let any u through
    for bound in (math.nan, math.inf):
        with pytest.raises(InvalidArgument):
            counting_density(path, lambda t: t, lambda s: 5.0, 1.0, u_bound=bound)


def test_counting_requires_unit_marks():
    path = JumpPath(x0=[0.0], jump_times=[0.5], marks=[[2.0]], horizon=1.0)
    with pytest.raises(InvalidArgument):
        counting_density(path, lambda t: t, lambda s: 0.1, 1.0, u_bound=1.0)


# ---------------------------------------------------------------------------
# intensity-change density


def test_cpp_density_equal_intensities():
    path = _unit_poisson_path([0.2, 0.7], 1.5)
    g = IntensityFn.state_dependent(lambda y: 1.0 + abs(y))
    for mode in ("jump", "compensated"):
        acc = cpp_intensity_density(path, g, g, 1.0, mode=mode)
        assert acc.log_m == pytest.approx(0.0, abs=1e-12)


def test_cpp_density_two_jump_example():
    path = _unit_poisson_path([0.25, 0.75], 1.5)
    g1 = IntensityFn.state_dependent(lambda y: 1.0)
    g2 = IntensityFn.state_dependent(lambda y: 2.0)
    acc = cpp_intensity_density(path, g1, g2, 1.0, mode="jump")
    assert acc.m == pytest.approx(4.0 * math.exp(-1.0), abs=1e-12)


def test_cpp_density_mode_gap_exact():
    # the compensated-integrator log-density differs by the integral of
    # (log g2 - log g1) g1
    path = _unit_poisson_path([0.25, 0.75], 1.5)
    g1 = IntensityFn.state_dependent(lambda y: 1.0)
    g2 = IntensityFn.state_dependent(lambda y: 2.0)
    t = 1.2
    brem = cpp_intensity_density(path, g1, g2, t, mode="jump")
    lit = cpp_intensity_density(path, g1, g2, t, mode="compensated")
    assert lit.log_m - brem.log_m == pytest.approx(-math.log(2.0) * t, abs=1e-12)
    assert lit.log_compensator_part == brem.log_compensator_part


def test_cpp_density_state_dependent_components():
    # jump at 0.4 takes the state 0 -> 1, so g evaluates to the pre-jump value
    path = JumpPath(x0=[0.0], jump_times=[0.4], marks=[[1.0]], horizon=1.0)
    g1 = IntensityFn.state_dependent(lambda y: 1.0 + abs(y))
    g2 = IntensityFn.state_dependent(lambda y: 2.0 + abs(y))
    acc = cpp_intensity_density(path, g1, g2, 1.0, mode="jump")
    stoch = math.log(2.0) - math.log(1.0)
    comp = -((2.0 - 1.0) * 0.4 + (3.0 - 2.0) * 0.6)
    assert acc.log_stochastic_part == pytest.approx(stoch, abs=1e-12)
    assert acc.log_compensator_part == pytest.approx(comp, abs=1e-12)


def test_cpp_density_unit_mean_small_scale():
    t, n = 1.0, 50000
    k = RngStream(66).generator().poisson(t, size=n)
    vals = np.exp(k * math.log(2.0) - t)
    assert abs(vals.mean() - 1.0) < 3.0 * vals.std() / math.sqrt(n)
    # the compensated mode at these intensities scales by 2^{-t} and fails unity
    lit = vals * 2.0 ** (-t)
    assert (1.0 - lit.mean()) > 5.0 * lit.std() / math.sqrt(n)


def test_cpp_density_rejects_nonpositive_intensity():
    path = _unit_poisson_path([0.5], 1.0)
    g1 = IntensityFn.state_dependent(lambda y: 0.0)
    g2 = IntensityFn.state_dependent(lambda y: 1.0)
    with pytest.raises(Exception):
        cpp_intensity_density(path, g1, g2, 1.0)


def test_cpp_density_time_dependent_closed_form():
    # g1 = 1 + s, g2 = 2 + s: the compensator part is -t and the
    # compensated mode subtracts int_0^t (1 + s) log((2 + s)/(1 + s)) ds
    path = _unit_poisson_path([0.3, 0.6], 1.5)
    g1 = IntensityFn.deterministic(lambda s: 1.0 + s)
    g2 = IntensityFn.deterministic(lambda s: 2.0 + s)
    t = 1.2

    def antiderivative(s):
        u, v = 1.0 + s, 2.0 + s  # int (v - 1) log v dv - int u log u du
        return (v * v / 2 - v) * math.log(v) - v * v / 4 + v \
            - (u * u / 2 * math.log(u) - u * u / 4)

    stoch = math.log(2.3 / 1.3) + math.log(2.6 / 1.6)
    extra = antiderivative(t) - antiderivative(0.0)
    jump = cpp_intensity_density(path, g1, g2, t, mode="jump")
    comp = cpp_intensity_density(path, g1, g2, t, mode="compensated")
    assert jump.log_stochastic_part == pytest.approx(stoch, abs=1e-12)
    assert jump.log_compensator_part == pytest.approx(-t, abs=1e-9)
    assert comp.log_stochastic_part == pytest.approx(stoch - extra, abs=1e-9)
    assert comp.log_compensator_part == jump.log_compensator_part


@pytest.mark.parametrize("mode", ["jump", "compensated"])
def test_cpp_density_nonpositive_rate_without_jumps(mode):
    # no jump is ever evaluated: the integral itself must reject the rate
    path = _unit_poisson_path([], 1.0)
    g1 = IntensityFn.state_dependent(lambda y: 0.0)
    g2 = IntensityFn.state_dependent(lambda y: 1.0)
    with pytest.raises(InvalidIntensity):
        cpp_intensity_density(path, g1, g2, 1.0, mode=mode)


# ---------------------------------------------------------------------------
# accumulator invariants and the weighted estimator


@given(st.floats(-5, 5), st.floats(-5, 5), st.floats(0.1, 10))
@settings(max_examples=50, deadline=None)
def test_accumulator_split_adds_up(a, b, t):
    acc = DensityAccumulator(log_stochastic_part=a, log_compensator_part=b, t=t)
    assert acc.log_m == a + b


def test_importance_equal_weights_is_plain_mean():
    rep = importance_estimate(payoffs=np.array([1.0, 2.0, 6.0]),
                              log_weights=np.zeros(3))
    assert rep.estimate == pytest.approx(3.0, abs=1e-12)
    assert rep.ess == pytest.approx(3.0, abs=1e-12)


def test_importance_dominant_weight_degenerates():
    lw = np.array([0.0, -700.0, -700.0])
    rep = importance_estimate(payoffs=np.array([5.0, 1.0, 1.0]), log_weights=lw)
    assert rep.ess == pytest.approx(1.0, abs=1e-6)
    assert rep.estimate == pytest.approx(5.0, abs=1e-6)
    assert rep.extras["top1_weight_share"] == pytest.approx(1.0, abs=1e-6)


def test_importance_hand_arithmetic():
    rep = importance_estimate(payoffs=np.array([1.0, 2.0, 3.0]),
                              log_weights=np.log([1.0, 1.0, 2.0]))
    assert rep.estimate == pytest.approx(9.0 / 4.0, abs=1e-12)
    assert rep.n_samples == 3


def test_importance_single_sample_sentinel():
    rep = importance_estimate(payoffs=np.array([2.0]), log_weights=np.array([0.3]))
    assert rep.stderr == math.inf
    assert rep.ess == pytest.approx(1.0)


def test_importance_constant_payoff_exact():
    lw = RngStream(4).generator().standard_normal(100)
    rep = importance_estimate(payoffs=np.ones(100), log_weights=lw)
    assert rep.estimate == 1.0
    assert rep.stderr == 0.0


def test_importance_rejects_bad_input():
    with pytest.raises(InvalidArgument):
        importance_estimate(payoffs=np.array([]), log_weights=np.array([]))
    with pytest.raises(InvalidArgument):
        importance_estimate(payoffs=np.array([1.0]),
                            log_weights=np.array([math.inf]))


def test_importance_non_normalized_mode():
    lw = np.log(np.array([0.5, 1.5]))
    rep = importance_estimate(payoffs=np.array([2.0, 4.0]), log_weights=lw,
                              self_normalized=False)
    assert rep.estimate == pytest.approx((0.5 * 2 + 1.5 * 4) / 2, abs=1e-12)


@given(st.lists(st.floats(-3, 3), min_size=2, max_size=40))
@settings(max_examples=60, deadline=None)
def test_importance_ess_bounds(lws):
    lw = np.asarray(lws)
    rep = importance_estimate(payoffs=np.zeros(lw.size), log_weights=lw)
    assert 0.0 < rep.ess <= lw.size + 1e-9
