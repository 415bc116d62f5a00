import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import special

from rarepath import (ContinuousPath, Hit, InvalidArgument, LevelNeverReached,
                      RngStream, _native, ou_scale_ratio, path_integral_square,
                      reversed_last_excursion, simulate_brownian)
from rarepath.paths import (_SCALE_LOG_AT_INT, StoppedSegment, _scale_log,
                            crossing_fraction, ou_scale_ratio_log)

# frozen by independent quadrature of the chi density with 3 degrees of
# freedom: mean = 2*sqrt(2/pi)
CHI3_MEAN = 1.5957691216057308


def test_brownian_increment_moments():
    # one long unit-step path gives 1e5 iid standard increments
    path = simulate_brownian(RngStream(42), dim=1, step=1.0, horizon=1e5)
    inc = np.diff(path.values)
    n = inc.size
    assert abs(inc.mean()) < 3.0 / math.sqrt(n)
    assert abs(inc.var() - 1.0) < 3.0 * math.sqrt(2.0 / n)


def test_brownian_dim3_norm_mean():
    path = simulate_brownian(RngStream(7), dim=3, step=1.0, horizon=1e5)
    inc = np.diff(path.values, axis=0)
    norms = np.linalg.norm(inc, axis=1)
    se = norms.std() / math.sqrt(norms.size)
    assert abs(norms.mean() - CHI3_MEAN) < 3.0 * se


def test_brownian_determinism_and_start():
    a = simulate_brownian(RngStream(3, 5), dim=2, step=0.5, horizon=8.0)
    b = simulate_brownian(RngStream(3, 5), dim=2, step=0.5, horizon=8.0)
    assert np.array_equal(a.values, b.values)
    assert np.all(a.values[0] == 0.0)


def test_brownian_invalid_args():
    with pytest.raises(InvalidArgument):
        simulate_brownian(RngStream(1), dim=0, step=0.1, horizon=1.0)
    with pytest.raises(InvalidArgument):
        simulate_brownian(RngStream(1), dim=1, step=-0.1, horizon=1.0)
    with pytest.raises(InvalidArgument):
        simulate_brownian(RngStream(1), dim=1, step=1.0, horizon=0.5)
    # the last pair is finite, but horizon / step overflows
    for step, horizon in [(math.nan, 1.0), (0.1, math.nan), (0.1, math.inf),
                          (math.inf, math.inf), (1e-300, 1e10)]:
        with pytest.raises(InvalidArgument):
            simulate_brownian(RngStream(1), dim=1, step=step, horizon=horizon)


def test_reversed_last_excursion_single_crossing():
    vals = np.array([2.0, 1.75, 1.5, 1.25, 0.75, 0.25, -0.05])
    seg = StoppedSegment(ContinuousPath(step=0.5, values=vals), 6, Hit.LOWER,
                         2.9)
    exc = reversed_last_excursion(seg, 1.0)
    # last crossing of 1 is between indices 3 and 4
    assert np.array_equal(exc.segment.values, vals[4::-1])
    assert 1.5 < exc.origin_time < 2.0
    # involution: reversing the returned values recovers the prefix
    assert np.array_equal(exc.segment.values[::-1], vals[: 5])


def test_reversed_last_excursion_level_missing():
    vals = np.array([2.0, 1.9, 1.8, -0.1])
    seg = StoppedSegment(ContinuousPath(step=0.5, values=vals), 3, Hit.LOWER, 1.4)
    with pytest.raises(LevelNeverReached):
        reversed_last_excursion(seg, 5.0)


def test_reversed_last_excursion_tie_goes_late():
    vals = np.array([2.0, 1.0, 1.5, 1.0, 0.5, -0.1])
    seg = StoppedSegment(ContinuousPath(step=1.0, values=vals), 5, Hit.LOWER, 4.9)
    exc = reversed_last_excursion(seg, 1.0)
    assert exc.origin_time == 3.0  # exact grid hit at the later index
    assert exc.segment.values[0] == 1.0


def test_path_integral_square_constant_and_trapezoid():
    c = ContinuousPath(step=0.25, values=np.full(9, 3.0))
    assert path_integral_square(c, 2.0) == pytest.approx(9.0 * 2.0, abs=1e-12)
    lin = ContinuousPath(step=0.5, values=np.array([0.0, 0.5, 1.0]))
    assert path_integral_square(lin, 1.0) == pytest.approx(0.375, abs=1e-15)
    for stop_time in (1.5, math.nan, math.inf):
        with pytest.raises(InvalidArgument):
            path_integral_square(lin, stop_time)


def test_path_integral_square_partial_cell():
    lin = ContinuousPath(step=0.5, values=np.array([0.0, 0.5, 1.0]))
    # stop inside the second cell: trapezoid of t^2-approx with interp value
    val = path_integral_square(lin, 0.75)
    v_stop = 0.75
    expected = 0.5 * (0.0 + 0.25) * 0.5 + 0.5 * (0.25 + v_stop ** 2) * 0.25
    assert val == pytest.approx(expected, abs=1e-15)


def test_path_integral_refinement_study():
    # halving the step changes the value by O(step) on a Brownian path
    fine = simulate_brownian(RngStream(21), 1, 1.0 / 512, 1.0)
    coarse = ContinuousPath(step=1.0 / 256, values=fine.values[::2].copy())
    finer = path_integral_square(fine, 1.0)
    coarser = path_integral_square(coarse, 1.0)
    assert abs(finer - coarser) < 0.05


@given(st.floats(min_value=0.05, max_value=0.95))
@settings(max_examples=20, deadline=None)
def test_quadrature_monotone_in_stop_time(frac):
    path = simulate_brownian(RngStream(31), 1, 1.0 / 128, 1.0)
    t1 = frac * path.duration
    t2 = min(t1 + 0.1, path.duration)
    assert path_integral_square(path, t1) <= path_integral_square(path, t2) + 1e-15


def test_scale_ratio_endpoints_and_value():
    assert ou_scale_ratio(2.0, 2.0) == 1.0
    assert ou_scale_ratio(0.0, 2.0) == 0.0
    # recomputed by separate quadrature before freezing
    assert ou_scale_ratio(1.0, 2.0) == pytest.approx(0.0889007985, abs=1e-9)
    assert ou_scale_ratio(1.0, 3.0) == pytest.approx(1.0125344807e-3, rel=1e-8)
    with pytest.raises(InvalidArgument):
        ou_scale_ratio(-0.1, 2.0)
    with pytest.raises(InvalidArgument):
        ou_scale_ratio(2.5, 2.0)


@pytest.mark.parametrize("x,level", [(1.0, math.nan), (math.nan, 2.0), (0.0, math.nan),
                                     (math.inf, math.inf), (1.0, math.inf)])
def test_scale_ratio_rejects_non_finite_arguments(x, level):
    # before the endpoint shortcuts, which would answer 1.0 or 0.0
    with pytest.raises(InvalidArgument):
        ou_scale_ratio(x, level)
    with pytest.raises(InvalidArgument):
        ou_scale_ratio_log(x, level)


def _scale_log_quad(y):
    """Independent reference for the scale function's log: integral_0^y
    exp(u^2) du by quadrature, overflow-free, good up to y = 100."""
    from scipy import integrate

    # substitute v = y - u:  integral = exp(y^2) * int_0^y exp(-v(2y - v)) dv
    g, _ = integrate.quad(lambda v: math.exp(-v * (2.0 * y - v)), 0.0, y,
                          epsabs=1e-14, epsrel=1e-12, limit=200)
    return y * y + math.log(g)


def test_scale_log_table_is_the_closed_form():
    assert sorted(_SCALE_LOG_AT_INT) == list(range(1, 28))
    for k, tabled in _SCALE_LOG_AT_INT.items():
        assert tabled == k * k + math.log(special.dawsn(float(k))), k


@pytest.mark.parametrize("y", [1e-3, 0.1, 0.5, 1.5, 7.3, 27.5, 28.0, 50.0, 100.0])
def test_scale_log_off_table_matches_quadrature(y):
    assert _scale_log(y) == pytest.approx(_scale_log_quad(y), rel=1e-12)


@pytest.mark.parametrize("level", range(2, 31))
def test_scale_ratio_at_integer_levels_matches_quadrature(level):
    # 28..30 fall through the table to the closed form
    log_ratio = ou_scale_ratio_log(1.0, float(level))
    assert log_ratio == pytest.approx(_scale_log_quad(1.0) - _scale_log_quad(float(level)),
                                      rel=1e-12)
    assert ou_scale_ratio(1.0, float(level)) == (math.exp(log_ratio) if log_ratio > -745.0
                                                 else 0.0)
    assert (ou_scale_ratio(1.0, float(level)) == 0.0) == (level >= 28)


# log s(1) - log s(N) for the scale density exp(u^2), frozen from mpmath at
# 40 digits; quadrature is off by tens of nats here, or fails outright
@pytest.mark.parametrize("level,want", [(122, -14878.122614318023),
                                        (150, -22493.915988696175),
                                        (200, -39993.62829690066),
                                        (1000, -999992.0188469879)])
def test_scale_ratio_log_at_high_levels(level, want):
    assert ou_scale_ratio_log(1.0, float(level)) == pytest.approx(want, rel=1e-13)


@given(st.floats(min_value=1.2, max_value=20.0), st.floats(min_value=0.05, max_value=4.0))
@settings(max_examples=25, deadline=None)
def test_scale_ratio_strictly_decreasing_in_level(level, gap):
    x = 1.0
    lo = max(level, x + 1e-6)
    hi = lo + gap
    assert ou_scale_ratio_log(x, hi) < ou_scale_ratio_log(x, lo)


def test_continuous_path_validation():
    for step in (0.0, math.nan, math.inf):
        with pytest.raises(InvalidArgument):
            ContinuousPath(step=step, values=np.array([1.0]))
    with pytest.raises(InvalidArgument):
        ContinuousPath(step=0.1, values=np.zeros((3, 2)), dim=3)
    p = ContinuousPath(step=0.5, values=np.arange(4.0))
    assert p.duration == 1.5
    assert np.array_equal(p.times, [0.0, 0.5, 1.0, 1.5])


_distance = st.floats(min_value=-50.0, max_value=50.0)


# every value Generator.random can draw: multiples of 2**-53 in [0, 1)
_uniform = st.integers(min_value=0, max_value=2 ** 53 - 1).map(lambda k: k * 2.0 ** -53)


def _family_coin(d_a, r, eps, step, u):
    """``frozen`` and the new distance after one compiled ``family_step`` of
    one lane and one member, not frozen before, whose position stays at
    radius ``r`` (z = 0) and whose distance to ``eps`` was ``d_a``."""
    pos = np.array([r, 0.0, 0.0])
    d, frozen = np.array([d_a]), np.zeros(1, dtype=bool)
    buffers = (np.array([eps]), np.zeros(3), np.array([u]), pos, d, frozen)
    _native.kernels().family_step(1, 1, step, math.sqrt(step),
                                  *map(_native.address, buffers))
    assert pos.tolist() == [r, 0.0, 0.0]
    return bool(frozen[0]), float(d[0])


@given(_distance, st.floats(min_value=0.0, max_value=50.0),
       st.floats(min_value=1e-3, max_value=1.0),
       st.floats(min_value=1e-5, max_value=1.0), _uniform)
# a zero draw against exponents -720 (exp subnormal), -745 (exp the least
# subnormal) and -746 and -800 (exp underflows to 0)
@example(1.0, 360.5, 0.5, 1.0, 0.0)
@example(1.0, 373.0, 0.5, 1.0, 0.0)
@example(1.0, 373.5, 0.5, 1.0, 0.0)
@example(1.0, 400.5, 0.5, 1.0, 0.0)
@example(1.0, 360.5, 0.5, 1.0, 2.0 ** -53)
# on the barrier and inside it, against the largest draw
@example(0.25, 0.5, 0.5, 1e-3, 1.0 - 2.0 ** -53)
@example(0.25, 0.25, 0.5, 1e-3, 1.0 - 2.0 ** -53)
@settings(max_examples=300, deadline=None)
def test_family_step_bridge_coin(d_a, r, eps, step, u):
    frozen, d_b = _family_coin(d_a, r, eps, step, u)
    assert d_b == math.sqrt(r * r) - eps
    if d_b <= 0.0 or d_a * d_b <= 0.0:
        assert frozen
    else:
        assert frozen == (u < math.exp(-2.0 * d_a * d_b / step))


def _fraction(a, b, barrier, grid=True):
    return crossing_fraction(np.array([a]), np.array([b]), barrier,
                             np.array([grid]))[0]


_coord = st.floats(min_value=-1e6, max_value=1e6)
_gap = st.floats(min_value=0.0, max_value=1e6)
_positive_gap = st.floats(min_value=5e-324, max_value=1e6)


# crossing_fraction is bit-equal to each per-site formula it replaced


@given(_positive_gap, _gap)
@settings(max_examples=200, deadline=None)
def test_crossing_fraction_hit_of_zero(fp, depth):
    fn = -depth  # an alive value above 0 steps to or below 0
    assert _fraction(fp, fn, 0.0) == fp / (fp - fn)


@given(st.integers(min_value=2, max_value=50), st.floats(0.0, 1.0), _gap)
@settings(max_examples=200, deadline=None)
def test_crossing_fraction_upper_level(level, where, over):
    N = float(level)
    fp, fn = where * N, N + over
    assume(0.0 < fp < N)
    assert _fraction(fp, fn, N) == (N - fp) / (fn - fp)


@given(_coord, st.one_of(st.just(1.0), _coord))
@settings(max_examples=300, deadline=None)
def test_crossing_fraction_level_one(fp, fn):
    assume((fp - 1.0) * (fn - 1.0) < 0.0 or fn == 1.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        want = np.where(fn == 1.0, 1.0, (1.0 - fp) / np.float64(fn - fp))
    assert _fraction(fp, fn, 1.0) == want


@given(st.floats(min_value=1.0, max_value=1e6, exclude_min=True), _gap)
@settings(max_examples=200, deadline=None)
def test_crossing_fraction_level_one_in_the_final_cell(fp, depth):
    fn = -depth
    assert _fraction(fp, fn, 1.0) == (fp - 1.0) / max(fp - fn, 1e-300)


@given(_coord, _positive_gap, _gap)
@settings(max_examples=200, deadline=None)
def test_crossing_fraction_lower_barrier(lower, above, below):
    xprev, xs = lower + above, lower - below
    assume(xprev > lower >= xs)
    assert _fraction(xprev, xs, lower) == (xprev - lower) / (xprev - xs)


@given(_coord, _coord, _coord)
@settings(max_examples=300, deadline=None)
def test_crossing_fraction_range_and_special_values(a, b, barrier):
    assert _fraction(a, b, barrier, grid=False) == 0.5
    assert _fraction(a, barrier, barrier) == 1.0
    if (a - barrier) * (b - barrier) <= 0.0 and a != b:
        assert 0.0 <= _fraction(a, b, barrier) <= 1.0


def test_crossing_fraction_subnormal_step_is_silent():
    # (1 - 0)/5e-324 overflows to inf before the clip returns 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert crossing_fraction(np.array([0.0]), np.array([5e-324]), 1.0,
                                 np.array([True]))[0] == 1.0
