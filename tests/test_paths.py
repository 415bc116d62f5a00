import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rarepath import (ContinuousPath, Hit, InvalidArgument, LevelNeverReached,
                      RngStream, ou_scale_ratio, path_integral_square,
                      reversed_last_excursion, simulate_bessel3_complement,
                      simulate_brownian, simulate_ou_stopped)
from rarepath.paths import (StoppedSegment, bridge_touch_probability,
                            ou_scale_ratio_log)

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


def test_ou_boundary_starts():
    seg = simulate_ou_stopped(RngStream(1), 2.0, 1e-3, 0.0, 2.0)
    assert seg.hit is Hit.UPPER and seg.stop_index == 0
    seg = simulate_ou_stopped(RngStream(1), 0.0, 1e-3, 0.0, 2.0)
    assert seg.hit is Hit.LOWER and seg.stop_index == 0


def test_ou_outside_barriers_rejected():
    with pytest.raises(InvalidArgument):
        simulate_ou_stopped(RngStream(1), 3.0, 1e-3, 0.0, 2.0)


def test_ou_barrier_correctness_and_determinism():
    for k in range(20):
        seg = simulate_ou_stopped(RngStream(100, k), 1.0, 2e-3, 0.0, 2.0)
        v = seg.path.values
        assert seg.hit in (Hit.LOWER, Hit.UPPER)
        inner = v[: seg.stop_index]
        assert np.all(inner > 0.0) and np.all(inner < 2.0)
        lo = (seg.stop_index - 1) * seg.path.step
        assert lo <= seg.stop_time_refined <= lo + seg.path.step
    a = simulate_ou_stopped(RngStream(5, 9), 1.0, 1e-3, 0.0, 2.0)
    b = simulate_ou_stopped(RngStream(5, 9), 1.0, 1e-3, 0.0, 2.0)
    assert np.array_equal(a.path.values, b.path.values)
    assert a.stop_time_refined == b.stop_time_refined


def test_ou_hitting_fraction_scalar_smoke():
    # modest replica count; the Monte Carlo engines cover the tight band
    hits = 0
    n = 400
    for k in range(n):
        seg = simulate_ou_stopped(RngStream(2024, k), 1.0, 2e-3, 0.0, 2.0,
                                  detection="bridge")
        hits += seg.hit is Hit.UPPER
    p = ou_scale_ratio(1.0, 2.0)
    se = math.sqrt(p * (1 - p) / n)
    assert abs(hits / n - p) < 4.0 * se + 0.25 * math.sqrt(2e-3)


def test_bessel_starts_exactly_and_terminates():
    for k in range(50):
        seg = simulate_bessel3_complement(RngStream(11, k), 2.0, 2e-3)
        assert seg.path.values[0] == 2.0
        assert seg.hit is Hit.LOWER
        assert seg.path.values[seg.stop_index] <= 0.0 or (
            seg.path.values[seg.stop_index] == 0.0)


def test_bessel_second_moment():
    # |B(t)|^2 has mean 3t; read it off one path's increments at t = 1
    t = 1.0
    n = 20000
    acc = []
    g = RngStream(8).generator()
    b = g.standard_normal((n, 3))
    acc = (b * b).sum(axis=1) * t
    se = acc.std() / math.sqrt(n)
    assert abs(acc.mean() - 3.0 * t) < 3.0 * se


def test_bessel_expiry_flag_without_extension():
    seg = simulate_bessel3_complement(RngStream(1), 5.0, 1e-3, horizon=0.01,
                                      extend=False)
    assert seg.hit is Hit.EXPIRED


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
    with pytest.raises(InvalidArgument):
        path_integral_square(lin, 1.5)


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


@given(st.floats(min_value=1.2, max_value=20.0), st.floats(min_value=0.05, max_value=4.0))
@settings(max_examples=25, deadline=None)
def test_scale_ratio_strictly_decreasing_in_level(level, gap):
    x = 1.0
    lo = max(level, x + 1e-6)
    hi = lo + gap
    assert ou_scale_ratio_log(x, hi) < ou_scale_ratio_log(x, lo)


def test_continuous_path_validation():
    with pytest.raises(InvalidArgument):
        ContinuousPath(step=0.0, values=np.array([1.0]))
    with pytest.raises(InvalidArgument):
        ContinuousPath(step=0.1, values=np.zeros((3, 2)), dim=3)
    p = ContinuousPath(step=0.5, values=np.arange(4.0))
    assert p.duration == 1.5
    assert np.array_equal(p.times, [0.0, 0.5, 1.0, 1.5])


_distance = st.floats(min_value=-50.0, max_value=50.0)


@given(_distance, _distance, _distance, _distance,
       st.floats(min_value=1e-5, max_value=1.0),
       st.floats(min_value=2.0 ** -53, max_value=1.0, exclude_max=True))
@settings(max_examples=300, deadline=None)
def test_bridge_touch_probability_properties(da, db, dc, dd, step, u):
    def touch(a, b, draw):
        return bridge_touch_probability(np.array([a]), np.array([b]), step,
                                        np.array([draw]))[0]

    p, q = touch(da, db, u), touch(dc, dd, u)
    assert p == touch(db, da, u)
    if da * db <= 0.0:
        assert p == 1.0 and touch(da, db, 0.0) == 1.0
    with np.errstate(over="ignore"):
        p_ref = np.exp(-2.0 * da * db / step)
        q_ref = np.exp(-2.0 * dc * dd / step)
    # the clip at -700 changes no comparison with a nonzero draw, alone or
    # in the shared-uniform sum of the two-barrier coin
    assert (u < p) == (u < p_ref)
    assert (u < p + q) == (u < p_ref + q_ref)
    if da * db > 0.0:
        assert touch(da, db, 0.0) == p_ref  # a zero draw turns the clip off
