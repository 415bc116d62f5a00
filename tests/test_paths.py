import hashlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import special

from rarepath import (ContinuousPath, Hit, InvalidArgument, LevelNeverReached,
                      RngStream, ou_scale_ratio, path_integral_square,
                      reversed_last_excursion, simulate_bessel3_complement,
                      simulate_brownian, simulate_ou_stopped)
from rarepath.paths import (_SCALE_LOG_AT_INT, StoppedSegment, _scale_log,
                            bridge_touch_probability, crossing_fraction,
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
    seg = simulate_bessel3_complement(RngStream(1), 5.0, 1e-3, horizon=0.01)
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


# sha256 pins of the scalar simulators' output: every value's bytes, the
# stop index, the barrier hit and the refined stop time of 16 paths
# (substreams 0..15 of the seed).  OU runs from 1 between 0 and 2, the
# radial complement from level 2.
_SIMULATOR_DIGESTS = {
    ("ou", "grid", 0.001, 1):
        "7bc925cd6c61d66e8c1d605ce089b9f20c93c6f8abf95401fa5dbcc4c2cc0f26",
    ("ou", "grid", 0.001, 2):
        "169b699c75793f1f7687a881930d43f555a3f625a927a34bdffc08c0c0603a64",
    ("ou", "grid", 0.001, 3):
        "5dad13c0e0456b012612b8ef8e367bac9d0c88255a2a0dfc1a4bb8ab7f9d2205",
    ("ou", "grid", 0.004, 1):
        "7d141af66e77983f494a99867c8d032b2339ad17a597c27595bc3a39a4dd2a5b",
    ("ou", "grid", 0.004, 2):
        "c5a4fb1883ab2e57041da0e3606961cb54fa17988784bdea75581cb9cb3ed68b",
    ("ou", "grid", 0.004, 3):
        "3bbd83d6d58c170667476ec742158dd2297fe40b183fbf93f6a21ed087070aee",
    ("ou", "bridge", 0.001, 1):
        "226b39db7454cb86f11809e755bcdba070c9158088030e24b1b7fcd7dd5c1db1",
    ("ou", "bridge", 0.001, 2):
        "75b155af5bbd8106bf839d0531d6b178c0f82977605b9656971b81262cf94669",
    ("ou", "bridge", 0.001, 3):
        "d871de3dd3e99bf285daf65f9081634bb360b5d4635f5fd55a12b30d7125fd78",
    ("ou", "bridge", 0.004, 1):
        "43a7cb22bce42b8e9385be92fab16ce8c8468b6ff82bfe90dfbfe41e520a0ac9",
    ("ou", "bridge", 0.004, 2):
        "d6e1bd949fc269005fe00a4a423880dd9a8412565a8369249c96c614f01cc8a0",
    ("ou", "bridge", 0.004, 3):
        "5ff82e68ffbb5cf4d888151be46efdf74f21d4e5669b89e9acd772e7ac91d987",
    ("bessel", "grid", 0.001, 1):
        "53c2a89f6dc16ffb6e2c2b9954cfe07391534f3215380789ccf0dd1e3c1c15fd",
    ("bessel", "grid", 0.001, 2):
        "22d5b3d7d1a4ed68668cdaccfa65aeb977d943f5d8181a44892cc5fe6cf2c4b3",
    ("bessel", "grid", 0.001, 3):
        "0c627ffbe9e2e8a19e335a03ae4d2e0881d6a1256d3e3d88cfb27a58238f3a55",
    ("bessel", "grid", 0.004, 1):
        "81405c5d8ed1d1238f62cda6b47096e3cdc4abcd8e9a864debcaca3738cc1320",
    ("bessel", "grid", 0.004, 2):
        "dd2b1a42ccb74b7a4df9c9edd9eb7d19f6d2916ce9de2ca31e976114986bf363",
    ("bessel", "grid", 0.004, 3):
        "3d164384b0bf5f75ec6243034cb787ae8b1dd43afe895cc1689dd44cd211a8fd",
    ("bessel", "bridge", 0.001, 1):
        "1675100006ebe7c22d84b76e3ea8e3b094cbaa361b4038e1a42d4cc508eb913a",
    ("bessel", "bridge", 0.001, 2):
        "10a6a6a59d0317785ab3463de6ecd884b72786561b4023432be78ee42cb0010e",
    ("bessel", "bridge", 0.001, 3):
        "028802c7d86356114c3be91795ea846718a462896cb507c7196d178e64512d12",
    ("bessel", "bridge", 0.004, 1):
        "cd93c69d95fe825eee4feac4b75578c8ce588f0d4a2ae2a70ec901ece9e08ec1",
    ("bessel", "bridge", 0.004, 2):
        "c3f359ab215b29c2f24ca13035f4513599e5189fa77d145f0795feed4633efa5",
    ("bessel", "bridge", 0.004, 3):
        "169b2fed077b7d390f8f867ab245be25b2a2d7026119c76fa62e4c24f10dab43",
}

# edge cases: expiry at a finite horizon (several blocks long) and
# OU paths started on a barrier
_SIMULATOR_EDGE_RUNS = {
    "ou-expire-grid": lambda k: simulate_ou_stopped(
        RngStream(4, k), 0.5, 1e-3, -50.0, 50.0, horizon=10.0),
    "ou-expire-bridge": lambda k: simulate_ou_stopped(
        RngStream(4, k), 0.5, 1e-3, -50.0, 50.0, horizon=10.0,
        detection="bridge"),
    "ou-expire-short-bridge": lambda k: simulate_ou_stopped(
        RngStream(5, k), 1.0, 4e-3, 0.0, 2.0, horizon=0.05,
        detection="bridge"),
    "bessel-expire-grid": lambda k: simulate_bessel3_complement(
        RngStream(4, k), 50.0, 1e-3, horizon=10.0),
    "bessel-expire-bridge": lambda k: simulate_bessel3_complement(
        RngStream(4, k), 50.0, 1e-3, horizon=10.0, detection="bridge"),
    "ou-lower-start": lambda k: simulate_ou_stopped(
        RngStream(4, k), 0.0, 1e-3, 0.0, 2.0,
        detection=("grid", "bridge")[k % 2]),
    "ou-upper-start": lambda k: simulate_ou_stopped(
        RngStream(4, k), 2.0, 1e-3, 0.0, 2.0,
        detection=("grid", "bridge")[k % 2]),
}

_SIMULATOR_EDGE_DIGESTS = {
    "ou-expire-grid":
        "f38040a656cdfaa24ba7aaeb70485a521f7ecaada7a0cb9e5c04c77b3c62c2e3",
    "ou-expire-bridge":
        "da4249bfe41603a80794bc1498fd5e2b36665c1c7334009f6caeda281d8b91f6",
    "ou-expire-short-bridge":
        "99d110138fdd5e0ce193f08ccfa89b426a3a907e864634ba4ca18e5a37bbb05d",
    "bessel-expire-grid":
        "1f711854c1da1936efd24c0c6d9aaa04648cf0b549976ee0cd58ae696461ec8b",
    "bessel-expire-bridge":
        "8b0561f021c2607ea6d65b07929638c19f5e30dba9c8441a7eba4c8a9ff11a6a",
    "ou-lower-start":
        "e384e11e43b5007582129ca6bdab81db407c876e00fcd68836b8720f5c0ad6f3",
    "ou-upper-start":
        "b3b4f5da4554898f80970d97e5f385bcec144f6c32b9a7f40ea2baa5e098dda4",
}


def _segments_digest(segments):
    digest = hashlib.sha256()
    for seg in segments:
        digest.update(np.asarray(seg.path.values, dtype=float).tobytes())
        digest.update(np.array([seg.stop_index, len(seg.path.values)]).tobytes())
        digest.update(seg.hit.value.encode())
        digest.update(np.float64(seg.stop_time_refined).tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("process,detection,step,seed", list(_SIMULATOR_DIGESTS))
def test_simulator_outputs_pinned(process, detection, step, seed):
    if process == "ou":
        segs = [simulate_ou_stopped(RngStream(seed, k), 1.0, step, 0.0, 2.0,
                                    detection=detection) for k in range(16)]
    else:
        segs = [simulate_bessel3_complement(RngStream(seed, k), 2.0, step,
                                            detection=detection)
                for k in range(16)]
    key = (process, detection, step, seed)
    assert _segments_digest(segs) == _SIMULATOR_DIGESTS[key]


@pytest.mark.parametrize("case", list(_SIMULATOR_EDGE_RUNS))
def test_simulator_edge_cases_pinned(case):
    segs = [_SIMULATOR_EDGE_RUNS[case](k) for k in range(4)]
    if "expire" in case:
        assert all(seg.hit is Hit.EXPIRED for seg in segs)
    assert _segments_digest(segs) == _SIMULATOR_EDGE_DIGESTS[case]
