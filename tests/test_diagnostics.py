import dataclasses
import hashlib
import math

import numpy as np
import pytest

from rarepath import (FamilyDraw, InvalidArgument, RngStream, clamped_drift_family,
                      constant_family, inverse_bessel_family, q_tail_profile,
                      stopped_tail, unity_check)

# frozen by quadrature of the radial transition density started at 1:
# mean of the reciprocal distance at t = 1 equals 2*Phi(1) - 1
INV_BESSEL_MEAN_T1 = 0.6826894921370859


def test_constant_family_profile_consistent():
    fam = constant_family(n_grid=(1, 2, 4), t_grid=(1.0, 2.5))
    prof = q_tail_profile(fam, [2.0, 4.0], replicas=4000, seed=1)
    for (n, t, k), (est, se) in prof.entries.items():
        assert est == 0.0 and se == 0.0
    assert prof.verdict.kind == "consistent"
    assert str(prof.verdict) == "TightnessConsistent"


def test_constant_family_stopped_tail_deterministic():
    fam = constant_family(n_grid=(1, 2, 4), t_grid=(2.5,))
    tails = stopped_tail(fam, replicas=100, seed=2)
    assert tails[(1, 2.5)][0] == 1.0
    assert tails[(2, 2.5)][0] == 1.0
    assert tails[(4, 2.5)][0] == 0.0


def test_constant_family_unity_exact():
    fam = constant_family(n_grid=(1,), t_grid=(1.0,))
    means = unity_check(fam, replicas=100, seed=3)
    assert means[(1, 1.0)] == (1.0, 0.0)


def test_clamped_family_members_coincide_once_clamp_inactive():
    # drift bounded by 3: members 5 and 50 are pathwise identical
    fam = clamped_drift_family(lambda t, w, ws: 3.0 * np.cos(w[:, :1]),
                                  step=1.0 / 64, dim=1, n_grid=(5, 50),
                                  t_grid=(1.0,))
    draw = fam.simulate_multi(RngStream(11, 0), 1.0, 256)
    assert np.array_equal(draw.values[0], draw.values[1])


def test_clamped_family_clamp_is_componentwise():
    # drift (5, -7): the clamp at 6 changes only the second coordinate, so
    # the member-6 and member-8 log variances differ by the right amount
    fam = clamped_drift_family(lambda t, w, ws: np.array([[5.0, -7.0]]),
                                  step=1.0 / 4, dim=2, n_grid=(6, 8),
                                  t_grid=(0.25,))
    draw = fam.simulate_multi(RngStream(12, 0), 0.25, 30000)
    lv6 = np.log(draw.values[0]).var()
    lv8 = np.log(draw.values[1]).var()
    # var log M = |mu|^2 t with |mu6|^2 = 61, |mu8|^2 = 74 at t = 0.25
    assert abs(lv6 - 61.0 * 0.25) < 0.6
    assert abs(lv8 - 74.0 * 0.25) < 0.7


def test_clamped_family_linear_growth_unity_per_member():
    # drift equal to the running maximum of |W| (linear growth): every
    # clamped member keeps unit expectation
    fam = clamped_drift_family(lambda t, w, ws: ws[:, None],
                                  step=1.0 / 128, dim=1, n_grid=(1, 2, 4),
                                  t_grid=(1.0,))
    means = unity_check(fam, replicas=40000, seed=21)
    for (n, t), (mean, se) in means.items():
        assert abs(mean - 1.0) < 3.0 * se


def test_clamped_family_stopped_tail_vanishes_in_member():
    fam = clamped_drift_family(lambda t, w, ws: np.cos(w[:, :1]),
                                  step=1.0 / 128, dim=1, n_grid=(2, 4, 8),
                                  t_grid=(1.0,))
    tails = stopped_tail(fam, replicas=30000, seed=22)
    vals = [tails[(n, 1.0)][0] for n in (2, 4, 8)]
    assert vals[0] > vals[1] > vals[2]
    assert vals[2] < 0.02


def test_inverse_bessel_unity_of_limit():
    fam = inverse_bessel_family(step=1.0 / 256, n_grid=(8,), t_grid=(1.0,))
    means = unity_check(fam, replicas=60000, seed=23)
    mean, se = means[(8, 1.0)]
    assert abs(mean - INV_BESSEL_MEAN_T1) < 3.0 * se
    # and it is far below one: the defect is two orders above the noise
    assert (1.0 - mean) / se > 5.0


def test_inverse_bessel_member_unity_with_freeze():
    # each frozen member keeps (approximately) unit mean: the freeze at n
    # returns the escaping mass
    fam = inverse_bessel_family(step=1.0 / 1024, n_grid=(4,), t_grid=(1.0,))
    means = unity_check(fam, replicas=60000, seed=24, member="member")
    mean, se = means[(4, 1.0)]
    assert abs(mean - 1.0) < max(4.0 * se, 0.02)


def test_inverse_bessel_profile_violated_and_stopped_floor():
    fam = inverse_bessel_family(step=1.0 / 512, n_grid=(8, 16, 32),
                                t_grid=(1.0,))
    prof = q_tail_profile(fam, [2.0, 4.0, 8.0], replicas=60000, seed=25)
    assert prof.verdict.kind == "violated"
    assert prof.verdict.floor > 0.05
    tails = stopped_tail(fam, replicas=60000, seed=25)
    for n in (8, 16, 32):
        est, se = tails[(n, 1.0)]
        assert est - 3.0 * se > 0.05  # the floor does not vanish in n


def test_profile_tail_at_tiny_kappa_is_the_member_mean():
    # every value exceeds 1e-300, so that tail column is M_n(t) itself and
    # must reduce to the very bits of the unit-mean statistic
    fam = inverse_bessel_family(step=1.0 / 128, n_grid=(4, 8), t_grid=(0.5, 1.0))
    prof = q_tail_profile(fam, [1e-300], replicas=20000, seed=26)
    means = unity_check(fam, replicas=20000, seed=26, member="member")
    assert {(n, t): prof.entries[(n, t, 1e-300)] for n, t in means} == means


def test_profile_monotone_in_kappa():
    fam = inverse_bessel_family(step=1.0 / 128, n_grid=(8,), t_grid=(1.0,))
    prof = q_tail_profile(fam, [2.0, 4.0, 8.0], replicas=30000, seed=27)
    ests = [prof.entries[(8, 1.0, k)][0] for k in (2.0, 4.0, 8.0)]
    ses = [prof.entries[(8, 1.0, k)][1] for k in (2.0, 4.0, 8.0)]
    for a, b, sa, sb in zip(ests, ests[1:], ses, ses[1:]):
        assert b <= a + 2.0 * math.hypot(sa, sb)


@pytest.mark.parametrize("step", [0.0, -1.0, math.nan])
def test_family_step_must_be_positive(step):
    with pytest.raises(InvalidArgument):
        clamped_drift_family(mu=lambda t, w, ws: np.cos(w[:, :1]), step=step)
    with pytest.raises(InvalidArgument):
        inverse_bessel_family(step=step)


def test_profile_input_validation():
    fam = constant_family()
    with pytest.raises(InvalidArgument):
        q_tail_profile(fam, [4.0, 2.0], replicas=10, seed=1)
    with pytest.raises(InvalidArgument):
        q_tail_profile(fam, [], replicas=10, seed=1)
    with pytest.raises(InvalidArgument):
        q_tail_profile(fam, [2.0, math.inf], replicas=10, seed=1)
    with pytest.raises(InvalidArgument):
        unity_check(fam, replicas=10, seed=1, member="bogus")
    with pytest.raises(InvalidArgument):
        q_tail_profile(fam, [2.0], replicas=0, seed=1)
    with pytest.raises(InvalidArgument):  # no standard error from one replica
        q_tail_profile(fam, [2.0], replicas=1, seed=1)
    # a draw must stack one row per member
    one_row = dataclasses.replace(fam, simulate_multi=lambda stream, t, size:
                                  FamilyDraw(values=np.ones((1, size))))
    with pytest.raises(InvalidArgument):
        stopped_tail(one_row, replicas=10, seed=1)


def _filled_family(value):
    return dataclasses.replace(constant_family(), simulate_multi=lambda stream, t, size:
                               FamilyDraw(values=np.full((3, size), value),
                                          stopped=np.ones((3, size), dtype=bool)))


@pytest.mark.parametrize("make", [
    # a nan drift survives the clamp and makes every member value nan
    lambda: clamped_drift_family(lambda t, w, ws: np.full((len(w), 1), np.nan),
                                 step=0.25, n_grid=(1, 2)),
    lambda: _filled_family(math.inf),
    lambda: _filled_family(-1.0),
], ids=["nan-drift", "inf", "negative"])
@pytest.mark.parametrize("statistic", [
    lambda fam: q_tail_profile(fam, [2.0], replicas=100, seed=1),
    lambda fam: stopped_tail(fam, replicas=100, seed=1),
    lambda fam: unity_check(fam, replicas=100, seed=1),
], ids=["q_tail_profile", "stopped_tail", "unity_check"])
def test_statistics_reject_non_finite_or_negative_values(statistic, make):
    with pytest.raises(InvalidArgument):
        statistic(make())


def _with_draw_fields(**fields):
    fam = constant_family()

    def simulate_multi(stream, t, size):
        return dataclasses.replace(fam.simulate_multi(stream, t, size),
                                   **{k: make(size) for k, make in fields.items()})

    return dataclasses.replace(fam, simulate_multi=simulate_multi)


@pytest.mark.parametrize("statistic, fields", [
    (stopped_tail, {"stopped": lambda size: np.full((3, size), np.nan)}),
    (stopped_tail, {"stopped": lambda size: np.full((3, size), 2.0)}),
    (stopped_tail, {"stopped": lambda size: np.ones((2, size))}),
    (unity_check, {"limit_values": lambda size: np.full(size, np.nan)}),
    (unity_check, {"limit_values": lambda size: np.full(size, -1.0)}),
    (unity_check, {"limit_values": lambda size: np.ones((3, size))}),
], ids=["stopped-nan", "stopped-above-one", "stopped-shape",
        "limit-nan", "limit-negative", "limit-shape"])
def test_statistics_reject_bad_stopped_or_limit_fields(statistic, fields):
    with pytest.raises(InvalidArgument):
        statistic(_with_draw_fields(**fields), replicas=100, seed=1)


@pytest.mark.parametrize("statistic", [
    lambda fam: q_tail_profile(fam, [2.0], replicas=10, seed=1),
    lambda fam: stopped_tail(fam, replicas=10, seed=1),
    lambda fam: unity_check(fam, replicas=10, seed=1),
], ids=["q_tail_profile", "stopped_tail", "unity_check"])
def test_statistics_need_members_and_finite_positive_times(statistic):
    # an empty grid would give a verdict over no cells at all
    for fam in (constant_family(n_grid=()), constant_family(t_grid=()),
                constant_family(t_grid=(1.0, -1.0)), constant_family(t_grid=(0.0,)),
                constant_family(t_grid=(math.inf,)), constant_family(t_grid=(math.nan,))):
        with pytest.raises(InvalidArgument):
            statistic(fam)


@pytest.mark.parametrize("make", [
    lambda step: clamped_drift_family(lambda t, w, ws: 0.0 * w, step=step),
    lambda step: inverse_bessel_family(step=step),
], ids=["clamped-drift", "inverse-bessel"])
def test_family_step_must_be_finite_and_positive(make):
    for step in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(InvalidArgument):
            make(step)


@pytest.mark.parametrize("make", [
    lambda n_grid: clamped_drift_family(lambda t, w, ws: 0.0 * w, step=0.25,
                                        n_grid=n_grid),
    lambda n_grid: inverse_bessel_family(step=0.25, n_grid=n_grid),
    lambda n_grid: constant_family(n_grid=n_grid),
], ids=["clamped-drift", "inverse-bessel", "constant"])
@pytest.mark.parametrize("member", [0, -1, math.nan, math.inf],
                         ids=["0", "negative", "nan", "inf"])
def test_family_members_must_be_finite_and_positive(make, member):
    with pytest.raises(InvalidArgument):
        make((member, 8))


# sha256 pins of every tightness statistic: profile entries and verdict,
# the stopped tails, and unity_check in both the "auto" and the "member"
# mode, each as the repr of its (key, value) pairs, so every float is
# pinned to the bit.  The "chunks" case spans two _CHUNKs at two times.
_TIGHTNESS_CASES = {
    "inverse-bessel": (lambda: inverse_bessel_family(
        step=1.0 / 64, n_grid=(4, 8), t_grid=(0.5, 1.0)), 3000, 31),
    "clamped-1d": (lambda: clamped_drift_family(
        lambda t, w, ws: np.cos(w[:, :1]), step=1.0 / 32, dim=1,
        n_grid=(1, 2, 4), t_grid=(1.0,)), 3000, 32),
    "clamped-2d": (lambda: clamped_drift_family(
        lambda t, w, ws: np.stack([3.0 * np.sin(w[:, 1]), ws + 1.0], axis=1),
        step=1.0 / 16, dim=2, n_grid=(1, 2, 4), t_grid=(0.5,)), 2000, 33),
    "constant": (lambda: constant_family(n_grid=(1, 2, 4), t_grid=(1.0, 2.5)),
                 500, 34),
    "chunks": (lambda: clamped_drift_family(
        lambda t, w, ws: np.stack([np.cos(w[:, 0]), ws], axis=1),
        step=1.0 / 8, dim=2, n_grid=(1, 2, 4), t_grid=(0.25, 0.5)), 70000, 35),
    # three components pin the summation order of the clamped quadratic and
    # linear terms beyond two; the clamps 3 and 6 bind on every component
    "clamped-3d": (lambda: clamped_drift_family(
        lambda t, w, ws: np.stack([4.0 * np.sin(w[:, 1]) + w[:, 2],
                                   2.0 * np.cos(w[:, 0]) - 3.0 * ws,
                                   5.0 * w[:, 0] * w[:, 1] + ws], axis=1),
        step=1.0 / 16, dim=3, n_grid=(1, 3, 6), t_grid=(0.5, 1.0)), 2000, 36),
}

_TIGHTNESS_DIGESTS = {
    "inverse-bessel":
        "35c540330e4492107b3aa7fa4ffb92fa9075575bb01d4f07686adc88778c75aa",
    "clamped-1d":
        "e5c69cc5d4991d68cd28c26c4529260ad744dc1af4eeb64a357d77b91faa87ed",
    "clamped-2d":
        "7ddc74bda1dc6938b4b4d4712c2d50dcf11eadbf4f9d364643b420cc798feca8",
    "constant":
        "df45e4888789a40b24b5ccd0121f764c05afdd1bce1a9b638285bb98d8f330a0",
    "chunks":
        "88ea34e8c5cabc440b487eb739d68099c3fba86363967679b44ec7f0a88cb526",
    "clamped-3d":
        "333b8f2cf354f1caccb2e57f5901f868768250863b286eb9ab8489f93e84b334",
}


@pytest.mark.parametrize("case", list(_TIGHTNESS_CASES))
def test_tightness_statistics_pinned(case):
    make, replicas, seed = _TIGHTNESS_CASES[case]
    fam = make()
    prof = q_tail_profile(fam, [2.0, 4.0, 8.0], replicas=replicas, seed=seed)
    payload = (list(prof.entries.items()), str(prof.verdict),
               list(stopped_tail(fam, replicas=replicas, seed=seed).items()),
               list(unity_check(fam, replicas=replicas, seed=seed).items()),
               list(unity_check(fam, replicas=replicas, seed=seed,
                                member="member").items()))
    digest = hashlib.sha256(repr(payload).encode()).hexdigest()
    assert digest == _TIGHTNESS_DIGESTS[case]


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("case", list(_TIGHTNESS_CASES))
def test_tightness_profile_does_not_depend_on_workers(case, workers):
    # each chunk's lanes run in ranges on threads, each making its rows
    # of the chunk's one stream: the profile is the pinned one to the bit
    make, replicas, seed = _TIGHTNESS_CASES[case]
    fam = make()
    one = q_tail_profile(fam, [2.0, 4.0, 8.0], replicas=replicas, seed=seed)
    assert q_tail_profile(fam, [2.0, 4.0, 8.0], replicas=replicas, seed=seed,
                          workers=workers) == one


def _numpy_drift_draw(mu, step, dim, n_grid, stream, t, size):
    """``(values, stopped)`` of the clamped-drift family stepped in numpy:
    the reference that the compiled ``drift_step`` repeats operation for
    operation (the clamp, einsum's sums, the pairwise norm)."""
    members = np.array(n_grid, dtype=float)
    bound = members[:, None, None]
    log_n = np.log(np.maximum(members, 1.0))[:, None]
    gen = stream.generator()
    sq = math.sqrt(step)
    w = np.zeros((size, dim))
    wstar = np.zeros(size)
    logm = np.zeros((len(n_grid), size))
    hit = np.zeros((len(n_grid), size), dtype=bool)
    dn = np.empty((len(n_grid), size, dim))
    quad, lin = np.empty_like(logm), np.empty_like(logm)
    for k in range(round(t / step)):
        drift = np.asarray(mu(k * step, w, wstar), dtype=float)
        dw = sq * gen.standard_normal((size, dim))
        np.clip(drift, -bound, bound, out=dn)
        np.einsum("mij,mij->mi", dn, dn, out=quad)
        quad *= 0.5 * step
        np.einsum("mij,ij->mi", dn, dw, out=lin)
        lin -= quad
        logm += lin
        hit |= logm >= log_n
        w = w + dw
        wstar = np.maximum(wstar, np.linalg.norm(w, axis=1))
    return np.exp(logm), hit


_DRIFTS = {
    "lanes": lambda t, w, ws: 3.0 * np.sin(2.0 * w[:, ::-1]) + ws[:, None],
    "shared-row": lambda t, w, ws: (np.arange(w.shape[1]) - 1.5)[None, :] * (1.0 + t),
    "scalar": lambda t, w, ws: 5.0 * math.cos(7.0 * t),
    "integer": lambda t, w, ws: np.rint(4.0 * w).astype(int),
    "nan": lambda t, w, ws: np.where(w > 0.2, np.nan, 6.0 * w),
    "view-of-w": lambda t, w, ws: w[:, ::-1],
}


@pytest.mark.parametrize("drift", list(_DRIFTS))
@pytest.mark.parametrize("dim", [1, 2, 3, 4, 9, 130])
def test_drift_step_repeats_the_numpy_step_to_the_bit(dim, drift):
    # dims 9 and 130 reach einsum's blocks of eight terms and the pairwise
    # norm's eight accumulators and halving; members below 1, not powers
    # of two, and a single lane cover the clamp and log_n
    mu, step, n_grid = _DRIFTS[drift], 1.0 / 16, (0.5, 1.0, 2.5, 4.0)
    fam = clamped_drift_family(mu, step=step, dim=dim, n_grid=n_grid)
    for size in (1, 37):
        draw = fam.simulate_multi(RngStream(7, size), 0.5, size)
        values, stopped = _numpy_drift_draw(mu, step, dim, n_grid,
                                            RngStream(7, size), 0.5, size)
        assert draw.values.tobytes() == values.tobytes()
        assert draw.stopped.tobytes() == stopped.tobytes()


@pytest.mark.parametrize("dim", [0, -1, 1.5, True, "2", None])
def test_clamped_drift_dim_must_be_a_positive_integer(dim):
    with pytest.raises(InvalidArgument):
        clamped_drift_family(lambda t, w, ws: w, step=0.25, dim=dim)


@pytest.mark.parametrize("mu", [
    lambda t, w, ws: ws,                       # (size,) at dim 1
    lambda t, w, ws: np.zeros((len(w), 2)),    # a column too many
    lambda t, w, ws: np.zeros((2, len(w), 1)),  # one row per member
], ids=["lanes-last", "dim-2", "per-member"])
def test_clamped_drift_must_broadcast_to_the_lanes(mu):
    fam = clamped_drift_family(mu, step=0.25, dim=1, n_grid=(1, 2))
    with pytest.raises(InvalidArgument):
        fam.simulate_multi(RngStream(1), 1.0, 5)


@pytest.mark.parametrize("make", [
    lambda step: clamped_drift_family(lambda t, w, ws: np.cos(w), step=step),
    lambda step: inverse_bessel_family(step=step),
], ids=["clamped-drift", "inverse-bessel"])
def test_family_time_must_be_a_whole_number_of_steps(make):
    for step, t in ((2.0, 1.0), (0.25, 0.1), (0.25, 0.3), (0.1, 0.25)):
        with pytest.raises(InvalidArgument):
            make(step).simulate_multi(RngStream(1), t, 4)
    # within a relative 1e-9 of a whole number: 0.1 * 3 / 0.1 is not 3
    draw = make(0.1).simulate_multi(RngStream(1), 0.1 * 3, 4)
    assert draw.values.shape == (len(make(0.1).n_grid), 4)
