import math

import numpy as np
import pytest
from scipy import stats

from rarepath import (BoundViolation, IntensityFn, InvalidArgument,
                      InvalidIntensity, JumpPath, MarkDistribution, RngStream,
                      compensator, simulate_cpp_thinning,
                      simulate_cpp_time_change)
from rarepath.jumps import thinning_counts, time_change_counts

UNIT = MarkDistribution.point_mass(1.0)


def test_mark_distribution_validation():
    with pytest.raises(InvalidArgument):
        MarkDistribution.point_mass(0.0)
    with pytest.raises(InvalidArgument):
        MarkDistribution.discrete_table([[1.0], [0.0]], [0.5, 0.5])
    with pytest.raises(InvalidArgument):
        MarkDistribution.discrete_table([[1.0], [2.0]], [0.6, 0.5])
    bad = MarkDistribution.custom(lambda gen, size: np.zeros((size, 1)), dim=1)
    with pytest.raises(InvalidArgument):
        bad.sample(RngStream(1).generator(), 2)


def test_table_sampling_frequencies():
    table = MarkDistribution.discrete_table([[1.0], [-2.0]], [0.75, 0.25])
    out = table.sample(RngStream(5).generator(), 40000)[:, 0]
    frac = np.mean(out == 1.0)
    assert abs(frac - 0.75) < 3.0 * math.sqrt(0.75 * 0.25 / 40000)


def test_jump_path_accessors():
    p = JumpPath(x0=[0.0], jump_times=[0.5, 1.5], marks=[[1.0], [2.0]], horizon=2.0)
    assert p.count_at(0.4) == 0
    assert p.count_at(0.5) == 1
    assert p.value_at(1.5)[0] == 3.0
    assert p.value_before(1.5)[0] == 1.0
    assert p.restrict_before(1.5).count_at(2.0) == 1
    with pytest.raises(InvalidArgument):
        JumpPath(x0=[0.0], jump_times=[1.0, 0.5], marks=[[1.0], [1.0]], horizon=2.0)
    with pytest.raises(InvalidArgument):
        JumpPath(x0=[0.0], jump_times=[1.0], marks=[[0.0]], horizon=2.0)
    # marks as wide as the start
    with pytest.raises(InvalidArgument):
        JumpPath(x0=[0.0], jump_times=[0.5], marks=[[1.0, 2.0]], horizon=2.0)
    with pytest.raises(InvalidArgument):
        JumpPath(x0=[0.0, 0.0, 0.0], jump_times=[], marks=np.zeros((0, 2)), horizon=2.0)


@pytest.mark.parametrize("simulate", [
    lambda x0, marks: simulate_cpp_time_change(RngStream(4), lambda y: 2.0, marks,
                                               x0, 3.0),
    lambda x0, marks: simulate_cpp_thinning(
        RngStream(4), IntensityFn.state_dependent(lambda y: 2.0), 2.0, marks, x0, 3.0),
], ids=["time-change", "thinning"])
def test_simulators_start_in_the_marks_dimension(simulate):
    marks = MarkDistribution.point_mass([1.0, 2.0])
    path = simulate(0.5, marks)
    assert path.dim == 2 and path.marks.shape[1] == 2
    assert path.x0.tolist() == [0.5, 0.5]
    assert len(path.jump_times) > 0
    assert path.value_at(3.0).tolist() == [0.5 + len(path.jump_times),
                                           0.5 + 2.0 * len(path.jump_times)]
    with pytest.raises(InvalidArgument):
        simulate([0.0, 0.0, 0.0], marks)


def test_time_change_constant_rate_halves_times():
    # with a constant intensity c the clock change is t -> t/c exactly, so
    # doubling the rate halves every jump time (point-mass marks draw no
    # randomness, keeping the exponential skeleton aligned across runs)
    p1 = simulate_cpp_time_change(RngStream(17), lambda y: 1.0, UNIT, 0.0, 10.0)
    p2 = simulate_cpp_time_change(RngStream(17), lambda y: 2.0, UNIT, 0.0, 5.0)
    m = min(len(p1.jump_times), len(p2.jump_times))
    assert np.allclose(p2.jump_times[:m], p1.jump_times[:m] / 2.0, rtol=0, atol=1e-12)


def test_time_change_identity_is_unit_poisson():
    counts = time_change_counts(RngStream(23), lambda y: np.ones_like(y),
                                1.0, 0.0, 3.0, 20000)
    assert abs(counts.mean() - 3.0) < 3.0 * counts.std() / math.sqrt(counts.size)


def test_time_change_rejects_nonpositive_intensity():
    with pytest.raises(InvalidIntensity):
        simulate_cpp_time_change(RngStream(1), lambda y: -1.0, UNIT, 0.0, 1.0)


@pytest.mark.parametrize("rate", [math.nan, math.inf, 0.0])
def test_time_change_rejects_non_finite_or_zero_rate(rate):
    with pytest.raises(InvalidIntensity):
        simulate_cpp_time_change(RngStream(1), lambda y: rate, UNIT, 0.0, 1.0)
    with pytest.raises(InvalidIntensity):
        time_change_counts(RngStream(1), lambda v: np.full_like(v, rate), 1.0,
                           0.0, 1.0, 8)


@pytest.mark.parametrize("bound", [math.nan, math.inf, 0.0, -1.0])
def test_thinning_rejects_non_finite_or_nonpositive_bound(bound):
    with pytest.raises(InvalidArgument):
        simulate_cpp_thinning(RngStream(1), IntensityFn.deterministic(lambda t: 1.0),
                              bound, UNIT, 0.0, 1.0)
    with pytest.raises(InvalidArgument):
        thinning_counts(RngStream(1), lambda v: np.ones_like(v), bound, 1.0,
                        0.0, 1.0, 8)


@pytest.mark.parametrize("rate", [math.nan, -1.0])
def test_thinning_rejects_nan_or_negative_rate(rate):
    with pytest.raises(InvalidIntensity):
        simulate_cpp_thinning(RngStream(1), IntensityFn.deterministic(lambda t: rate),
                              2.0, UNIT, 0.0, 5.0)
    with pytest.raises(InvalidIntensity):
        thinning_counts(RngStream(1), lambda v: np.full_like(v, rate), 2.0, 1.0,
                        0.0, 5.0, 8)


_COUNTS = {
    "time-change": lambda *args: time_change_counts(RngStream(1), np.ones_like, *args),
    "thinning": lambda *args: thinning_counts(RngStream(1), np.ones_like, 2.0, *args),
}


@pytest.mark.parametrize("count", list(_COUNTS))
@pytest.mark.parametrize("mark, x0, t, lanes", [
    (1.0, 0.0, math.nan, 8), (1.0, 0.0, -1.0, 8), (1.0, 0.0, 0.0, 8),
    (1.0, 0.0, math.inf, 8), (1.0, 0.0, 1.0, 0), (1.0, 0.0, 1.0, 2.5),
    (math.nan, 0.0, 1.0, 8), (math.inf, 0.0, 1.0, 8), (0.0, 0.0, 1.0, 8),
    (1.0, math.nan, 1.0, 8),
], ids=["t-nan", "t-negative", "t-zero", "t-inf", "lanes-0", "lanes-not-int",
        "mark-nan", "mark-inf", "mark-zero", "x0-nan"])
def test_count_helpers_reject_bad_arguments(count, mark, x0, t, lanes):
    # the per-path simulators refuse the same inputs
    with pytest.raises(InvalidArgument):
        _COUNTS[count](mark, x0, t, lanes)


def test_thinning_constant_rate_poisson_counts():
    lam, t = 2.0, 1.5
    counts = thinning_counts(RngStream(29), lambda y: np.full_like(y, lam),
                             lam, 1.0, 0.0, t, 20000)
    assert abs(counts.mean() - lam * t) < 3.0 * counts.std() / math.sqrt(counts.size)


def test_thinning_zero_intensity_empty():
    path = simulate_cpp_thinning(RngStream(3), IntensityFn.deterministic(lambda t: 0.0),
                                 1.0, UNIT, 0.0, 5.0)
    assert len(path.jump_times) == 0


def test_thinning_deterministic_ramp_mean():
    # g(t) = t on [0, 1]: expected count is the integral 1/2
    total = 0
    n = 4000
    for k in range(n):
        p = simulate_cpp_thinning(RngStream(31, k),
                                  IntensityFn.deterministic(lambda t: t),
                                  1.0, UNIT, 0.0, 1.0)
        total += len(p.jump_times)
    mean = total / n
    assert abs(mean - 0.5) < 3.0 * math.sqrt(0.5 / n)


def test_thinning_bound_violation_is_hard():
    with pytest.raises(BoundViolation):
        simulate_cpp_thinning(RngStream(1), IntensityFn.deterministic(lambda t: 2.0),
                              1.0, UNIT, 0.0, 5.0)


def test_compensator_constant_exact():
    p = JumpPath(x0=[0.0], jump_times=[0.3, 0.7], marks=[[1.0], [1.0]], horizon=2.0)
    lam = 1.7
    val = compensator(p, IntensityFn.state_dependent(lambda y: lam), 1.3)
    assert val == pytest.approx(lam * 1.3, abs=1e-12)


def test_compensator_state_dependent_piecewise_exact():
    p = JumpPath(x0=[0.0], jump_times=[0.4, 1.1], marks=[[2.0], [1.0]], horizon=3.0)
    g = IntensityFn.state_dependent(lambda y: 1.0 + abs(y))
    t = 2.0
    expected = 1.0 * 0.4 + 3.0 * (1.1 - 0.4) + 4.0 * (2.0 - 1.1)
    assert compensator(p, g, t) == pytest.approx(expected, abs=1e-12)


def test_compensator_deterministic_quadrature():
    p = JumpPath(x0=[0.0], jump_times=[0.5], marks=[[1.0]], horizon=2.0)
    g = IntensityFn.deterministic(lambda t: t * t)
    assert compensator(p, g, 1.5) == pytest.approx(1.5 ** 3 / 3.0, abs=1e-7)


def test_compensator_rejects_t_outside_the_horizon():
    p = JumpPath(x0=[0.0], jump_times=[0.5], marks=[[1.0]], horizon=2.0)
    for g in (IntensityFn.state_dependent(lambda y: 1.0),
              IntensityFn.deterministic(lambda t: 1.0)):
        for t in (-0.1, 2.1, math.nan, math.inf):
            with pytest.raises(InvalidArgument):
                compensator(p, g, t)


def test_compensated_count_is_centered():
    # N(t) - Psi(t) should average zero over replicas of the clock-change
    # construction with a state-dependent rate
    g = lambda y: 1.0 + abs(y)
    n = 2000
    vals = np.empty(n)
    for k in range(n):
        p = simulate_cpp_time_change(RngStream(111, k), g, UNIT, 0.0, 1.0)
        psi = compensator(p, IntensityFn.state_dependent(g), 1.0)
        vals[k] = p.count_at(1.0) - psi
    assert abs(vals.mean()) < 3.0 * vals.std() / math.sqrt(n)


def test_intensity_predictability_mutation():
    g = IntensityFn.predictable(lambda t, path: 1.0 + path.count_at(t))
    base = JumpPath(x0=[0.0], jump_times=[0.5, 2.0], marks=[[1.0], [1.0]], horizon=3.0)
    mutated = JumpPath(x0=[0.0], jump_times=[0.5, 1.0, 2.0],
                       marks=[[1.0], [5.0], [1.0]], horizon=3.0)
    # evaluations at t = 1.0 must agree: the two paths coincide before 1.0
    assert g.eval(1.0, base) == g.eval(1.0, mutated)
    # and differ after the mutation point
    assert g.eval(1.5, base) != g.eval(1.5, mutated)


def test_time_change_vs_thinning_chi_square_desk_scale():
    g = lambda y: 1.0 + np.abs(y)
    c1 = time_change_counts(RngStream(2001), g, 1.0, 0.0, 1.0, 20000)
    c2 = thinning_counts(RngStream(2002), g, 64.0, 1.0, 0.0, 1.0, 20000)
    kmax = int(max(c1.max(), c2.max()))
    bins = np.arange(kmax + 2)
    h1 = np.bincount(c1, minlength=kmax + 1)
    h2 = np.bincount(c2, minlength=kmax + 1)
    # merge sparse tail so expected counts stay reasonable
    keep = (h1 + h2) >= 10
    tail1, tail2 = h1[~keep].sum(), h2[~keep].sum()
    table = np.vstack([np.append(h1[keep], tail1), np.append(h2[keep], tail2)])
    _stat, p, _dof, _exp = stats.chi2_contingency(table)
    assert p > 0.01
