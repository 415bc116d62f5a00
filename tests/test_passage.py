import hashlib
import math

import numpy as np
import pytest

from rarepath import (ContinuousPath, Hit, InvalidArgument, OuQuery,
                      PathFunctional, ReversedExcursion, RngStream,
                      StoppedSegment, ZeroAcceptance, estimate_conditional,
                      oracle_rejection, ou_scale_ratio, path_integral_square,
                      reversed_last_excursion, sample_reversed_bridge,
                      scaling_report)
from rarepath import passage
from rarepath.passage import (_P_IS, _P_REJ, BridgeSample, _is_batch,
                              _occ_cell, _rej_batch, _run_is, _run_rej,
                              conditional_samples)
from rarepath.paths import HORIZON_CAP, ou_weight_mean


def _synthetic_excursion():
    # snapped level value, then three unit-grid values climbing to 2.0
    vals = np.array([1.0, 1.2, 1.7, 2.0])
    return ReversedExcursion(segment=ContinuousPath(step=0.5, values=vals),
                             origin_time=1.3, level=1.0)


def test_functional_factories_and_validation():
    with pytest.raises(InvalidArgument):
        PathFunctional.capped_duration(0.0)
    with pytest.raises(InvalidArgument):
        PathFunctional.occupation_above(1.0, -1.0)
    f = PathFunctional.indicator()
    assert f.evaluate(_synthetic_excursion(), 1.3) == 1.0


@pytest.mark.parametrize("level", [math.nan, math.inf, -math.inf])
def test_occupation_level_must_be_finite(level):
    with pytest.raises(InvalidArgument):
        PathFunctional.occupation_above(level, 50.0)


@pytest.mark.parametrize("cap", [math.inf, math.nan, 0.0, -1.0])
def test_cap_must_be_finite_and_positive(cap):
    # the estimator needs bounded functionals
    for make in (PathFunctional.capped_duration,
                 lambda c: PathFunctional.occupation_above(1.0, c),
                 lambda c: PathFunctional.custom(lambda exc, d: 0.0, c)):
        with pytest.raises(InvalidArgument):
            make(cap)


def test_functional_capped_duration():
    f = PathFunctional.capped_duration(1.0)
    assert f.evaluate(_synthetic_excursion(), 1.3) == 1.0
    f2 = PathFunctional.capped_duration(50.0)
    assert f2.evaluate(_synthetic_excursion(), 1.3) == 1.3


def test_functional_occupation_straddle():
    exc = _synthetic_excursion()
    f = PathFunctional.occupation_above(1.5, 50.0)
    # first cell (length 1.3 - 2*0.5 = 0.3): 1.0 -> 1.2 all below 1.5
    # second cell (0.5): 1.2 -> 1.7 straddles, fraction (1.7-1.5)/0.5 = 0.4
    # third cell (0.5): 1.7 -> 2.0 all above
    expected = 0.0 + 0.4 * 0.5 + 0.5
    assert f.evaluate(exc, 1.3) == pytest.approx(expected, abs=1e-12)


def test_occ_cell_matches_reference():
    def reference(a, b, level):
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        span = np.maximum(hi - lo, 1e-300)
        return np.where(hi <= level, 0.0, np.where(lo >= level, 1.0, (hi - level) / span))

    gen = np.random.default_rng(2)
    special = [-0.0, 0.0, 1.0, 1.5, 2.0, -1.0, np.nan, 1.5 + 2e-16, 1.5 - 2e-16]
    a = np.concatenate([np.repeat(special, len(special)), gen.normal(1.5, 1.0, 10000)])
    b = np.concatenate([np.tile(special, len(special)), gen.normal(1.5, 1.0, 10000)])
    for level in (0.0, 1.0, 1.5):
        got, want = _occ_cell(a, b, level), reference(a, b, level)
        assert got.tobytes() == want.tobytes()


def test_functional_custom_cap_enforced():
    f = PathFunctional.custom(lambda exc, dur: 10.0, cap=1.0)
    with pytest.raises(InvalidArgument):
        f.evaluate(_synthetic_excursion(), 1.3)


def test_bridge_sample_weight_identity():
    exc = _synthetic_excursion()
    # level 2, hit time 4, integral 10: log weight (4 + 4 - 10)/2 = -1
    bs = BridgeSample(excursion=exc, hit_time=4.0, integral_sq=10.0,
                      log_weight=-1.0, last_visit_time=1.3)
    assert math.exp(bs.log_weight) == pytest.approx(0.36787944117, abs=1e-9)
    # zero exponent when level^2 + hit time equals the integral
    BridgeSample(excursion=exc, hit_time=4.0, integral_sq=8.0,
                 log_weight=0.0, last_visit_time=1.3)
    with pytest.raises(InvalidArgument):
        BridgeSample(excursion=exc, hit_time=4.0, integral_sq=10.0,
                     log_weight=0.5, last_visit_time=1.3)


@pytest.mark.parametrize("detection", ["grid", "bridge"])
def test_sample_reversed_bridge_construction(detection):
    for r in range(10):
        bs = sample_reversed_bridge(RngStream(7, r), 2, 1e-3, detection=detection)
        v = bs.excursion.segment.values
        assert v[0] == 1.0            # snapped to the level exactly
        assert v[-1] == 2.0           # the starting level, exact
        assert 0.0 < bs.last_visit_time < bs.hit_time
        recomputed = 0.5 * (4.0 + bs.hit_time - bs.integral_sq)
        assert bs.log_weight == pytest.approx(recomputed, abs=1e-12)


def test_sample_reversed_bridge_determinism():
    a = sample_reversed_bridge(RngStream(9, 1), 2, 1e-3)
    b = sample_reversed_bridge(RngStream(9, 1), 2, 1e-3)
    assert a.log_weight == b.log_weight
    assert np.array_equal(a.excursion.segment.values, b.excursion.segment.values)


def test_hit_time_mean_is_the_3d_exit_time():
    # X' = N - |B| reaches 0 when 3-d Brownian motion leaves the ball of
    # radius N: mean N^2/3 and SD N^2*sqrt(2/45), whatever the step
    n = 20000
    for level in (2, 3):
        q = OuQuery(level, PathFunctional.indicator(), n, 4e-3, 5)
        t0 = conditional_samples(q, workers=2).hit_times
        se = level * level * math.sqrt(2.0 / 45.0 / n)
        assert abs(t0.mean() - level * level / 3.0) < 4.0 * se, level


def test_estimate_indicator_is_exactly_one():
    q = OuQuery(level=2, functional=PathFunctional.indicator(), replicas=500,
                step=2e-3, seed=5)
    rep = estimate_conditional(q)
    assert rep.estimate == 1.0
    assert rep.stderr == 0.0
    assert 0 < rep.ess <= 500


def test_estimate_worker_count_invariance():
    q = OuQuery(level=2, functional=PathFunctional.capped_duration(50.0),
                replicas=3000, step=2e-3, seed=11)
    a = estimate_conditional(q, workers=1)
    b = estimate_conditional(q, workers=4)
    assert a.estimate == b.estimate
    assert a.stderr == b.stderr
    assert a.ess == b.ess


def test_estimate_reproducible_across_calls():
    q = OuQuery(level=2, functional=PathFunctional.occupation_above(1.5, 50.0),
                replicas=2000, step=2e-3, seed=13)
    a = estimate_conditional(q)
    b = estimate_conditional(q)
    assert a.estimate == b.estimate and a.ess == b.ess


def test_estimate_custom_functional_slow_route():
    f = PathFunctional.custom(lambda exc, dur: min(dur, 50.0), cap=50.0)
    q = OuQuery(level=2, functional=f, replicas=60, step=4e-3, seed=17)
    rep = estimate_conditional(q)
    assert 0.0 < rep.estimate < 50.0
    assert rep.n_samples == 60


@pytest.mark.parametrize("workers", [1, 2])
def test_custom_functional_reproduces_builtin(monkeypatch, workers):
    # small batches, so that two workers really split the replicas
    monkeypatch.setattr(passage, "LANES_PER_BATCH", 64)
    reports = []
    for f in (PathFunctional.custom(lambda exc, dur: min(dur, 50.0), 50.0),
              PathFunctional.capped_duration(50.0)):
        q = OuQuery(level=2, functional=f, replicas=200, step=4e-3, seed=17)
        reports.append(estimate_conditional(q, workers=workers))
    custom, builtin = reports
    assert custom.estimate == builtin.estimate
    assert custom.stderr == builtin.stderr
    assert custom.ess == builtin.ess
    assert custom.extras["total_time_units"] == builtin.extras["total_time_units"]


@pytest.mark.parametrize("total,count", [
    (1, 1), (7, 1), (65536, 1), (65537, 2), (98304, 2), (150000, 4),
    (200000, 4), (1000000, 16)])
def test_batch_sizes(total, count):
    # the count, the sum and the ordering fix the sizes: 98304 -> 2 x 49152
    sizes = passage._batch_sizes(total)
    assert len(sizes) == count
    assert sum(sizes) == total
    assert sizes == sorted(sizes, reverse=True)
    assert sizes[0] - sizes[-1] <= 1
    assert sizes[0] <= passage.LANES_PER_BATCH


def _report_fields(rep):
    return rep.estimate, rep.stderr, rep.ess, rep.n_samples, rep.extras


def test_worker_count_invariance_over_many_batches(monkeypatch):
    # 64-lane batches: 300 lanes run as 6 batches of 50, 500 as 8 of 62-63,
    # so every worker count above one really starts threads
    monkeypatch.setattr(passage, "LANES_PER_BATCH", 64)
    q = OuQuery(level=2, functional=PathFunctional.occupation_above(1.5, 50.0),
                replicas=300, step=4e-3, seed=19)
    oq = OuQuery(level=2, functional=PathFunctional.capped_duration(50.0),
                 replicas=500, step=4e-3, seed=19)
    runs = {w: (_run_is(19, 2, 4e-3, 300, 1.5, "bridge", w),
                _run_rej(19, 2, 4e-3, 500, 1.5, "bridge", w),
                _report_fields(estimate_conditional(q, workers=w)),
                _report_fields(oracle_rejection(oq, workers=w)))
            for w in (1, 2, 3)}
    for w in (2, 3):
        for got, want in zip(runs[w][:2], runs[1][:2]):
            assert len(got) == len(want)
            for g, e in zip(got, want):
                np.testing.assert_array_equal(g, e)
        assert runs[w][2:] == runs[1][2:]


@pytest.mark.parametrize("detection", ["grid", "bridge"])
def test_recorded_excursions_match_streamed_payoffs(detection):
    h, level = 4e-3, 3
    xi, _t0, occ, _logw, _steps, excursions = _is_batch(
        RngStream(3).generator(_P_IS, 0), 512, level, h, 1.5, detection,
        int(HORIZON_CAP / h), record=True)
    f = PathFunctional.occupation_above(1.5, 50.0)
    assert len(excursions) == 512
    for i, exc in enumerate(excursions):
        v = exc.segment.values
        assert v[0] == 1.0 and v[-1] == level
        assert exc.origin_time == xi[i]
        # the last crossing of 1 lies in the cell ending at the second value
        assert (len(v) - 2) * h <= xi[i] <= (len(v) - 1) * h * (1 + 1e-12)
        assert f.evaluate(exc, exc.origin_time) == pytest.approx(min(occ[i], 50.0), abs=1e-12)


def test_recorded_excursions_match_reference_paths():
    # grid detection draws one (alive, 3) normal block per step and
    # nothing else, so a plain per-lane loop over the same draws rebuilds
    # every path; the library's scalar post-processing of each one must
    # give the recorded excursion (behind the value the engine snaps to 1)
    # and the engine's squared-path integral
    h, level, lanes = 4e-3, 2, 64
    _xi, t0, _occ, logw, _steps, excursions = _is_batch(
        RngStream(5).generator(_P_IS, 0), lanes, level, h, None, "grid",
        int(HORIZON_CAP / h), record=True)
    gen = RngStream(5).generator(_P_IS, 0)
    b = np.zeros((lanes, 3))
    paths = [[float(level)] for _ in range(lanes)]
    alive = np.arange(lanes)
    while alive.size:
        b[alive] += gen.standard_normal((alive.size, 3)) * math.sqrt(h)
        x = level - np.sqrt(np.einsum("ij,ij->i", b[alive], b[alive]))
        for lane, v in zip(alive, x):
            paths[lane].append(v)
        alive = alive[x > 0.0]
    for path, exc, t, lw in zip(paths, excursions, t0, logw):
        seg = StoppedSegment(ContinuousPath(step=h, values=np.array(path)),
                             len(path) - 1, Hit.LOWER, t)
        want = reversed_last_excursion(seg, 1.0)
        assert np.array_equal(exc.segment.values[1:], want.segment.values[1:])
        assert exc.origin_time == want.origin_time
        assert abs(level * level + t - 2.0 * lw - path_integral_square(seg.path, t)) <= 1e-12


def test_oracle_acceptance_matches_quadrature():
    q = OuQuery(level=2, functional=PathFunctional.capped_duration(50.0),
                replicas=100000, step=1e-3, seed=19)
    rep = oracle_rejection(q, workers=2)
    p = ou_scale_ratio(1.0, 2.0)
    se = math.sqrt(p * (1 - p) / q.replicas)
    slack = 0.25 * math.sqrt(q.step)
    assert abs(rep.extras["acceptance_rate"] - p) < 3.0 * se + slack


def test_is_vs_oracle_desk_scale():
    seed = 23
    h = 2e-3
    xi, t0, occ, logw, _ = _run_is(seed, 2, h, 20000, 1.5, "bridge", 1)
    hit, dur, r_occ, _ = _run_rej(seed, 2, h, 200000, 1.5, "bridge", 1)
    from rarepath import importance_estimate
    est = importance_estimate(payoffs=np.minimum(xi, 50.0), log_weights=logw)
    pays = np.minimum(dur[hit], 50.0)
    rej = pays.mean()
    se = math.sqrt(est.stderr ** 2 + pays.var() / pays.size)
    assert abs(est.estimate - rej) < 4.0 * se


def test_weight_mean_finite_and_stabilizing():
    # the weight has finite expectation: its sample mean settles under
    # replica doubling (Cauchy criterion at three combined stderrs)
    h = 2e-3
    means = {}
    for tag, n in (("a", 8000), ("b", 16000)):
        _xi, _t0, _occ, logw, _ = _run_is(37 if tag == "a" else 38, 2, h, n,
                                          None, "bridge", 1)
        w = np.exp(logw)
        assert np.all(np.isfinite(w))
        means[tag] = (w.mean(), w.std(ddof=1) / math.sqrt(n))
    gap = abs(means["a"][0] - means["b"][0])
    assert gap <= 3.0 * math.hypot(means["a"][1], means["b"][1])


def _weight_ratio(seed, level, h, replicas, detection):
    """The IS weight's sample mean over its exact mean ``N/D(N)``, and the
    standard error of that ratio."""
    *_, logw, _ = _run_is(seed, level, h, replicas, None, detection, 1)
    w = np.exp(logw) / ou_weight_mean(level)
    return w.mean(), w.std(ddof=1) / math.sqrt(replicas)


@pytest.mark.parametrize("level", [2, 3, 4])
def test_weight_mean_is_n_over_dawson(level):
    # bridge detection leaves an O(h) bias, a few tenths of a percent at
    # h = 4e-3 (grid detection's O(sqrt h) one is 1.6% at level 2)
    ratio, se = _weight_ratio(5, level, 4e-3, 20000, "bridge")
    assert abs(ratio - 1.0) < 3.0 * se + 0.005


def test_grid_weight_bias_halves_per_quartered_step():
    # a missed sub-step hit of 0 keeps the lane running: grid detection
    # biases the weight mean upwards by O(sqrt h), so a 4x smaller step
    # halves the bias (the ratio's noise here is about 0.15)
    coarse, se_c = _weight_ratio(5, 2, 1.6e-2, 40000, "grid")
    fine, se_f = _weight_ratio(5, 2, 4e-3, 40000, "grid")
    assert coarse - 1.0 > 5.0 * se_c and fine - 1.0 > 5.0 * se_f
    assert 1.4 < (coarse - 1.0) / (fine - 1.0) < 2.8


def test_oracle_zero_acceptance_raises():
    q = OuQuery(level=4, functional=PathFunctional.indicator(), replicas=20,
                step=2e-3, seed=29)
    with pytest.warns(RuntimeWarning):
        with pytest.raises(ZeroAcceptance):
            oracle_rejection(q)


def test_oracle_rejects_custom_functional():
    f = PathFunctional.custom(lambda exc, dur: 1.0, cap=1.0)
    q = OuQuery(level=2, functional=f, replicas=10, step=1e-2, seed=1)
    with pytest.raises(InvalidArgument):
        oracle_rejection(q)


def test_query_validation():
    f = PathFunctional.indicator()
    with pytest.raises(InvalidArgument):
        OuQuery(level=1, functional=f, replicas=10, step=1e-3, seed=1)
    with pytest.raises(InvalidArgument):
        OuQuery(level=2, functional=f, replicas=0, step=1e-3, seed=1)
    with pytest.raises(InvalidArgument):
        OuQuery(level=2, functional=f, replicas=10, step=-1e-3, seed=1)
    for step in (math.nan, math.inf):
        with pytest.raises(InvalidArgument):
            OuQuery(level=2, functional=f, replicas=10, step=step, seed=1)


@pytest.mark.parametrize("levels,step,replicas", [
    ([2], 1e-2, 10), ([2, 2], 1e-2, 10), ([], 1e-2, 10), ([2, 2.5], 1e-2, 10),
    ([2, 3], -1.0, 10), ([2, 3], math.nan, 10), ([2, 3], 1e-2, 0),
], ids=["one-level", "repeated-level", "no-levels", "fractional-level",
        "step-negative", "step-nan", "replicas-0"])
def test_scaling_report_validates_before_simulating(levels, step, replicas):
    # a slope needs two distinct levels, and each level must be a valid query
    with pytest.raises(InvalidArgument):
        scaling_report(levels, step=step, replicas=replicas, seed=1)


def test_scaling_report_shape_and_monotone_cost():
    rep = scaling_report([2, 3], step=2e-3, replicas=3000, seed=31)
    assert len(rep.rows) == 2
    for row in rep.rows:
        assert math.isfinite(row.is_cost)
        assert math.isfinite(row.rejection_cost_per_effective)
        assert math.isfinite(row.ratio)
    assert rep.rows[1].is_cost >= rep.rows[0].is_cost  # hit times grow with the level
    assert math.isfinite(rep.is_exponent) and math.isfinite(rep.rejection_exponent)


def test_scaling_rows_keep_the_given_level_order_at_any_worker_count():
    # the levels run largest first; the rows come back in the caller's order
    reps = [scaling_report([3, 2, 4], step=1e-2, replicas=300, seed=5, workers=w)
            for w in (1, 2)]
    assert [r.level for r in reps[0].rows] == [3, 2, 4]
    assert reps[0] == reps[1]


# sha256 of the engines' outputs (``tobytes()`` of each returned array, then
# the lane-step count as text) for one 4096-lane batch at step 4e-3, seed 1.
# Recorded before the engines kept their alive lanes compacted: a rewrite of
# either engine must reproduce every draw and every rounding.
_ENGINE_DIGESTS = {
    ("is", "bridge", None, 2): "c2d392c1972ecc57597766c5689214c2a40b1c78c67c284b2d7338994d949dc5",
    ("is", "bridge", None, 3): "275b4b8317d4ffc0afe55fdb500b025c807348c293e875fc98ae3ca27c05fb09",
    ("is", "bridge", 1.5, 2): "0d3958f75baebe9eff1d093485b2cd555a264e922f7678ee12acecc043346613",
    ("is", "bridge", 1.5, 3): "69cd728323c322345adcdd7b91024648d3f7d3b49b6ce073411e019a7fad247d",
    ("is", "grid", None, 2): "dc7dce10f6354949f660e436abd7992c56f1bfb3a78516cfca8a94376877b84c",
    ("is", "grid", None, 3): "7c065c90f12aed7a4b0ebf7b4fba7ffbab6a758bfc21ab928a3e160a49e7b4d8",
    ("is", "grid", 1.5, 2): "831fcf2de0083c6492fba9d85d4f243a0e345175aab39df6c3ef70eab8e85ce1",
    ("is", "grid", 1.5, 3): "58ee557db5e14138f2ee01856cdd401e27c8fac85905209a1421aadc45686327",
    ("rej", "bridge", None, 2): "c19bc2c357713d1e1f35c37d77c204aa3fb14b35549cf4d3c011b5bfa69a6bcb",
    ("rej", "bridge", None, 3): "f50118a63b99f928e485ffafe068a45a1a3b46e9d7d3964e01f9753c445b56c5",
    ("rej", "bridge", 1.5, 2): "cf590b45184a02ba1a6221e1ea22e71b02c07d82eb26163c7c048386e4883b2d",
    ("rej", "bridge", 1.5, 3): "6fff97c103ff0019427cf2d7c340098444da7925351fd2ce820fc035b9ad653b",
    ("rej", "grid", None, 2): "b482018ebad7537c8a10f9a19bcad0a8a030185b8770d21a623d903509e18817",
    ("rej", "grid", None, 3): "386bc31e8210c64a906495d5121203b4484503894d74d9619dde455e24729494",
    ("rej", "grid", 1.5, 2): "154040a5921bdd9970afe8f73d9902d1e130642049a7f0c3a91e4dbbe0eed18e",
    ("rej", "grid", 1.5, 3): "6715f212ca2d4912a11810248a99f2c6e7c57e81e2e6bdb72c6b16dcb8d9e7a4",
}


def _output_digest(out):
    digest = hashlib.sha256()
    for arr in out[:-1]:
        digest.update(arr.tobytes())
    digest.update(str(out[-1]).encode())
    return digest.hexdigest()


# the IS rows run a second time with path recording on, which must leave
# every output unchanged
_PINNED_CASES = (
    [pytest.param(*key, False, id="-".join(map(str, key))) for key in _ENGINE_DIGESTS]
    + [pytest.param(*key, True, id="-".join(map(str, key)) + "-record")
       for key in _ENGINE_DIGESTS if key[0] == "is"])


@pytest.mark.parametrize("engine,detection,occ_level,level,record", _PINNED_CASES)
def test_engine_outputs_pinned(engine, detection, occ_level, level, record):
    batch, purpose = {"is": (_is_batch, _P_IS), "rej": (_rej_batch, _P_REJ)}[engine]
    h = 4e-3
    extra = (True,) if record else ()
    out = batch(RngStream(1).generator(purpose, 0), 4096, level, h, occ_level,
                detection, int(HORIZON_CAP / h), *extra)
    if record:
        assert len(out[-1]) == 4096
        out = out[:-1]
    assert _output_digest(out) == _ENGINE_DIGESTS[(engine, detection, occ_level, level)]


# The IS engine's digest as above, at step 2.0, level 2, bridge detection:
# there 4 of the 4096 lanes stop on the level-0 coin with no crossing of 1
# seen, so the engine takes each one's last crossing from its final cell
# (at step 4e-3 none does).  Recorded before that fallback was rewritten.
_GUARD_DIGESTS = {
    None: "6a87d694bc1437fa954831fb75f12927ba40b2e5dcb2723b0d82c81853740f34",
    1.5: "48f247c05a06e397b4bd622b2ac63aae93484967810e44299cbf75fe73fa0eff",
}


@pytest.mark.parametrize("record", [False, True], ids=["stream", "record"])
@pytest.mark.parametrize("occ_level", list(_GUARD_DIGESTS))
def test_no_visit_guard_outputs_pinned(occ_level, record):
    h = 2.0
    out = _is_batch(RngStream(1).generator(_P_IS, 0), 4096, 2, h, occ_level,
                    "bridge", int(HORIZON_CAP / h), record)
    if record:
        assert len(out[-1]) == 4096
        out = out[:-1]
    assert _output_digest(out) == _GUARD_DIGESTS[occ_level]


class _ScriptedDraws:
    """Stands in for a generator: each call hands out the next scripted
    array (normals) or fills the asked size with the next scripted value
    (uniforms)."""

    def __init__(self, normals, uniforms):
        self._normals, self._uniforms = list(normals), list(uniforms)

    def standard_normal(self, size):
        return np.asarray(self._normals.pop(0), dtype=float).reshape(size)

    def random(self, size):
        return np.full(size, self._uniforms.pop(0))


# The pinned digests never draw a zero uniform.  A coin u < exp(arg) with
# u == 0.0 holds exactly while exp(arg) does not underflow: it stops the
# lane for -745 < arg < -700 (below the clip that applies to nonzero
# uniforms) and not for arg < -745.2.
@pytest.mark.parametrize("engine", ["is", "rej"])
@pytest.mark.parametrize("arg,stops", [(-720.0, True), (-760.0, False)],
                         ids=["subnormal-p", "p-underflows"])
def test_zero_uniform_coin(engine, arg, stops):
    h = 1e-3
    sq = math.sqrt(h)
    if engine == "is":
        # X' = 2 - |B| from 2, so the level-0 coin's arg is -2*2*xn/h; a
        # second step, if the lane is still alive, runs far below 0
        xn = arg * h / -4.0
        gen = _ScriptedDraws([[[(2.0 - xn) / sq, 0.0, 0.0]], [[10.0 / sq, 0.0, 0.0]]],
                             [0.0, 0.5, 0.5, 0.5])
        _xi, t0, _occ, _logw, steps = _is_batch(gen, 1, 2, h, None, "bridge", 10)
        stop_time = t0[0]
    else:
        # OU from 1, so the level-0 coin's arg is -2*xn/h; the upper coin's
        # is below -3000
        xn = arg * h / -2.0
        gen = _ScriptedDraws([[(xn - (1.0 - h)) / sq], [-1.0 / sq]], [0.0, 0.5])
        hit, dur, _occ, steps = _rej_batch(gen, 1, 2, h, None, "bridge", 10)
        assert not hit[0]
        stop_time = dur[0]
    if stops:
        assert steps == 1 and stop_time == 0.5 * h
    else:
        assert steps == 2 and h < stop_time <= 2 * h
