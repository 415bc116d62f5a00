"""Conditional expectations of a unit OU process given the rare event
that it reaches a high level before returning to zero.

The estimator never simulates the rare event.  It runs the complement of
the radial part of a 3-d Brownian motion downward from the high level
(``X'(t) = level - |B(t)|``, which a.s. hits 0 and never revisits the
level), reads the path backwards from its last visit of 1, and reweights
with the explicit density

    ``exp((level^2 + T0' - int_0^{T0'} X'(s)^2 ds) / 2)``

normalized by its sample mean.  One lane-parallel engine draws these
excursions; each lane's last-visit time of 1 is evaluated where its
crossing of 1 is recorded, and a later crossing overwrites it.
Built-in functionals are accumulated while it runs, and a custom
functional or :func:`sample_reversed_bridge` has it record each lane's
path and rebuild the reversed excursion afterwards.  A naive
rejection sampler over Euler OU paths serves as the brute-force oracle,
and a cost-scaling experiment contrasts the two as the level grows.
Both engines draw in Python and advance each step in one compiled call
(``_lanes.c``, built on first use by ``_native``), which runs without the
interpreter lock.

Both routes share the step size and the barrier-detection mode, so the
residual discretization error largely cancels in comparisons.  The
default detection mode is ``"bridge"`` (sub-step crossing coins): with
purely grid-based detection the two routes' O(sqrt(step)) biases point
in opposite directions and their difference is statistically visible at
the tolerances of the test suite.
"""

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .densities import EstimatorReport, importance_estimate
from .errors import HorizonExpiredError, InvalidArgument, ZeroAcceptance
from .paths import (HORIZON_CAP, ContinuousPath, ReversedExcursion,
                    ou_scale_ratio)
from .rng import RngStream, map_batches

__all__ = [
    "PathFunctional",
    "OuQuery",
    "BridgeSample",
    "ConditionalSamples",
    "sample_reversed_bridge",
    "conditional_samples",
    "estimate_conditional",
    "oracle_rejection",
    "scaling_report",
    "ScalingRow",
    "ScalingReport",
]

# the most lanes one batch holds; see _batch_sizes for the split
LANES_PER_BATCH = 65536

# substream purposes, so different drivers never share draws at one seed
_P_REJ = 11
_P_IS = 12


# ---------------------------------------------------------------------------
# bounded path functionals


@dataclass(frozen=True)
class PathFunctional:
    """Bounded functional of a path segment.

    The estimator requires bounded functionals; the cap is part of the
    functional's identity and any comparison oracle must use the same
    cap.  Built-in kinds are evaluated in a streaming fashion by the
    Monte Carlo engines; a custom functional receives the reversed
    excursion and its refined duration and must respect the declared
    cap.
    """

    kind: str  # 'capped-duration' | 'occupation-above' | 'indicator' | 'custom'
    cap: float
    level: Optional[float] = None
    fn: Optional[Callable] = None

    @staticmethod
    def capped_duration(cap: float) -> "PathFunctional":
        """min(segment duration, cap)."""
        if not cap > 0.0:
            raise InvalidArgument("cap must be positive")
        return PathFunctional("capped-duration", cap=float(cap))

    @staticmethod
    def occupation_above(level: float, cap: float) -> "PathFunctional":
        """min(time spent above ``level``, cap), straddle-cell convention."""
        if not (cap > 0.0 and math.isfinite(level)):
            raise InvalidArgument("cap must be positive and level finite")
        return PathFunctional("occupation-above", cap=float(cap), level=float(level))

    @staticmethod
    def indicator() -> "PathFunctional":
        """Constant 1; estimates the normalization itself."""
        return PathFunctional("indicator", cap=1.0)

    @staticmethod
    def custom(fn: Callable, cap: float) -> "PathFunctional":
        """``fn(excursion: ReversedExcursion, duration: float) -> float``,
        with ``|fn| <= cap`` enforced."""
        if not cap > 0.0:
            raise InvalidArgument("cap must be positive")
        return PathFunctional("custom", cap=float(cap), fn=fn)

    def evaluate(self, excursion: ReversedExcursion, duration: float) -> float:
        """Grid evaluation mirroring the streaming engines.

        The excursion segment starts with the snapped level value whose
        cell has length ``duration - floor`` of the remaining uniform
        grid; see the module docstring for conventions.
        """
        if self.kind == "custom":
            val = float(self.fn(excursion, duration))
            if abs(val) > self.cap * (1.0 + 1e-12):
                raise InvalidArgument("custom functional exceeded its declared cap")
            return val
        occ = 0.0
        if self.kind == "occupation-above":
            v = np.asarray(excursion.segment.values, dtype=float)
            h = excursion.segment.step
            if len(v) >= 2:
                first_gap = duration - (len(v) - 2) * h
                occ = _occ_cell(v[:1], v[1:2], self.level)[0] * first_gap
                occ += float(np.sum(_occ_cell(v[1:-1], v[2:], self.level)) * h)
        return float(self.payoff(duration, occ))

    def payoff(self, duration, occupation):
        """A built-in kind's payoff from a path's duration and its
        occupation above ``level``; scalars or arrays of replicas."""
        if self.kind == "capped-duration":
            return np.minimum(duration, self.cap)
        if self.kind == "occupation-above":
            return np.minimum(occupation, self.cap)
        if self.kind == "indicator":
            return np.ones(np.shape(duration))
        raise InvalidArgument("only built-in kinds have a streamed payoff")


def _occ_cell(a, b, level):
    """Fraction of linear cells from a to b (arrays) lying above ``level``.

    ``(hi - level) / span`` clipped to [0, 1]: 0 where ``hi <= level``
    and 1 where ``lo >= level``, for every cell whose span is 0 or at
    least the 1e-300 floor that guards the division.
    """
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    span = hi - lo
    np.maximum(span, 1e-300, out=span)
    frac = np.subtract(hi, level, out=hi)
    frac /= span
    np.maximum(frac, 0.0, out=frac)
    return np.minimum(frac, 1.0, out=frac)


@dataclass(frozen=True)
class OuQuery:
    """One conditional-expectation estimation task."""

    level: int
    functional: PathFunctional
    replicas: int
    step: float
    seed: int
    detection: str = "bridge"

    def __post_init__(self):
        if int(self.level) != self.level or self.level < 2:
            raise InvalidArgument("level must be an integer >= 2")
        if self.replicas < 1:
            raise InvalidArgument("replicas must be >= 1")
        if not 0.0 < self.step < math.inf:
            raise InvalidArgument("step must be finite and positive")
        if self.detection not in ("grid", "bridge"):
            raise InvalidArgument("detection must be 'grid' or 'bridge'")


@dataclass(frozen=True)
class BridgeSample:
    """One draw of the reversed-excursion construction.

    ``excursion.segment`` runs from the snapped level-1 value up to the
    starting level; ``log_weight`` equals
    ``(level^2 + hit_time - integral_sq)/2`` exactly.
    """

    excursion: ReversedExcursion
    hit_time: float         # refined time X' reaches 0
    integral_sq: float      # trapezoid of X'^2 up to hit_time
    log_weight: float
    last_visit_time: float  # refined last visit of level 1

    def __post_init__(self):
        level = float(self.excursion.segment.values[-1])
        expect = 0.5 * (level * level + self.hit_time - self.integral_sq)
        if abs(expect - self.log_weight) > 1e-12 * max(1.0, abs(expect)):
            raise InvalidArgument("log_weight inconsistent with its inputs")


# ---------------------------------------------------------------------------
# lane-parallel engines


def _is_batch(gen, lanes, level, h, occ_level, detection, max_steps,
              record=False):
    """One batch of reversed-excursion draws.

    Returns per-lane last-visit times of 1, hit times of 0, occupation up
    to the last visit, log weights, and the lane-step count; with
    ``record`` also each lane's :class:`ReversedExcursion` (see
    :func:`_replay_excursions`).  Recording draws nothing and changes no
    other output.

    Each step draws here and is advanced by the compiled ``is_step``,
    which keeps the alive-lane state compacted in lane order (``ids``
    holds each position's lane) and writes per-lane results by lane id.
    Each crossing of 1 it records overwrites the lane's cell, last-visit
    time and occupation up to the visit, so the loop leaves every output
    final; ``last_cell`` also serves the record replay.
    """
    from . import _native  # on first use: start-up builds and loads nothing
    is_step = _native.kernels().is_step
    N = float(level)
    sq = math.sqrt(h)
    track_occ = occ_level is not None
    L = occ_level if track_occ else 0.0
    bridge = detection == "bridge"

    t0 = np.full(lanes, np.nan)
    logw = np.full(lanes, np.nan)
    last_cell = np.full(lanes, -1, dtype=np.int64)  # -1: no crossing of 1 yet
    xi = np.full(lanes, np.nan)
    occ_xi = np.full(lanes, np.nan)
    ids = np.arange(lanes, dtype=np.int64)
    b = np.zeros((lanes, 3))
    x = np.full(lanes, N)
    int_sq = np.zeros(lanes)
    occ = np.zeros(lanes)
    # per step: the new value at each position, and the stopped positions
    rec = [] if record else None
    xn = np.empty(lanes) if record else None
    stopped = np.empty(lanes, dtype=np.int64) if record else None
    address, draws = _native.address, _native.draws
    buffers = [address(a) for a in (ids, b, x, int_sq, occ, t0, logw,
                                    last_cell, xi, occ_xi, xn, stopped)]
    n = lanes
    steps_done = 0
    step = 0
    while n:
        step += 1
        if step > max_steps:
            raise HorizonExpiredError("lane exceeded the horizon cap")
        z = draws(gen.standard_normal((n, 3)), (n, 3))
        u0 = draws(gen.random(n), (n,)) if bridge else None
        u1 = draws(gen.random(n), (n,)) if bridge else None
        steps_done += n
        alive = is_step(n, step, N, h, sq, L, track_occ, bridge,
                        address(z), address(u0), address(u1), *buffers)
        if record:
            rec.append([xn[:n].copy(), stopped[:n - alive].copy() if alive < n else None])
        n = alive

    if record:
        return (xi, t0, occ_xi, logw, steps_done,
                _replay_excursions(rec, N, h, last_cell, xi))
    return xi, t0, occ_xi, logw, steps_done


def _replay_excursions(rec, level, h, cell, xi):
    """Rebuild each lane's reversed excursion from a batch's records.

    ``rec`` holds, per step, the compacted ``xn`` and the positions that
    stopped on that step (or None); replaying the compaction maps each
    position to its lane.  Lane ``i`` gets the values
    ``[1, x_c, ..., x_1, level]`` with ``c = cell[i]`` the grid cell of
    its last crossing of 1, as views into one buffer; ``rec`` is emptied
    on the way.
    """
    size = cell + 2
    end = np.cumsum(size)
    start = end - size
    top = end - 1   # where each lane's x_0 goes; x_k sits k places lower
    flat = np.empty(int(end[-1]))
    flat[start] = 1.0
    flat[top] = level
    for k in range(1, len(rec) + 1):
        xk, stopped = rec[k - 1]
        rec[k - 1] = None
        want = cell >= k
        if not want.any():
            break
        flat[top[want] - k] = xk[want]
        if stopped is not None:
            top, cell = np.delete(top, stopped), np.delete(cell, stopped)
    rec.clear()
    return [ReversedExcursion(segment=ContinuousPath(step=h, values=flat[a:b]),
                              origin_time=t, level=1.0)
            for a, b, t in zip(start.tolist(), end.tolist(), xi.tolist())]


def _rej_batch(gen, lanes, level, h, occ_level, detection, max_steps):
    """One batch of naive OU rejection attempts from 1 between 0 and level.

    Each step draws here and is advanced by the compiled ``rej_step``,
    which keeps the alive-lane state compacted as in :func:`_is_batch`.
    """
    from . import _native
    rej_step = _native.kernels().rej_step
    N = float(level)
    sq = math.sqrt(h)
    a_coef = 1.0 - h
    track_occ = occ_level is not None
    L = occ_level if track_occ else 0.0
    bridge = detection == "bridge"

    dur = np.full(lanes, np.nan)
    hit_up = np.zeros(lanes, dtype=bool)
    occ_out = np.zeros(lanes)
    ids = np.arange(lanes, dtype=np.int64)
    x = np.ones(lanes)
    occ = np.zeros(lanes)
    address, draws = _native.address, _native.draws
    buffers = [address(a) for a in (ids, x, occ, dur, hit_up, occ_out)]
    n = lanes
    steps_done = 0
    step = 0
    while n:
        step += 1
        if step > max_steps:
            raise HorizonExpiredError("lane exceeded the horizon cap")
        z = draws(gen.standard_normal(n), (n,))
        u = draws(gen.random(n), (n,)) if bridge else None
        steps_done += n
        n = rej_step(n, step, N, h, sq, a_coef, L, track_occ, bridge,
                     address(z), address(u), *buffers)
    return hit_up, dur, occ_out, steps_done


def _batch_sizes(total):
    """One batch up to ``LANES_PER_BATCH`` lanes, else the fewest even
    number of batches of at most that many, sizes differing by at most one
    lane with the larger first, so that two workers get equal shares."""
    count = 1 if total <= LANES_PER_BATCH else 2 * -(-total // (2 * LANES_PER_BATCH))
    return [total // count + (i < total % count) for i in range(count)]


def _run_batched(batch, purpose, seed, total, level, h, occ_level, detection,
                 workers, *extra):
    """Run ``batch`` over the batches of :func:`_batch_sizes` with
    :func:`~rarepath.rng.map_batches`, batch ``i`` drawing from substream
    ``(seed, purpose, i)``, and merge the outputs in batch order (arrays
    and lists joined, counts summed); the split depends only on
    ``total``, never on the worker count."""
    max_steps = int(HORIZON_CAP / h)

    def one(i, m):
        return batch(RngStream(seed).generator(purpose, i), m, level, h,
                     occ_level, detection, max_steps, *extra)

    merged = []
    for col in zip(*map_batches(one, _batch_sizes(total), workers)):
        if isinstance(col[0], np.ndarray):
            merged.append(np.concatenate(col))
        elif isinstance(col[0], list):
            merged.append([e for part in col for e in part])
        else:
            merged.append(sum(col))
    return tuple(merged)


def _run_is(seed, level, h, replicas, occ_level, detection, workers,
            record=False):
    return _run_batched(_is_batch, _P_IS, seed, replicas, level, h, occ_level,
                        detection, workers, record)


def _run_rej(seed, level, h, attempts, occ_level, detection, workers):
    return _run_batched(_rej_batch, _P_REJ, seed, attempts, level, h,
                        occ_level, detection, workers)


# ---------------------------------------------------------------------------
# public estimators


@dataclass(frozen=True)
class ConditionalSamples:
    """Per-replica dump of the reweighted sampler: hit times of 0,
    squared-path integrals, log weights, and functional payoffs."""

    hit_times: np.ndarray
    integrals_sq: np.ndarray
    log_weights: np.ndarray
    payoffs: np.ndarray
    total_time_units: float

    def columns(self):
        """(replica_id, hit_time, integral_sq, log_weight, payoff) columns."""
        return [np.arange(len(self.log_weights)), self.hit_times,
                self.integrals_sq, self.log_weights, self.payoffs]


def sample_reversed_bridge(stream: RngStream, level: int, step: float,
                           detection: str = "bridge") -> BridgeSample:
    """Draw one reversed excursion with its importance weight.

    A one-lane run of the engine behind :func:`estimate_conditional`,
    drawing from ``stream.generator()``: ``X' = level - |B|`` runs to its
    hit of 0, the squared path is integrated to the refined hit time, and
    the prefix up to the last visit of 1 is reversed.
    """
    OuQuery(level, PathFunctional.indicator(), 1, step, 0, detection)  # validates
    xi, t0, _occ, logw, _steps, (exc,) = _is_batch(
        stream.generator(), 1, level, step, None, detection,
        int(HORIZON_CAP / step), record=True)
    lvl = float(level)
    return BridgeSample(excursion=exc, hit_time=float(t0[0]),
                        integral_sq=float(lvl * lvl + t0[0] - 2.0 * logw[0]),
                        log_weight=float(logw[0]), last_visit_time=float(xi[0]))


def conditional_samples(query: OuQuery, workers: int = 1) -> ConditionalSamples:
    """Draw the per-replica sample table behind :func:`estimate_conditional`.

    Every functional runs on the same engine batches and draws; a custom
    one has the engine record each lane's reversed excursion and is
    evaluated on them in lane order, on the calling thread.
    """
    f = query.functional
    xi, t0, occ, logw, steps, *excursions = _run_is(
        query.seed, query.level, query.step, query.replicas, f.level,
        query.detection, workers, record=f.kind == "custom")
    if excursions:
        payoffs = np.array([f.evaluate(e, e.origin_time) for e in excursions[0]])
    else:
        payoffs = f.payoff(xi, occ)
    lvl = float(query.level)
    return ConditionalSamples(hit_times=t0, integrals_sq=lvl * lvl + t0 - 2.0 * logw,
                              log_weights=logw, payoffs=payoffs,
                              total_time_units=steps * query.step)


def estimate_conditional(query: OuQuery, workers: int = 1) -> EstimatorReport:
    """Self-normalized reweighted estimate of
    ``E[f(path up to the level hit) | level hit before 0]``.

    Every functional runs on the lane-parallel engine with the same
    draws: built-in ones are accumulated as the lanes run, a custom one
    is evaluated on the recorded excursions.  The report carries the
    effective sample size and weight-tail diagnostics; with fewer than
    two replicas the standard error is the infinity sentinel.
    """
    table = conditional_samples(query, workers=workers)
    return importance_estimate(
        payoffs=table.payoffs, log_weights=table.log_weights,
        self_normalized=True,
        extras={
            "replicas": query.replicas,
            "step": query.step,
            "seed": query.seed,
            "level": query.level,
            "mean_hit_time": float(np.mean(table.hit_times)),
            "total_time_units": table.total_time_units,
        })


def oracle_rejection(query: OuQuery, workers: int = 1) -> EstimatorReport:
    """Brute-force oracle: Euler OU paths from 1, keeping those that
    reach the level before 0; plain sample mean over accepted paths.

    ``query.replicas`` counts attempts.  Warns when the scale-function
    hitting probability predicts fewer than ``1e-4`` acceptances per
    attempt; raises if nothing is accepted.
    """
    p_hit = ou_scale_ratio(1.0, float(query.level))
    if p_hit < 1e-4:
        warnings.warn(
            f"acceptance probability ~{p_hit:.3g}; the rejection oracle "
            "will waste nearly all its work", RuntimeWarning, stacklevel=2)
    f = query.functional
    if f.kind == "custom":
        raise InvalidArgument("the rejection oracle supports built-in functionals only")
    hit, dur, occ, steps = _run_rej(query.seed, query.level, query.step,
                                    query.replicas, f.level,
                                    query.detection, workers)
    n_acc = int(np.sum(hit))
    if n_acc == 0:
        raise ZeroAcceptance("no attempt reached the level before 0")
    payoffs = f.payoff(dur[hit], occ[hit])
    est = float(np.mean(payoffs))
    se = float(np.std(payoffs, ddof=1) / math.sqrt(n_acc)) if n_acc > 1 else math.inf
    acc_rate = n_acc / query.replicas
    return EstimatorReport(
        estimate=est, stderr=se, ess=float(n_acc), n_samples=n_acc,
        extras={
            "attempts": query.replicas,
            "acceptance_rate": acc_rate,
            "acceptance_stderr": math.sqrt(acc_rate * (1.0 - acc_rate) / query.replicas),
            "quadrature_acceptance": p_hit,
            "total_time_units": steps * query.step,
            "step": query.step,
            "seed": query.seed,
            "level": query.level,
        })


@dataclass(frozen=True)
class ScalingRow:
    level: int
    is_cost: float                     # time units per reweighted sample
    is_cost_per_effective: float       # ESS-adjusted
    ess_fraction: float
    rejection_cost_per_effective: float
    ratio: float


@dataclass(frozen=True)
class ScalingReport:
    rows: list
    is_exponent: float
    rejection_exponent: float


def scaling_report(levels, step: float, replicas: int, seed: int,
                   workers: int = 1, detection: str = "bridge") -> ScalingReport:
    """Cost comparison of the reweighted sampler against naive rejection
    across levels.

    Rejection cost per effective sample is ``mean attempt cost /
    acceptance probability`` with the acceptance taken from the scale
    function (measuring it by simulation is exactly what becomes
    infeasible for large levels); attempt cost comes from a capped Monte
    Carlo run.  Log-log slopes, fitted over at least two distinct levels,
    are reported descriptively, not asserted.  The levels run on up to
    ``workers`` threads, largest first, each level's engines on one.
    """
    # every level must make a valid query, and a slope needs two of them
    levels = [OuQuery(lv, PathFunctional.indicator(), replicas, step, seed,
                      detection).level for lv in levels]
    if len(set(levels)) < 2:
        raise InvalidArgument("the cost exponents need at least two distinct levels")
    p_hits = [ou_scale_ratio(1.0, float(lv)) for lv in levels]
    if 0.0 in p_hits:
        raise InvalidArgument(f"the hitting probability of level {levels[p_hits.index(0.0)]} "
                              "underflows float64, so its rejection cost is infinite")

    def row(_, i):
        # one worker inside a level, so that no pools nest
        lv = levels[i]
        xi, t0, occ, logw, steps = _run_is(seed, lv, step, replicas, None,
                                           detection, 1)
        rep = importance_estimate(payoffs=np.ones_like(logw), log_weights=logw)
        is_cost = steps * step / replicas
        ess_frac = rep.ess / replicas
        is_cost_eff = is_cost / ess_frac

        n_cost = min(replicas, 20000)
        hit, dur, _occ, steps_rej = _run_rej(seed, lv, step, n_cost, None,
                                             detection, 1)
        attempt_cost = steps_rej * step / n_cost
        rej_cost_eff = attempt_cost / p_hits[i]
        return ScalingRow(
            level=int(lv), is_cost=is_cost, is_cost_per_effective=is_cost_eff,
            ess_fraction=ess_frac, rejection_cost_per_effective=rej_cost_eff,
            ratio=rej_cost_eff / is_cost_eff)

    # the cost grows with the level, so the longest runs start first
    order = sorted(range(len(levels)), key=lambda i: -levels[i])
    done = dict(zip(order, map_batches(row, order, workers)))
    rows = [done[i] for i in range(len(levels))]
    lv_log = np.log([r.level for r in rows])
    is_exp = float(np.polyfit(lv_log, np.log([r.is_cost_per_effective for r in rows]), 1)[0])
    rej_exp = float(np.polyfit(lv_log, np.log([r.rejection_cost_per_effective for r in rows]), 1)[0])
    return ScalingReport(rows=rows, is_exponent=is_exp, rejection_exponent=rej_exp)
