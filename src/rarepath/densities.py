"""Log-space Radon-Nikodym density accumulators and the weighted-sample
estimator.

Three explicit density families are provided: the exponential of a drift
integral against Brownian increments, the counting-process density
``exp(-int u dL - int (e^-u - 1) dA)``, and the intensity-change density
for compound Poisson paths.  Each accumulator keeps its stochastic and
compensator contributions separately and only ever exponentiates inside
:func:`importance_estimate`, after max-subtraction.
"""

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import InvalidArgument, InvalidIntensity
from .jumps import IntensityFn, JumpPath, compensator
from .paths import ContinuousPath

__all__ = [
    "DensityAccumulator",
    "EstimatorReport",
    "continuous_exponential",
    "counting_density",
    "cpp_intensity_density",
    "importance_estimate",
]


@dataclass(frozen=True)
class DensityAccumulator:
    """State of a putative density process at time ``t``.

    ``log_m`` is the sum ``log_stochastic_part + log_compensator_part``,
    and a freshly started accumulator has ``log_m == 0`` so the process
    starts at one.
    """

    log_stochastic_part: float
    log_compensator_part: float
    t: float

    @property
    def log_m(self) -> float:
        return self.log_stochastic_part + self.log_compensator_part

    @property
    def m(self) -> float:
        return math.exp(self.log_m)


@dataclass(frozen=True)
class EstimatorReport:
    estimate: float
    stderr: float
    ess: float
    n_samples: int
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.n_samples > 0 and not 0.0 < self.ess <= self.n_samples + 1e-9:
            raise InvalidArgument("ess must lie in (0, n_samples]")


# ---------------------------------------------------------------------------
# density builders


def continuous_exponential(w_path: ContinuousPath, mu: np.ndarray) -> DensityAccumulator:
    """Exponential density of a drift ``mu`` against the increments of
    ``w_path``: ``exp(sum mu_k . dW_k - 0.5 sum |mu_k|^2 h)``.

    ``mu`` is the drift sampled on the same grid as the path (left-point
    evaluation; the final row is unused).  A zero drift gives the
    constant density one.
    """
    w = np.asarray(w_path.values, dtype=float)
    mu = np.asarray(mu, dtype=float)
    if mu.shape != w.shape:
        raise InvalidArgument("mu must be aligned to the path grid")
    h = w_path.step
    dw = np.diff(w, axis=0)
    mu_left = mu[:-1]
    if w.ndim == 1:
        stoch = float(np.einsum("i,i->", mu_left, dw))
        quad = float(np.einsum("i,i->", mu_left, mu_left))
    else:
        stoch = float(np.sum(mu_left * dw))
        quad = float(np.sum(mu_left * mu_left))
    return DensityAccumulator(log_stochastic_part=stoch,
                              log_compensator_part=-0.5 * quad * h,
                              t=w_path.duration)


def _stieltjes_quad(f: Callable, a_eval: Callable, lo: float, hi: float,
                    tol: float) -> float:
    """Adaptive integral of ``f dA`` for continuous A given only as an
    evaluator, by midpoint refinement with tolerance halving."""
    def rec(a, b, tol_here, depth):
        mid = 0.5 * (a + b)
        da_left = a_eval(mid) - a_eval(a)
        da_right = a_eval(b) - a_eval(mid)
        coarse = f(mid) * (a_eval(b) - a_eval(a))
        fine = f(0.5 * (a + mid)) * da_left + f(0.5 * (mid + b)) * da_right
        if depth >= 40 or abs(fine - coarse) <= tol_here:
            return fine
        half = 0.5 * tol_here
        return rec(a, mid, half, depth + 1) + rec(mid, b, half, depth + 1)

    if hi <= lo:
        return 0.0
    return rec(lo, hi, tol, 0)


def counting_density(count_path: JumpPath, a_eval: Callable, u: Callable,
                     t: float, u_bound: float,
                     quad_tol: float = 1e-10) -> DensityAccumulator:
    """Density ``exp(-int_0^t u dL - int_0^t (exp(-u)-1) dA)`` for a
    counting path ``L`` with continuous compensator evaluator ``a_eval``.

    ``u`` must be a deterministic function bounded by ``u_bound`` in
    absolute value; the bound is checked at every evaluation.
    """
    if not 0.0 < u_bound < math.inf:
        raise InvalidArgument("u_bound must be finite and positive")
    marks = np.asarray(count_path.marks)
    if marks.size and (marks.shape[1] != 1 or np.any(marks[:, 0] != 1.0)):
        raise InvalidArgument("counting path must carry unit marks")
    if t < 0.0 or t > count_path.horizon + 1e-12:
        raise InvalidArgument("t outside [0, horizon]")

    def u_checked(s):
        val = float(u(s))
        if abs(val) > u_bound * (1.0 + 1e-12):
            raise InvalidArgument(f"|u({s})| exceeds the declared bound {u_bound}")
        return val

    jumps = count_path.jump_times[count_path.jump_times <= t]
    stoch = -sum(u_checked(s) for s in jumps)
    comp = -_stieltjes_quad(lambda s: math.exp(-u_checked(s)) - 1.0,
                            a_eval, 0.0, t, quad_tol)
    return DensityAccumulator(log_stochastic_part=stoch,
                              log_compensator_part=comp, t=t)


def cpp_intensity_density(path: JumpPath, g1: IntensityFn, g2: IntensityFn,
                          t: float, mode: str = "jump") -> DensityAccumulator:
    """Density reweighting a compound Poisson path from intensity ``g1``
    to ``g2`` at time ``t``.

    ``mode="jump"`` uses ``exp(sum log(g2/g1) at jumps -
    int (g2-g1) ds)``, whose unit expectation the test suite confirms by
    Monte Carlo.  ``mode="compensated"`` integrates the log-ratio against the
    compensated count instead, i.e. it subtracts the additional term
    ``int (log g2 - log g1) g1 ds`` from the stochastic part; both modes
    expose the same compensator component, so their log difference is
    exactly that extra integral.  Integrands at jump times are evaluated
    against the pre-jump path (predictability).
    """
    if mode not in ("jump", "compensated"):
        raise InvalidArgument("mode must be 'jump' or 'compensated'")
    if t < 0.0 or t > path.horizon + 1e-12:
        raise InvalidArgument("t outside [0, horizon]")

    def integral(g):
        return compensator(path, g, t, quad_tol=1e-10)

    log_ratio = _positive_rates(lambda r1, r2: math.log(r2) - math.log(r1), g1, g2)
    stoch = 0.0  # a plain loop: sum() of floats is compensated from Python 3.12
    for s in path.jump_times[path.jump_times <= t]:
        stoch += log_ratio.eval(s, path)
    comp = -(integral(_positive_rates(lambda r: r, g2))
             - integral(_positive_rates(lambda r: r, g1)))
    if mode == "compensated":
        stoch -= integral(_positive_rates(
            lambda r1, r2: (math.log(r2) - math.log(r1)) * r1, g1, g2))
    return DensityAccumulator(log_stochastic_part=stoch,
                              log_compensator_part=comp, t=t)


def _positive_rates(f: Callable, *gs: IntensityFn) -> IntensityFn:
    """The intensity ``f(r1, r2, ...)`` of the rates of ``gs``, raising
    :class:`InvalidIntensity` wherever one of them is not strictly
    positive.  Rates of one kind keep it, so state rates stay exact
    sums over constancy intervals; mixed kinds combine as a predictable
    intensity."""
    def checked(rates):
        if any(r <= 0.0 for r in rates):
            raise InvalidIntensity("intensities must be strictly positive on the path")
        return f(*rates)

    if len({g.kind for g in gs}) == 1:
        return IntensityFn(gs[0].kind, lambda *a: checked([float(g.fn(*a)) for g in gs]))
    return IntensityFn.predictable(lambda s, p: checked([g.eval(s, p) for g in gs]))


# ---------------------------------------------------------------------------
# weighted-sample estimator


def importance_estimate(payoffs: np.ndarray, log_weights: np.ndarray,
                        self_normalized: bool = True,
                        extras: Optional[dict] = None) -> EstimatorReport:
    """Estimate from arrays of payoffs and their log weights, in log-space
    throughout.

    The self-normalized form returns ``sum(w H)/sum(w)`` with a
    delta-method standard error; the non-normalized form returns
    ``mean(w H)`` (the max-subtracted exponentiation can overflow only if
    a single weight exceeds the float range times the sample size).  A
    single sample reports an infinite standard error.
    """
    payoffs = np.asarray(payoffs, dtype=float)
    log_weights = np.asarray(log_weights, dtype=float)
    if payoffs.size == 0:
        raise InvalidArgument("samples must be nonempty")
    if not np.all(np.isfinite(log_weights)):
        raise InvalidArgument("log weights must be finite")

    n = payoffs.size
    m = float(np.max(log_weights))
    w = np.exp(log_weights - m)
    sw = float(np.sum(w))
    ess = sw * sw / float(np.einsum("i,i->", w, w))
    wn = w / sw
    mean_ratio = float(np.einsum("i,i->", wn, payoffs))
    if self_normalized:
        if np.all(payoffs == payoffs[0]):
            # the ratio estimator is exactly the constant, whatever the weights
            estimate, var = float(payoffs[0]), 0.0
        else:
            estimate = mean_ratio
            var = float(np.sum(wn * wn * (payoffs - mean_ratio) ** 2))
        stderr = math.sqrt(var) if n > 1 else math.inf
    else:
        log_scale = m + math.log(sw / n)
        estimate = math.exp(log_scale) * mean_ratio
        hw = w * payoffs
        var = float(np.var(hw, ddof=1)) / n if n > 1 else math.inf
        stderr = math.exp(m) * math.sqrt(var) if n > 1 else math.inf
    info = {
        "max_log_weight": m,
        "top1_weight_share": float(np.max(w) / sw),
    }
    if extras:
        info.update(extras)
    return EstimatorReport(estimate=estimate, stderr=stderr, ess=ess,
                           n_samples=n, extras=info)
