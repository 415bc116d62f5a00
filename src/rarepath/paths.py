"""Continuous sample paths: Brownian motion, stopped-path containers, path
post-processing (last-passage extraction, time reversal, quadrature) and
the OU scale function.

:func:`simulate_brownian` is a pure function of an
:class:`~rarepath.rng.RngStream` and its parameters: identical inputs give
bitwise-identical paths.  Stopped OU paths and the level-complement
radial process are drawn only by the passage engines
(:mod:`rarepath.passage`); :class:`StoppedSegment` and
:func:`reversed_last_excursion` are the independent reference their
recorded excursions are checked against.

Barrier handling
----------------
Two detection modes are supported.  ``"grid"`` stops at the first grid
point at or past a barrier; sub-grid excursions across a barrier are
missed, which biases hitting probabilities by O(sqrt(step)).
``"bridge"`` additionally flips, per step, a coin with the Brownian-bridge
probability ``exp(-2*d_before*d_after/step)`` that the barrier was touched
inside the step, which reduces the detection bias to O(step).  The coin is
stated once, in ``_lanes.c``, for the passage engines and the
inverse-Bessel family.  :func:`crossing_fraction` places a crossing inside
its step, by linear interpolation for a grid stop and at mid-step for a
coin stop, for :func:`reversed_last_excursion` (the passage step states it
in C, bit for bit).  A grid stop keeps its overshoot value; a coin stop
snaps the final value to the barrier.
"""

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument, LevelNeverReached
from .rng import RngStream

__all__ = [
    "Hit",
    "ContinuousPath",
    "StoppedSegment",
    "ReversedExcursion",
    "crossing_fraction",
    "simulate_brownian",
    "reversed_last_excursion",
    "path_integral_square",
    "ou_scale_ratio",
    "ou_scale_ratio_log",
    "HORIZON_CAP",
]

#: Hard ceiling (time units) on the lanes of the passage engines.
HORIZON_CAP = 1.0e6


class Hit(enum.Enum):
    LOWER = "lower"
    UPPER = "upper"


@dataclass(frozen=True)
class ContinuousPath:
    """Uniformly gridded path; the value at index k sits at time ``k*step``.

    ``values`` has shape ``(n,)`` when ``dim == 1`` and ``(n, dim)``
    otherwise.
    """

    step: float
    values: np.ndarray
    dim: int = 1

    def __post_init__(self):
        if not 0.0 < self.step < math.inf:
            raise InvalidArgument("step must be finite and positive")
        v = np.asarray(self.values)
        if v.size == 0:
            raise InvalidArgument("path must hold at least one value")
        if self.dim == 1:
            if v.ndim != 1:
                raise InvalidArgument("dim=1 path must have 1-d values")
        elif v.ndim != 2 or v.shape[1] != self.dim:
            raise InvalidArgument("values shape does not match dim")

    def __len__(self):
        return len(self.values)

    @property
    def duration(self) -> float:
        return (len(self.values) - 1) * self.step

    @property
    def times(self) -> np.ndarray:
        return np.arange(len(self.values)) * self.step


@dataclass(frozen=True)
class StoppedSegment:
    """A path together with where and why it stopped.

    ``stop_time_refined`` is the linearly interpolated (grid mode) or
    mid-step (bridge mode) crossing time; it always lies within the grid
    cell ending at ``stop_index``.
    """

    path: ContinuousPath
    stop_index: int
    hit: Hit
    stop_time_refined: float

    def __post_init__(self):
        if not 0 <= self.stop_index < len(self.path.values):
            raise InvalidArgument("stop_index outside the path")


@dataclass(frozen=True)
class ReversedExcursion:
    """Time reversal of the path segment between time zero and the last
    visit of a level.

    ``segment.values[0]`` is the level (up to one grid cell of
    interpolation error) and the final value is the original starting
    point of the path; ``origin_time`` is the refined last-visit time in
    the original clock.
    """

    segment: ContinuousPath
    origin_time: float
    level: float


# ---------------------------------------------------------------------------
# simulators


def crossing_fraction(a, b, barrier, grid):
    """Fraction of a step from ``a`` to ``b`` at which a path crosses
    ``barrier``.

    Where ``grid`` holds (``b`` is at or past the barrier) the crossing is
    interpolated linearly, ``(barrier - a)/(b - a)``, exactly 1 where
    ``b == barrier``; elsewhere a bridge coin stopped the path and the
    crossing sits at mid-step, 0.5.  Arguments broadcast as arrays.

    The interpolated fraction is clamped to ``[0, 1]``: on a step that
    really straddles the barrier the clamp changes no bit, and a step that
    does not (a sign test ``(a - barrier)*(b - barrier) <= 0`` that
    underflows to 0 lets one through) still gets a crossing inside it.
    """
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        frac = np.clip(np.subtract(barrier, a) / np.subtract(b, a), 0.0, 1.0)
    return np.where(grid, np.where(b == barrier, 1.0, frac), 0.5)


def simulate_brownian(stream: RngStream, dim: int, step: float,
                      horizon: float) -> ContinuousPath:
    """Standard Brownian path from the origin on a uniform grid.

    Increments are N(0, step) per coordinate.
    """
    if dim < 1:
        raise InvalidArgument("dim must be >= 1")
    # chained, so that a NaN or an infinite step or horizon fails it too
    if not 0.0 < step <= horizon < math.inf:
        raise InvalidArgument("need 0 < step <= horizon < inf")
    steps = horizon / step
    if not math.isfinite(steps):
        raise InvalidArgument("horizon / step overflows")
    n_steps = int(math.floor(steps + 1e-9))
    gen = stream.generator()
    if dim == 1:
        inc = gen.standard_normal(n_steps) * math.sqrt(step)
        vals = np.concatenate([[0.0], np.cumsum(inc)])
    else:
        inc = gen.standard_normal((n_steps, dim)) * math.sqrt(step)
        vals = np.vstack([np.zeros(dim), np.cumsum(inc, axis=0)])
    return ContinuousPath(step=step, values=vals, dim=dim)


# ---------------------------------------------------------------------------
# post-processing


def reversed_last_excursion(seg: StoppedSegment, level: float) -> ReversedExcursion:
    """Time-reverse the path from its start to its last visit of ``level``.

    The last visit is the final grid crossing (sign change of
    ``value - level``, ties at exact equality broken toward the later
    index) before the stop index; its time is refined by linear
    interpolation.  The returned segment reads the original path
    backwards from that crossing, so it starts at ``level`` (up to one
    grid cell) and ends at the path's starting value.  Reversing the
    returned values again recovers the original prefix.
    """
    if seg.hit is not Hit.LOWER:
        raise InvalidArgument("excursion extraction expects a lower-barrier stop")
    v = np.asarray(seg.path.values[: seg.stop_index + 1], dtype=float)
    if v.ndim != 1:
        raise InvalidArgument("scalar path required")
    d = v - level
    exact = d == 0.0
    change = np.zeros(len(v), dtype=bool)
    change[1:] = d[:-1] * d[1:] < 0.0
    hits = np.flatnonzero(exact | change)
    if hits.size == 0:
        raise LevelNeverReached(f"path never reaches level {level}")
    kc = int(hits[-1])
    h = seg.path.step
    if exact[kc]:
        t_ref = kc * h
    else:
        frac = crossing_fraction(v[kc - 1], v[kc], level, True)
        t_ref = (kc - 1) * h + frac * h
    segment = ContinuousPath(step=h, values=v[kc::-1].copy())
    return ReversedExcursion(segment=segment, origin_time=t_ref, level=level)


def path_integral_square(path: ContinuousPath, stop_time: float) -> float:
    """Trapezoidal integral of the squared scalar path on ``[0, stop_time]``.

    The final partial cell runs to the (linearly interpolated) value at
    ``stop_time``.
    """
    v = np.asarray(path.values, dtype=float)
    if v.ndim != 1:
        raise InvalidArgument("scalar path required")
    h = path.step
    dur = path.duration
    if not 0.0 <= stop_time <= dur + 1e-12 * max(1.0, dur):
        raise InvalidArgument("stop_time outside the path")
    stop_time = min(stop_time, dur)
    kf = int(math.floor(stop_time / h + 1e-12))
    kf = min(kf, len(v) - 1)
    sq = v * v
    total = float(np.sum((sq[: kf] + sq[1: kf + 1])) * 0.5 * h) if kf > 0 else 0.0
    rem = stop_time - kf * h
    if rem > 1e-15 and kf + 1 < len(v):
        frac = rem / h
        v_stop = v[kf] + frac * (v[kf + 1] - v[kf])
        total += 0.5 * (sq[kf] + v_stop * v_stop) * rem
    return total


# y*y + log(dawsn(y)) at y = 1, 2, ..., 27, the doubles it returns: the
# package asks only for x = 1 and integer levels, and beyond 27 the hitting
# ratio from 1 underflows.  Answering these from a table keeps scipy out of
# the rejection oracle; tests pin every entry to the closed form.
_SCALE_LOG_AT_INT = dict(enumerate((
    0.3802510526266498, 2.8004852070379194, 7.275549757142676,
    13.954751177161011, 22.718531126302235, 33.529501322777996,
    46.37142122330338, 61.23538260149257, 78.11589937839808,
    97.00933182597365, 117.91313336338091, 140.82544906224965,
    165.74488425119713, 192.6703629880732, 221.60103732378178,
    252.53622685214185, 285.4753771270116, 320.41803027099684,
    357.36380371077354, 396.3123744764426, 437.2634674003689,
    480.21684610565313, 525.1723060269914, 572.1296689365665,
    621.088778600923, 672.0494972990929, 725.0117030045387,
), start=1))


def _scale_log(y: float) -> float:
    """log of integral_0^y exp(u^2) du for y > 0: y^2 + log dawsn(y)."""
    tabled = _SCALE_LOG_AT_INT.get(y)
    if tabled is not None:
        return tabled
    from scipy import special

    return y * y + math.log(special.dawsn(y))


def ou_scale_ratio(x: float, big_level: float) -> float:
    """Probability that the unit OU process from ``x`` reaches
    ``big_level`` before 0, via its scale function.

    The exponential of :func:`ou_scale_ratio_log`, with 0.0 at ``x = 0``.
    For levels beyond 27 (from ``x = 1``) the true ratio underflows
    float64 and 0.0 is returned; use :func:`ou_scale_ratio_log` in that
    regime.
    """
    # chained, so that a NaN or an infinite level fails it too
    if not 0.0 <= x <= big_level < math.inf:
        raise InvalidArgument("need 0 <= x <= big_level < inf")
    if x == big_level:
        return 1.0
    if x == 0.0:
        return 0.0
    diff = ou_scale_ratio_log(x, big_level)
    return math.exp(diff) if diff > -745.0 else 0.0


def ou_scale_ratio_log(x: float, big_level: float) -> float:
    """log of :func:`ou_scale_ratio`, finite for any level.

    The scale function of ``dX = -X dt + dB`` has density ``exp(u^2)``
    and, in closed form, log ``y^2 + log D(y)`` with ``D`` Dawson's
    integral (``scipy.special.dawsn``), good to a few ulps at every level.
    It is tabled at ``1, 2, ..., 27``, so ``x = 1`` with an integer level
    (all the package asks for) needs no scipy.
    """
    if not 0.0 < x <= big_level < math.inf:
        raise InvalidArgument("need 0 < x <= big_level < inf")
    if x == big_level:
        return 0.0
    return _scale_log(x) - _scale_log(big_level)
