"""Compound Poisson processes with state-dependent intensity.

Two constructions are provided and cross-checked by the test suite: a
time-change of a unit-rate compound Poisson process (the clock runs at
speed ``g(state)``), and thinning of a dominating constant-rate stream.
Compensator bookkeeping for the induced counting process is exact on the
piecewise-constant segments between jumps.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import (BoundViolation, ExplosionSuspected, InvalidArgument,
                     InvalidIntensity)
from .rng import RngStream

__all__ = [
    "MarkDistribution",
    "JumpPath",
    "IntensityFn",
    "simulate_cpp_time_change",
    "simulate_cpp_thinning",
    "compensator",
    "MAX_JUMPS",
]

#: Abort threshold: more jumps than this before the horizon means the
#: solution is treated as explosive rather than simulated further.
MAX_JUMPS = 10 ** 8


@dataclass(frozen=True)
class MarkDistribution:
    """Distribution of jump marks on R^d minus the origin.

    Construct through one of the factories; ``sample`` draws a
    ``(size, dim)`` array and rejects exact zero vectors (a zero mark is
    not a jump).
    """

    kind: str
    dim: int
    params: tuple = ()
    sampler: Optional[Callable] = None

    @staticmethod
    def point_mass(z) -> "MarkDistribution":
        z = np.atleast_1d(np.asarray(z, dtype=float))
        if not (np.all(np.isfinite(z)) and np.any(z != 0.0)):
            raise InvalidArgument(f"point mass must be finite and nonzero, not {z.tolist()}")
        return MarkDistribution("point", dim=z.size, params=(z,))

    @staticmethod
    def discrete_table(values, probs) -> "MarkDistribution":
        vals = np.atleast_2d(np.asarray(values, dtype=float))
        p = np.asarray(probs, dtype=float)
        if len(vals) != len(p):
            raise InvalidArgument("values and probs must have equal length")
        if not (np.all(np.isfinite(vals)) and np.all(p >= 0.0)
                and abs(p.sum() - 1.0) <= 1e-12):
            raise InvalidArgument("values must be finite, probs nonnegative summing to 1")
        if np.any(~np.any(vals != 0.0, axis=1)):
            raise InvalidArgument("table contains the zero mark")
        return MarkDistribution("table", dim=vals.shape[1], params=(vals, p))

    @staticmethod
    def gaussian_shifted(mean, sd) -> "MarkDistribution":
        mean = np.atleast_1d(np.asarray(mean, dtype=float))
        if not (np.all(np.isfinite(mean)) and 0.0 < sd < np.inf):
            raise InvalidArgument("mean must be finite and sd finite and positive")
        return MarkDistribution("gaussian", dim=mean.size, params=(mean, float(sd)))

    @staticmethod
    def custom(sampler: Callable, dim: int) -> "MarkDistribution":
        """``sampler(generator, size) -> (size, dim)`` array; zero marks error."""
        return MarkDistribution("custom", dim=dim, sampler=sampler)

    def sample(self, gen: np.random.Generator, size: int) -> np.ndarray:
        if self.kind == "point":
            (z,) = self.params
            return np.tile(z, (size, 1))
        if self.kind == "table":
            vals, p = self.params
            idx = gen.choice(len(p), size=size, p=p)
            return vals[idx]
        if self.kind == "gaussian":
            mean, sd = self.params
            out = mean + sd * gen.standard_normal((size, self.dim))
            while True:
                bad = ~np.any(out != 0.0, axis=1)
                if not np.any(bad):
                    return out
                out[bad] = mean + sd * gen.standard_normal((int(bad.sum()), self.dim))
        out = np.asarray(self.sampler(gen, size), dtype=float).reshape(size, self.dim)
        if np.any(~np.any(out != 0.0, axis=1)):
            raise InvalidArgument("custom mark sampler produced a zero mark")
        return out


@dataclass(frozen=True)
class JumpPath:
    """Piecewise-constant cadlag path: start value plus accumulated marks.

    ``value_at(t)`` includes jumps occurring exactly at ``t``
    (right-continuity); ``value_before(t)`` is the left limit.
    """

    x0: np.ndarray
    jump_times: np.ndarray
    marks: np.ndarray
    horizon: float

    def __post_init__(self):
        object.__setattr__(self, "x0", np.atleast_1d(np.asarray(self.x0, dtype=float)))
        object.__setattr__(self, "jump_times", np.asarray(self.jump_times, dtype=float))
        marks = np.asarray(self.marks, dtype=float)
        if marks.ndim == 1:
            marks = marks.reshape(-1, 1)
        object.__setattr__(self, "marks", marks)
        if len(self.jump_times) != len(self.marks):
            raise InvalidArgument("one mark per jump time required")
        if marks.ndim != 2 or marks.shape[1] != self.x0.size:
            raise InvalidArgument("marks must be as wide as x0")
        if len(self.jump_times) and (np.any(np.diff(self.jump_times) <= 0.0)
                                     or self.jump_times[0] <= 0.0):
            raise InvalidArgument("jump times must be strictly increasing and positive")
        if len(self.marks) and np.any(~np.any(self.marks != 0.0, axis=1)):
            raise InvalidArgument("zero marks are not jumps")

    @property
    def dim(self) -> int:
        return self.x0.size

    def count_at(self, t: float) -> int:
        return int(np.searchsorted(self.jump_times, t, side="right"))

    def value_at(self, t: float) -> np.ndarray:
        k = self.count_at(t)
        return self.x0 + self.marks[:k].sum(axis=0)

    def value_before(self, t: float) -> np.ndarray:
        k = int(np.searchsorted(self.jump_times, t, side="left"))
        return self.x0 + self.marks[:k].sum(axis=0)

    def restrict_before(self, t: float) -> "JumpPath":
        """The path on [0, t): jumps at or after t are dropped."""
        k = int(np.searchsorted(self.jump_times, t, side="left"))
        return JumpPath(self.x0, self.jump_times[:k], self.marks[:k], horizon=t)

    def states(self) -> np.ndarray:
        """Values on the constancy intervals: row j holds the value after
        j jumps, so there are ``len(jump_times)+1`` rows."""
        cum = np.vstack([np.zeros(self.dim), np.cumsum(self.marks, axis=0)])
        return self.x0 + cum


@dataclass(frozen=True)
class IntensityFn:
    """Predictable jump intensity.

    ``eval(t, path)`` sees only the path strictly before ``t``: the
    state-dependent form reads the left limit, and the general form
    receives the path restricted to ``[0, t)``.
    """

    kind: str  # 'state' | 'time' | 'predictable'
    fn: Callable

    @staticmethod
    def state_dependent(g: Callable) -> "IntensityFn":
        """Rate ``g(y)`` of the current left-limit state ``y`` (scalar for
        1-d paths, vector otherwise)."""
        return IntensityFn("state", g)

    @staticmethod
    def deterministic(g: Callable) -> "IntensityFn":
        """Rate ``g(t)`` depending on time only."""
        return IntensityFn("time", g)

    @staticmethod
    def predictable(g: Callable) -> "IntensityFn":
        """General rate ``g(t, path_before_t)``."""
        return IntensityFn("predictable", g)

    def eval(self, t: float, path: JumpPath) -> float:
        if self.kind == "time":
            val = self.fn(t)
        elif self.kind == "state":
            y = path.value_before(t)
            val = self.fn(y[0] if y.size == 1 else y)
        else:
            val = self.fn(t, path.restrict_before(t))
        return float(val)


def _start_value(x0, dim):
    """The start value as ``dim`` floats, from ``dim`` finite values or
    one, repeated."""
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if not (np.all(np.isfinite(x0)) and x0.size in (1, dim)):
        raise InvalidArgument(f"x0 must be 1 or {dim} finite values, not {x0.tolist()}")
    return np.full(dim, x0.ravel())


def simulate_cpp_time_change(stream: RngStream, g_state: Callable,
                             mark_dist: MarkDistribution, x0, horizon: float,
                             max_jumps: int = MAX_JUMPS) -> JumpPath:
    """Compound Poisson path with intensity ``g_state(current value)`` via
    a time change of a unit-rate compound Poisson process.

    The unit-rate skeleton has exponential(1) inter-arrival times and
    marks from ``mark_dist``.  The additive clock change accumulates
    ``gap / g_state(state)`` on each constancy interval, where it is
    exact, so no root finding is involved; jump j of the output occurs at
    the accumulated clock value.  The caller asserts the linear-growth
    bound that rules out explosion; if more than ``max_jumps`` land
    before the horizon the simulation aborts instead of hanging.
    """
    if not 0.0 < horizon < np.inf:
        raise InvalidArgument("horizon must be finite and positive")
    x0 = _start_value(x0, mark_dist.dim)
    gen = stream.generator()
    x = x0.copy()
    times, marks = [], []
    clock = 0.0
    while True:
        rate = float(g_state(x[0] if x.size == 1 else x))
        if not 0.0 < rate < np.inf:
            raise InvalidIntensity(f"intensity {rate!r} is not finite and strictly positive")
        gap = gen.standard_exponential()
        clock += gap / rate
        if clock > horizon:
            break
        mark = mark_dist.sample(gen, 1)[0]
        times.append(clock)
        marks.append(mark)
        x = x + mark
        if len(times) > max_jumps:
            raise ExplosionSuspected(f"more than {max_jumps} jumps before the horizon")
    return JumpPath(x0, np.array(times), np.reshape(marks, (-1, mark_dist.dim)), horizon)


def simulate_cpp_thinning(stream: RngStream, g: IntensityFn, g_bound: float,
                          mark_dist: MarkDistribution, x0, horizon: float,
                          max_jumps: int = MAX_JUMPS) -> JumpPath:
    """Compound Poisson path with predictable intensity ``g`` by thinning
    a dominating rate-``g_bound`` Poisson stream.

    Candidate times arrive at rate ``g_bound``; the candidate at ``t`` is
    accepted with probability ``g(t, path so far)/g_bound`` and then
    receives an independent mark.  An observed intensity above the bound
    is a hard failure, never a silent clip.
    """
    if not 0.0 < g_bound < np.inf:
        raise InvalidArgument("g_bound must be finite and positive")
    if not 0.0 < horizon < np.inf:
        raise InvalidArgument("horizon must be finite and positive")
    x0_arr = _start_value(x0, mark_dist.dim)
    gen = stream.generator()
    times, marks = [], []
    t = 0.0
    n_candidates = 0
    while True:
        t += gen.standard_exponential() / g_bound
        if t > horizon:
            break
        n_candidates += 1
        if n_candidates > max_jumps:
            raise ExplosionSuspected(f"more than {max_jumps} candidates before the horizon")
        partial = JumpPath(x0_arr, np.array(times), np.reshape(marks, (-1, mark_dist.dim)),
                           horizon=horizon)
        rate = g.eval(t, partial)
        if not rate >= 0.0:
            raise InvalidIntensity(f"intensity {rate!r} is negative or NaN")
        if rate > g_bound * (1.0 + 1e-12):
            raise BoundViolation(
                f"intensity {rate} exceeds declared bound {g_bound} at t={t}")
        if gen.random() < rate / g_bound:
            times.append(t)
            marks.append(mark_dist.sample(gen, 1)[0])
    return JumpPath(x0_arr, np.array(times), np.reshape(marks, (-1, mark_dist.dim)), horizon)


def compensator(path: JumpPath, g: IntensityFn, t: float,
                quad_tol: float = 1e-8) -> float:
    """Integrated intensity of ``path`` on ``[0, t]``.

    Exact piecewise sums for a state-dependent intensity (constant
    between jumps); adaptive quadrature on each constancy interval
    otherwise.
    """
    # chained, so that a NaN t fails it too
    if not 0.0 <= t <= path.horizon + 1e-12:
        raise InvalidArgument("t outside [0, horizon]")
    times = path.jump_times
    k = int(np.searchsorted(times, t, side="right"))
    edges = np.concatenate([[0.0], times[:k], [t]])
    if g.kind == "state":
        rates = np.array([float(g.fn(s[0] if s.size == 1 else s))
                          for s in path.states()[: k + 1]])
        return float(np.sum(rates * np.diff(edges)))
    from scipy import integrate

    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        if b <= a:
            continue
        val, _ = integrate.quad(lambda s: g.eval(s, path), a, b,
                                epsabs=quad_tol, epsrel=1e-10, limit=200)
        total += val
    return total


# ---------------------------------------------------------------------------
# lane-parallel jump-count kernels (scalar state, point-mass-style marks);
# used by the law-equivalence checks at Monte Carlo scale (acceptance
# criterion 7, tests/test_jumps.py) and demos/02_jump_processes.py


def _count_args(mark, x0, t, lanes):
    """Refuse what the per-path simulators refuse."""
    if not (0.0 < t < np.inf and isinstance(lanes, (int, np.integer)) and lanes >= 1
            and np.isfinite(x0) and np.isfinite(mark) and mark != 0.0):
        raise InvalidArgument(f"need 0 < t < inf, an integer lanes >= 1, a finite x0 and "
                              f"a finite nonzero mark, not t={t!r}, lanes={lanes!r}, "
                              f"x0={x0!r}, mark={mark!r}")


def time_change_counts(stream: RngStream, g_of_value: Callable, mark: float,
                       x0: float, t: float, lanes: int,
                       max_rounds: int = 10 ** 6) -> np.ndarray:
    """Jump counts at time ``t`` for ``lanes`` independent time-change
    replicas of a scalar path with deterministic mark ``mark``.

    ``g_of_value`` must accept numpy arrays elementwise.
    """
    _count_args(mark, x0, t, lanes)
    gen = stream.generator()
    counts = np.zeros(lanes, dtype=np.int64)
    clock = np.zeros(lanes)
    state = np.full(lanes, float(x0))
    active = np.arange(lanes)
    for _ in range(max_rounds):
        rate = np.asarray(g_of_value(state[active]), dtype=float)
        if not np.all((0.0 < rate) & (rate < np.inf)):
            raise InvalidIntensity("intensity must stay finite and strictly positive")
        clock[active] += gen.standard_exponential(active.size) / rate
        landed = clock[active] <= t
        idx = active[landed]
        counts[idx] += 1
        state[idx] += mark
        if counts.max(initial=0) > MAX_JUMPS:
            raise ExplosionSuspected("jump count guard tripped")
        active = idx
        if active.size == 0:
            return counts
    raise ExplosionSuspected("time-change rounds exhausted")


def thinning_counts(stream: RngStream, g_of_value: Callable, g_bound: float,
                    mark: float, x0: float, t: float, lanes: int,
                    max_rounds: int = 10 ** 6) -> np.ndarray:
    """Jump counts at ``t`` for ``lanes`` thinning replicas (scalar state,
    deterministic mark).  Hard-fails if the bound is ever exceeded."""
    if not 0.0 < g_bound < np.inf:
        raise InvalidArgument("g_bound must be finite and positive")
    _count_args(mark, x0, t, lanes)
    gen = stream.generator()
    counts = np.zeros(lanes, dtype=np.int64)
    clock = np.zeros(lanes)
    state = np.full(lanes, float(x0))
    active = np.arange(lanes)
    for _ in range(max_rounds):
        clock[active] += gen.standard_exponential(active.size) / g_bound
        u = gen.random(active.size)
        alive = clock[active] <= t
        rate = np.asarray(g_of_value(state[active]), dtype=float)
        if not np.all(rate[alive] >= 0.0):
            raise InvalidIntensity("intensity must stay nonnegative")
        if np.any(rate[alive] > g_bound * (1.0 + 1e-12)):
            raise BoundViolation("intensity exceeded the declared bound")
        accept = alive & (u < rate / g_bound)
        idx = active[accept]
        counts[idx] += 1
        state[idx] += mark
        active = active[alive]
        if active.size == 0:
            return counts
    raise ExplosionSuspected("thinning rounds exhausted")
