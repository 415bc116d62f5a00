"""Statistical tightness diagnostics for families of candidate density
processes.

A family draws every member index ``n`` at a time ``t`` on one driving
noise: its :class:`FamilyDraw` stacks the nonnegative values ``M_n(t)``
(unit mean at ``n`` fixed; each member is a true martingale by
construction) as a ``(members, size)`` array, with optional stopping
indicators of the same shape and the raw limit value as one shared row.
Every statistic picks columns from each draw and one chunked reduction
returns their means and standard errors.  The profiles estimate the
reweighted tails ``E[M_n(t) 1{M_n(t) >= kappa}]`` - equivalently the
mass the tilted measures place on large values - and issue a statistical
verdict: tails that vanish along the kappa grid are consistent with the
limit being a true martingale, while a floor that persists for members
beyond the kappa range witnesses mass escaping to infinity (a strict
local martingale limit).  Verdicts are statistical statements at
configured thresholds, never proofs.
"""

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import InvalidArgument
from .rng import RngStream, map_lanes

__all__ = [
    "FamilyDraw",
    "MartingaleFamily",
    "TightnessProfile",
    "Verdict",
    "q_tail_profile",
    "stopped_tail",
    "unity_check",
    "clamped_drift_family",
    "inverse_bessel_family",
    "constant_family",
]

_CHUNK = 65536


@dataclass(frozen=True)
class FamilyDraw:
    """Realizations of every member at one time, all on one driving noise.

    ``values`` and ``stopped`` (optional pathwise stopping indicators)
    are ``(members, size)`` arrays with rows in the family's ``n_grid``
    order; ``limit_values`` (optional) is the raw limit process, one
    ``(size,)`` row shared by every member.
    """

    values: np.ndarray
    stopped: Optional[np.ndarray] = None
    limit_values: Optional[np.ndarray] = None


@dataclass(frozen=True)
class MartingaleFamily:
    """Simulation access to an approximating family.

    ``simulate_multi(stream, t, size)`` returns one stacked
    :class:`FamilyDraw` holding every member index, all evaluated on the
    same underlying driving noise, which matches the pathwise truncation
    constructions and lets a profile sweep every member in one pass.  The
    lanes must be independent, with ``stream.generator()`` drawn only by
    ``standard_normal`` and ``random`` with the lanes on the first axis,
    in calls that do not depend on the lane count: the profile may run a
    chunk's lanes in ranges on several threads that share each whole draw
    (:func:`~rarepath.rng.map_lanes`).  Those are the two methods a lane
    range offers; since the generator itself makes each whole draw, any
    other method would be one more line there.
    """

    description: str
    n_grid: tuple
    t_grid: tuple
    simulate_multi: Callable


@dataclass(frozen=True)
class Verdict:
    kind: str  # 'consistent' | 'violated' | 'inconclusive'
    kappa: Optional[float] = None
    floor: Optional[float] = None

    def __str__(self):
        if self.kind == "violated":
            return f"TightnessViolatedAt(kappa={self.kappa:g}, floor={self.floor:.4g})"
        return {"consistent": "TightnessConsistent",
                "inconclusive": "Inconclusive"}[self.kind]


@dataclass(frozen=True)
class TightnessProfile:
    """Reweighted tail estimates per (member, time, kappa) plus verdict.

    ``entries[(n, t, kappa)] = (estimate, stderr)`` of the upper tail
    ``E[M_n(t) 1{M_n(t) >= kappa}]``; the mean of ``M_n(t)`` on the same
    samples is :func:`unity_check` with ``member="member"``.
    """

    entries: dict
    verdict: Verdict
    floor_threshold: float


def _check(a, shape, name, upper=math.inf):
    """Raise unless the draw field ``a`` has ``shape`` and every entry is
    finite and in ``[0, upper]``."""
    if np.shape(a) != shape:
        raise InvalidArgument(f"family {name} must have shape {shape}")
    if not np.all((a >= 0.0) & (a <= upper) & (a < math.inf)):
        bounds = "nonnegative" if upper == math.inf else f"in [0, {upper:g}]"
        raise InvalidArgument(f"family {name} must be finite and {bounds}")


def _members(n_grid):
    """``n_grid`` as a tuple, every member finite and positive."""
    n_grid = tuple(n_grid)
    if not all(0.0 < n < math.inf for n in n_grid):
        raise InvalidArgument("members must be finite and positive")
    return n_grid


def _steps(t, step):
    """The number of steps of length ``step`` that make up the time ``t``:
    a whole number of at least one, to a relative 1e-9."""
    ratio = t / step
    if not 1.0 - 1e-9 <= ratio < math.inf or abs(ratio - round(ratio)) > 1e-9 * ratio:
        raise InvalidArgument(f"time {t:g} is not a whole number of steps {step:g}")
    return round(ratio)


def _joined(parts):
    """One draw of the lane ranges of :func:`~rarepath.rng.map_lanes`."""
    if len(parts) == 1:
        return parts[0]

    def lanes(name):
        rows = [getattr(p, name) for p in parts]
        return None if rows[0] is None else np.concatenate(rows, axis=-1)

    return FamilyDraw(lanes("values"), lanes("stopped"), lanes("limit_values"))


def _column_stats(family, replicas, seed, columns, workers=1) -> dict:
    """``{(n, t): [(mean, stderr) per column]}`` of the ``(members, size)``
    columns that ``columns(draw)`` yields from each stacked draw, one at a
    time so that only one is held.  Chunk ``b`` of time ``t_grid[ci]``
    runs on substream ``(ci << 20) | b``, its lanes split over up to
    ``workers`` threads that each read their rows of the chunk's whole
    draws (the draw is the same at any worker count).  Each row is reduced on
    its own, by ``.sum(axis=-1)`` and ``einsum`` (a fixed summation order
    that no BLAS thread count changes).  Values must be finite and
    nonnegative."""
    if replicas < 2:
        raise InvalidArgument("replicas must be at least 2 for a standard error")
    if not family.n_grid or not family.t_grid:
        raise InvalidArgument("the family needs at least one member and one time")
    if not all(0.0 < t < math.inf for t in family.t_grid):
        raise InvalidArgument("times must be finite and positive")
    out = {}
    for ci, t in enumerate(family.t_grid):
        sums = 0.0  # (columns, [sum, sum of squares], members)
        for batch, done in enumerate(range(0, replicas, _CHUNK)):
            size = min(_CHUNK, replicas - done)
            draw = _joined(map_lanes(lambda s, m: family.simulate_multi(s, t, m),
                                     RngStream(seed, (ci << 20) | batch), size,
                                     workers))
            _check(draw.values, (len(family.n_grid), size), "values")
            sums = sums + np.array([(c.sum(axis=-1), np.einsum("ij,ij->i", c, c))
                                    for c in map(np.ascontiguousarray, columns(draw))])
        mean = sums[:, 0] / replicas
        se = np.sqrt(np.maximum(sums[:, 1] / replicas - mean * mean, 0.0) / replicas)
        for n, m, s in zip(family.n_grid, mean.T.tolist(), se.T.tolist()):
            out[(n, t)] = list(zip(m, s))
    return out


def q_tail_profile(family: MartingaleFamily, kappa_grid, replicas: int,
                   seed: int, floor_threshold: float = 0.05,
                   workers: int = 1) -> TightnessProfile:
    """Monte Carlo profile of the reweighted tails over the family grid,
    each chunk's lanes split over up to ``workers`` threads (the numbers
    never depend on the worker count).

    Verdict rules (statistical, at the configured thresholds): the
    profile is tightness-consistent when, for every time, every member's
    tail at the largest kappa sits below ``floor_threshold`` by at least
    two standard errors; it is violated at kappa when, for both of the
    two largest kappas, every member with index at least kappa shows a
    tail above the threshold by at least three standard errors.
    Anything else is inconclusive.
    """
    kappas = [float(k) for k in kappa_grid]
    if not kappas or any(not 0.0 < k < math.inf for k in kappas) or sorted(kappas) != kappas:
        raise InvalidArgument("kappa_grid must be finite, positive and increasing")
    if not 0.0 < floor_threshold < math.inf:
        raise InvalidArgument("floor_threshold must be finite and positive")

    def tails(draw):
        v = draw.values
        return (v * (v >= k) for k in kappas)

    entries = {(n, t, k): cell
               for (n, t), cols in _column_stats(family, replicas, seed, tails,
                                                       workers).items()
               for k, cell in zip(kappas, cols)}

    def cells(k):
        return [entries[(n, t, k)] for n in family.n_grid if n >= k
                for t in family.t_grid]

    k_top = kappas[-1]
    top = [entries[(n, t, k_top)] for n in family.n_grid for t in family.t_grid]
    if all(est + 2.0 * se < floor_threshold for est, se in top):
        verdict = Verdict("consistent")
    elif all(cells(k) and all(est - 3.0 * se > floor_threshold for est, se in cells(k))
             for k in kappas[-2:]):
        verdict = Verdict("violated", kappa=k_top,
                          floor=min(est for est, _ in cells(k_top)))
    else:
        verdict = Verdict("inconclusive")
    return TightnessProfile(entries=entries, verdict=verdict,
                            floor_threshold=floor_threshold)


def stopped_tail(family: MartingaleFamily, replicas: int, seed: int) -> dict:
    """Reweighted stopping probabilities ``E[M_n(t) 1{tau_n <= t}]`` per
    (member, time); the family must expose pathwise stopping flags."""
    def stopped(draw):
        if draw.stopped is None:
            raise InvalidArgument("family does not expose stopping indicators")
        _check(draw.stopped, draw.values.shape, "stopped", 1.0)
        return [draw.values * draw.stopped]

    return {key: cols[0] for key, cols in
            _column_stats(family, replicas, seed, stopped).items()}


def unity_check(family: MartingaleFamily, replicas: int, seed: int,
                member: str = "auto") -> dict:
    """Plain Monte Carlo means of the family values per (member, time).

    ``member="auto"`` evaluates the raw limit process when the family
    exposes one (that is where a strict local martingale reveals a mean
    below one) and the member values otherwise; ``"member"``/``"limit"``
    force the choice.
    """
    if member not in ("auto", "member", "limit"):
        raise InvalidArgument("member must be 'auto', 'member', or 'limit'")

    def values(draw):
        if member == "member" or (member == "auto" and draw.limit_values is None):
            return [draw.values]
        if draw.limit_values is None:
            raise InvalidArgument("family does not expose a limit process")
        _check(draw.limit_values, draw.values.shape[1:], "limit_values")
        return [np.broadcast_to(draw.limit_values, draw.values.shape)]

    return {key: cols[0] for key, cols in
            _column_stats(family, replicas, seed, values).items()}


# ---------------------------------------------------------------------------
# built-in families


def clamped_drift_family(mu: Callable, step: float, dim: int = 1,
                            n_grid=(1, 2, 4, 8), t_grid=(1.0,),
                            description: str = "drift exponential, clamped drift"
                            ) -> MartingaleFamily:
    """Family of drift exponentials with componentwise drift clamps.

    ``mu(t, w, w_star)`` maps the left grid point to a ``(size, dim)``
    drift (``w`` the Brownian positions, ``w_star`` the running maximum
    of their norms enabling linear-growth drifts); member ``n`` clamps
    the drift to ``[-n, n]`` per component, which makes each member a
    bona fide unit-mean density.  The stopping flag records the first
    grid time the member's running value reaches ``n``.  The drift may be
    anything that broadcasts to ``(size, dim)``; each step, the compiled
    ``drift_step`` then updates ``w`` and ``w_star`` in place, so ``mu``
    must not keep references to them.
    """
    if not 0.0 < step < math.inf:
        raise InvalidArgument("step must be finite and positive")
    if isinstance(dim, bool) or not isinstance(dim, numbers.Integral) or dim < 1:
        raise InvalidArgument("dim must be an integer of at least 1")
    dim = int(dim)
    n_grid = _members(n_grid)
    bound = np.array(n_grid, dtype=float)
    log_n = np.log(np.maximum(bound, 1.0))

    def simulate_multi(stream: RngStream, t: float, size: int):
        from . import _native  # on first use: start-up builds and loads nothing
        lib, address, draws = _native.kernels(), _native.address, _native.draws
        gen = stream.generator()
        steps = _steps(t, step)
        sq = math.sqrt(step)
        drift = np.empty((size, dim))
        w = np.zeros((size, dim))
        wstar = np.zeros(size)
        logm = np.zeros((len(n_grid), size))
        hit = np.zeros((len(n_grid), size), dtype=bool)
        fixed = [address(a) for a in (bound, log_n, drift)]
        state = [address(a) for a in (w, wstar, logm, hit)]
        for k in range(steps):
            d = np.asarray(mu(k * step, w, wstar), dtype=float)
            try:
                drift[...] = d
            except ValueError:
                raise InvalidArgument(f"a drift of shape {d.shape} does not "
                                      f"broadcast to {(size, dim)}") from None
            z = draws(gen.standard_normal((size, dim)), (size, dim))
            lib.drift_step(len(n_grid), size, dim, step, sq, *fixed, address(z), *state)
        return FamilyDraw(values=np.exp(logm), stopped=hit)

    return MartingaleFamily(description=description, n_grid=n_grid,
                            t_grid=tuple(t_grid), simulate_multi=simulate_multi)


def inverse_bessel_family(step: float, n_grid=(8, 16, 32),
                          t_grid=(1.0,)) -> MartingaleFamily:
    """Negative control: the reciprocal distance of a 3-d Brownian motion
    started one unit from the origin.

    The raw process is a strict local martingale (its mean decays below
    one), so tails of the stopped members never vanish; member ``n``
    freezes the value at ``n`` the first time the distance drops to
    ``1/n``, sub-step dips included by the compiled ``family_step``'s bridge
    coins (grid detection alone misses most of the stopped mass at
    practical steps).  The draw exposes the raw time-``t`` value as the
    limit process.
    """
    if not 0.0 < step < math.inf:
        raise InvalidArgument("step must be finite and positive")
    n_grid = _members(n_grid)
    members = np.array(n_grid, dtype=float)
    eps = 1.0 / members

    def simulate_multi(stream: RngStream, t: float, size: int):
        from . import _native  # on first use: start-up builds and loads nothing
        lib, address, draws = _native.kernels(), _native.address, _native.draws
        gen = stream.generator()
        steps = _steps(t, step)
        sq = math.sqrt(step)
        pos = np.zeros((size, 3))
        pos[:, 0] = 1.0
        # each member's distance r - 1/n to its barrier, updated every step
        d = np.repeat(1.0 - eps[:, None], size, axis=1)
        frozen = np.zeros((len(n_grid), size), dtype=bool)
        state = [address(a) for a in (pos, d, frozen)]
        for _ in range(steps):
            z = draws(gen.standard_normal((size, 3)), (size, 3))
            u = draws(gen.random(size), (size,))
            lib.family_step(len(n_grid), size, step, sq, address(eps), address(z),
                            address(u), *state)
        r = np.sqrt(np.einsum("ij,ij->i", pos, pos))
        raw = 1.0 / np.maximum(r, 1e-300)
        return FamilyDraw(values=np.where(frozen, members[:, None], raw),
                          stopped=frozen, limit_values=raw)

    return MartingaleFamily(
        description="reciprocal 3-d Bessel distance (strict local martingale)",
        n_grid=n_grid, t_grid=tuple(t_grid), simulate_multi=simulate_multi)


def constant_family(n_grid=(1, 2, 4), t_grid=(1.0,)) -> MartingaleFamily:
    """The constant density one, with the deterministic stopping time
    ``tau_n = n``; the simplest positive control."""
    n_grid = _members(n_grid)

    def simulate_multi(stream: RngStream, t: float, size: int):
        ones = np.ones((len(n_grid), size))
        stopped = np.broadcast_to(np.array(n_grid)[:, None] <= t, ones.shape)
        return FamilyDraw(values=ones, stopped=stopped, limit_values=ones[0])

    return MartingaleFamily(description="constant density",
                            n_grid=n_grid, t_grid=tuple(t_grid),
                            simulate_multi=simulate_multi)
