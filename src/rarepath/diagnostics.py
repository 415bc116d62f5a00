"""Statistical tightness diagnostics for families of candidate density
processes.

A family provides, for each member index ``n`` and time ``t``, realized
nonnegative values ``M_n(t)`` with unit mean at ``n`` fixed (each member
is a true martingale by construction), together with optional stopping
indicators and the raw limit value.  The profiles estimate the
reweighted tails ``E[M_n(t) 1{M_n(t) >= kappa}]`` - equivalently the
mass the tilted measures place on large values - and issue a statistical
verdict: tails that vanish along the kappa grid are consistent with the
limit being a true martingale, while a floor that persists for members
beyond the kappa range witnesses mass escaping to infinity (a strict
local martingale limit).  Verdicts are statistical statements at
configured thresholds, never proofs.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import InvalidArgument
from .paths import bridge_touch_probability
from .rng import RngStream

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
    """Realizations for one member at one time: member values, optional
    pathwise stopping indicators, optional raw limit values."""

    values: np.ndarray
    stopped: Optional[np.ndarray] = None
    limit_values: Optional[np.ndarray] = None


@dataclass(frozen=True)
class MartingaleFamily:
    """Simulation access to an approximating family.

    ``simulate_multi(stream, t, size)`` returns one :class:`FamilyDraw`
    per member index, all evaluated on the same underlying driving
    noise, which matches the pathwise truncation constructions and lets
    a profile sweep every member in one pass.
    """

    description: str
    n_grid: tuple
    t_grid: tuple
    simulate_multi: Callable

    def simulate(self, stream: RngStream, n: int, t: float, size: int) -> FamilyDraw:
        draws = self.simulate_multi(stream, t, size)
        if n not in draws:
            raise InvalidArgument(f"member {n} not in the family grid")
        return draws[n]


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

    ``entries[(n, t, kappa)] = (estimate, stderr)`` of the upper tail,
    ``complements`` the matching lower part, and
    ``means[(n, t)] = (mean of M_n(t), stderr)``, all from the same
    samples, so ``tail + complement == mean`` holds to float accuracy.
    """

    entries: dict
    complements: dict
    means: dict
    verdict: Verdict
    floor_threshold: float


def _accumulate(family, t, kappas, replicas, seed, cell_index, want_stopped=False,
                want_limit=False):
    """Stream replicas through simulate_multi in fixed chunks; returns per
    member: per-kappa sums/sumsq, mean sums, optional stopped/limit sums."""
    stats = {}
    done = 0
    batch = 0
    while done < replicas:
        size = min(_CHUNK, replicas - done)
        stream = RngStream(seed, (cell_index << 20) | batch)
        draws = family.simulate_multi(stream, t, size)
        for n, draw in draws.items():
            v = np.asarray(draw.values, dtype=float)
            if np.any(v < 0.0):
                raise InvalidArgument("family produced negative values")
            st = stats.setdefault(n, {
                "sum": 0.0, "sumsq": 0.0,
                "tail_sum": np.zeros(len(kappas)),
                "tail_sumsq": np.zeros(len(kappas)),
                "ctail_sum": np.zeros(len(kappas)),
                "ctail_sumsq": np.zeros(len(kappas)),
                "stop_sum": 0.0, "stop_sumsq": 0.0, "has_stop": False,
                "lim_sum": 0.0, "lim_sumsq": 0.0, "has_lim": False,
            })
            st["sum"] += float(v.sum())
            st["sumsq"] += float(np.dot(v, v))
            for i, k in enumerate(kappas):
                above = v >= k
                tv = v * above
                cv = v * ~above
                st["tail_sum"][i] += float(tv.sum())
                st["tail_sumsq"][i] += float(np.dot(tv, tv))
                st["ctail_sum"][i] += float(cv.sum())
                st["ctail_sumsq"][i] += float(np.dot(cv, cv))
            if want_stopped:
                if draw.stopped is None:
                    raise InvalidArgument("family does not expose stopping indicators")
                sv = v * draw.stopped
                st["stop_sum"] += float(sv.sum())
                st["stop_sumsq"] += float(np.dot(sv, sv))
                st["has_stop"] = True
            if want_limit and draw.limit_values is not None:
                lv = np.asarray(draw.limit_values, dtype=float)
                st["lim_sum"] += float(lv.sum())
                st["lim_sumsq"] += float(np.dot(lv, lv))
                st["has_lim"] = True
        done += size
        batch += 1
    return stats


def _mean_se(total, total_sq, n):
    mean = float(total) / n
    var = max(float(total_sq) / n - mean * mean, 0.0)
    return mean, math.sqrt(var / n)


def q_tail_profile(family: MartingaleFamily, kappa_grid, replicas: int,
                   seed: int, floor_threshold: float = 0.05) -> TightnessProfile:
    """Monte Carlo profile of the reweighted tails over the family grid.

    Verdict rules (statistical, at the configured thresholds): the
    profile is tightness-consistent when, for every time, every member's
    tail at the largest kappa sits below ``floor_threshold`` by at least
    two standard errors; it is violated at kappa when, for both of the
    two largest kappas, every member with index at least kappa shows a
    tail above the threshold by at least three standard errors.
    Anything else is inconclusive.
    """
    kappas = [float(k) for k in kappa_grid]
    if not kappas or any(k <= 0 for k in kappas) or sorted(kappas) != kappas:
        raise InvalidArgument("kappa_grid must be positive and increasing")
    entries = {}
    complements = {}
    means = {}
    for ci, t in enumerate(family.t_grid):
        stats = _accumulate(family, t, kappas, replicas, seed, ci)
        for n in family.n_grid:
            st = stats[n]
            means[(n, t)] = _mean_se(st["sum"], st["sumsq"], replicas)
            for i, k in enumerate(kappas):
                entries[(n, t, k)] = _mean_se(st["tail_sum"][i],
                                              st["tail_sumsq"][i], replicas)
                complements[(n, t, k)] = _mean_se(st["ctail_sum"][i],
                                                  st["ctail_sumsq"][i], replicas)

    k_top = kappas[-1]
    consistent = all(
        entries[(n, t, k_top)][0] + 2.0 * entries[(n, t, k_top)][1] < floor_threshold
        for n in family.n_grid for t in family.t_grid)
    verdict = None
    if not consistent:
        for k in kappas[-2:] if len(kappas) >= 2 else kappas[-1:]:
            cands = [n for n in family.n_grid if n >= k]
            if not cands:
                verdict = Verdict("inconclusive")
                break
            ok_all_t = all(
                entries[(n, t, k)][0] - 3.0 * entries[(n, t, k)][1] > floor_threshold
                for n in cands for t in family.t_grid)
            if not ok_all_t:
                verdict = Verdict("inconclusive")
                break
        if verdict is None:
            k = k_top
            cands = [n for n in family.n_grid if n >= k]
            floor = min(entries[(n, t, k)][0]
                        for n in cands for t in family.t_grid)
            verdict = Verdict("violated", kappa=k, floor=floor)
    else:
        verdict = Verdict("consistent")
    return TightnessProfile(entries=entries, complements=complements,
                            means=means, verdict=verdict,
                            floor_threshold=floor_threshold)


def stopped_tail(family: MartingaleFamily, replicas: int, seed: int) -> dict:
    """Reweighted stopping probabilities ``E[M_n(t) 1{tau_n <= t}]`` per
    (member, time); the family must expose pathwise stopping flags."""
    out = {}
    for ci, t in enumerate(family.t_grid):
        stats = _accumulate(family, t, [], replicas, seed, ci, want_stopped=True)
        for n in family.n_grid:
            st = stats[n]
            out[(n, t)] = _mean_se(st["stop_sum"], st["stop_sumsq"], replicas)
    return out


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
    out = {}
    for ci, t in enumerate(family.t_grid):
        stats = _accumulate(family, t, [], replicas, seed, ci,
                            want_limit=member in ("auto", "limit"))
        for n in family.n_grid:
            st = stats[n]
            use_limit = (member == "limit") or (member == "auto" and st["has_lim"])
            if member == "limit" and not st["has_lim"]:
                raise InvalidArgument("family does not expose a limit process")
            if use_limit:
                out[(n, t)] = _mean_se(st["lim_sum"], st["lim_sumsq"], replicas)
            else:
                out[(n, t)] = _mean_se(st["sum"], st["sumsq"], replicas)
    return out


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
    grid time the member's running value reaches ``n``.
    """
    n_grid = tuple(n_grid)

    def simulate_multi(stream: RngStream, t: float, size: int):
        gen = stream.generator()
        steps = max(int(round(t / step)), 1)
        sq = math.sqrt(step)
        w = np.zeros((size, dim))
        wstar = np.zeros(size)
        logm = {n: np.zeros(size) for n in n_grid}
        hit = {n: np.zeros(size, dtype=bool) for n in n_grid}
        for k in range(steps):
            drift = np.asarray(mu(k * step, w, wstar), dtype=float)
            drift = np.broadcast_to(drift, (size, dim))
            z = gen.standard_normal((size, dim))
            dw = sq * z
            for n in n_grid:
                dn = np.clip(drift, -float(n), float(n))
                logm[n] += np.einsum("ij,ij->i", dn, dw) \
                    - 0.5 * step * np.einsum("ij,ij->i", dn, dn)
                hit[n] |= logm[n] >= math.log(n) if n > 1 else logm[n] >= 0.0
            w = w + dw
            wstar = np.maximum(wstar, np.linalg.norm(w, axis=1))
        return {n: FamilyDraw(values=np.exp(logm[n]), stopped=hit[n])
                for n in n_grid}

    return MartingaleFamily(description=description, n_grid=n_grid,
                            t_grid=tuple(t_grid), simulate_multi=simulate_multi)


def inverse_bessel_family(step: float, n_grid=(8, 16, 32),
                          t_grid=(1.0,)) -> MartingaleFamily:
    """Negative control: the reciprocal distance of a 3-d Brownian motion
    started one unit from the origin.

    The raw process is a strict local martingale (its mean decays below
    one), so tails of the stopped members never vanish; member ``n``
    freezes the value at ``n`` the first time the distance drops to
    ``1/n``, sub-step dips included by bridge coins (grid detection alone
    misses most of the stopped mass at practical steps).  The draw
    exposes the raw time-``t`` value as the limit process.
    """
    n_grid = tuple(n_grid)

    def simulate_multi(stream: RngStream, t: float, size: int):
        gen = stream.generator()
        steps = max(int(round(t / step)), 1)
        sq = math.sqrt(step)
        pos = np.zeros((size, 3))
        pos[:, 0] = 1.0
        r = np.ones(size)
        frozen = {n: np.zeros(size, dtype=bool) for n in n_grid}
        for k in range(steps):
            z = gen.standard_normal((size, 3))
            u = gen.random(size)
            pos += sq * z
            rn = np.sqrt(np.einsum("ij,ij->i", pos, pos))
            for n in n_grid:
                eps = 1.0 / n
                hit = rn <= eps
                hit |= u < bridge_touch_probability(r - eps, rn - eps, step, u)
                frozen[n] |= hit
            r = rn
        raw = 1.0 / np.maximum(r, 1e-300)
        return {n: FamilyDraw(values=np.where(frozen[n], float(n), raw),
                              stopped=frozen[n], limit_values=raw)
                for n in n_grid}

    return MartingaleFamily(
        description="reciprocal 3-d Bessel distance (strict local martingale)",
        n_grid=n_grid, t_grid=tuple(t_grid), simulate_multi=simulate_multi)


def constant_family(n_grid=(1, 2, 4), t_grid=(1.0,)) -> MartingaleFamily:
    """The constant density one, with the deterministic stopping time
    ``tau_n = n``; the simplest positive control."""
    n_grid = tuple(n_grid)

    def simulate_multi(stream: RngStream, t: float, size: int):
        ones = np.ones(size)
        return {n: FamilyDraw(values=ones,
                              stopped=np.full(size, n <= t),
                              limit_values=ones)
                for n in n_grid}

    return MartingaleFamily(description="constant density",
                            n_grid=n_grid, t_grid=tuple(t_grid),
                            simulate_multi=simulate_multi)
