"""Birth-death lattice walks, conditioned-walk kernels, discrete
change-of-measure weights, finite-chain time reversal, and
exhaustive-enumeration oracles.

A walk's laws are stated once: :func:`birth_death_chain` is the walk
reflected at both ends with its detailed-balance stationary law, and
:func:`first_return_ruin` reads ruin off its log-space scale function.

Lattice states are stored as integer multiples of the spacing so that no
float drift accumulates along a path; a :class:`LatticeSpec` carries the
dyadic spacing ``2**-n`` whose square is exactly the time step
``2**-2n``.
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from .errors import (InfeasibleConditioning, InvalidArgument, InvalidWeight,
                     NonterminationSuspected)
from .rng import RngStream

__all__ = [
    "LatticeSpec",
    "BirthDeathKernel",
    "ChainPath",
    "FiniteChain",
    "DiscreteWeight",
    "ou_chain_kernel",
    "h_transform_kernel",
    "simulate_chain",
    "discrete_weight",
    "reversal_kernel",
    "stationary_distribution",
    "conv_sampler",
    "conv_sample_many",
    "enumerate_conditioned",
    "EnumeratedPaths",
    "tilt",
    "hit_probability",
    "birth_death_ruin",
    "weighted_ruin_sum",
    "first_return_ruin",
    "birth_death_chain",
]

MAX_CHAIN_STEPS = 10 ** 9
#: Most states :func:`enumerate_conditioned` will enumerate over.
MAX_ENUM_STATES = 12
_URAND_BLOCK = 1024


@dataclass(frozen=True)
class LatticeSpec:
    """Dyadic lattice: spacing ``2**-n``, time step ``2**-2n``.

    ``n = 0`` gives the unit lattice.
    """

    n: int

    def __post_init__(self):
        if self.n < 0:
            raise InvalidArgument("n must be nonnegative")

    @property
    def delta(self) -> float:
        return 2.0 ** (-self.n)

    @property
    def time_step(self) -> float:
        return 4.0 ** (-self.n)

    def value(self, k) -> float:
        return k * self.delta

    def index_of(self, value: float) -> int:
        k = round(value / self.delta)
        if abs(k * self.delta - value) > 1e-12:
            raise InvalidArgument(f"{value} is not on the lattice")
        return int(k)


@dataclass(frozen=True)
class BirthDeathKernel:
    """Nearest-neighbour transition law on lattice indices.

    ``up_prob(k)`` is the probability of the move ``k -> k+1``; the
    complement moves down.  States in ``absorbing`` never move.
    """

    up_prob: Callable[[int], float]
    lattice: LatticeSpec
    absorbing: frozenset = frozenset()

    def up(self, k: int) -> float:
        p = float(self.up_prob(int(k)))
        if not 0.0 <= p <= 1.0:
            raise InvalidArgument(f"up probability {p} outside [0, 1] at state {k}")
        return p


@dataclass(frozen=True)
class ChainPath:
    """Realized state-index sequence of a nearest-neighbour walk."""

    states: np.ndarray
    lattice: Optional[LatticeSpec] = None

    def __post_init__(self):
        object.__setattr__(self, "states", np.asarray(self.states, dtype=np.int64))
        if self.states.size == 0:
            raise InvalidArgument("path must hold at least one state")

    @property
    def steps(self) -> int:
        return len(self.states) - 1

    def values(self) -> np.ndarray:
        if self.lattice is None:
            return self.states.astype(float)
        return self.states * self.lattice.delta


@dataclass(frozen=True)
class FiniteChain:
    """Finite-state chain: row-stochastic kernel, optional stationary law."""

    states: list
    kernel: np.ndarray
    pi: Optional[np.ndarray] = None

    def __post_init__(self):
        kern = np.asarray(self.kernel, dtype=float)
        object.__setattr__(self, "kernel", kern)
        m = len(self.states)
        if kern.shape != (m, m):
            raise InvalidArgument("kernel shape must match the state list")
        if np.any(kern < -1e-15):
            raise InvalidArgument("kernel entries must be nonnegative")
        if np.max(np.abs(kern.sum(axis=1) - 1.0)) > 1e-12:
            raise InvalidArgument("kernel rows must sum to 1 within 1e-12")
        if self.pi is not None:
            pi = np.asarray(self.pi, dtype=float)
            object.__setattr__(self, "pi", pi)
            if abs(pi.sum() - 1.0) > 1e-10 or np.any(pi < -1e-15):
                raise InvalidArgument("pi must be a probability vector")
            if np.max(np.abs(pi @ kern - pi)) > 1e-10:
                raise InvalidArgument("pi is not stationary for the kernel (1e-10)")

    @property
    def size(self) -> int:
        return len(self.states)


# ---------------------------------------------------------------------------
# kernels


def tilt(spec: LatticeSpec, k):
    """Down-drift ``delta * (value ^ n)`` of the mean-reverting chain at
    state ``k`` (``^`` the minimum; the cap keeps the tilt below
    ``n * 2**-n < 1``): a float for one state, an array for an array."""
    k = np.asarray(k)
    if np.any(k < 0):
        raise InvalidArgument("negative lattice state")
    q = spec.delta * np.minimum(k * spec.delta, float(spec.n))
    return q if q.ndim else float(q)


def ou_chain_kernel(spec: LatticeSpec) -> BirthDeathKernel:
    """Mean-reverting birth-death walk approximating the unit OU process.

    From a positive state the walk moves up with probability
    ``(1 - tilt)/2`` and down with ``(1 + tilt)/2`` where ``tilt`` is the
    capped drift of :func:`tilt`; from 0 it moves up surely.
    """
    def up(k: int) -> float:
        if k == 0:
            return 1.0
        return 0.5 * (1.0 - tilt(spec, k))

    return BirthDeathKernel(up_prob=up, lattice=spec)


def h_transform_kernel(spec: LatticeSpec, big_level: int) -> BirthDeathKernel:
    """Symmetric walk on ``[0, big_level]`` conditioned to return to 0
    before revisiting ``big_level``, via the harmonic function
    ``h(y) = (big_level - y)/big_level``.

    Interior states move up with probability
    ``(1 - delta/(big_level - y))/2``; state 0 absorbs, and the top state
    steps down surely (the conditioning forbids an immediate return).
    """
    if big_level < 1:
        raise InvalidArgument("big_level must be a positive integer")
    delta = spec.delta
    k_top = spec.index_of(float(big_level))

    def up(k: int) -> float:
        if not 0 <= k <= k_top:
            raise InvalidArgument(f"state {k} outside [0, {k_top}]")
        if k == 0 or k == k_top:
            return 0.0
        return 0.5 * (1.0 - delta / (big_level - k * delta))

    return BirthDeathKernel(up_prob=up, lattice=spec, absorbing=frozenset({0}))


def simulate_chain(kernel: BirthDeathKernel, start: int,
                   stop: Callable[[int, int], bool],
                   stream: RngStream,
                   max_steps: int = MAX_CHAIN_STEPS) -> ChainPath:
    """Run the walk from ``start`` until ``stop(state, step)`` fires or an
    absorbing state is entered.  A hard step cap turns non-termination
    into a diagnosable error."""
    gen = stream.generator()
    states = [int(start)]
    k = int(start)
    step = 0
    if k in kernel.absorbing or stop(k, 0):
        return ChainPath(np.array(states), kernel.lattice)
    buf = gen.random(_URAND_BLOCK)
    pos = 0
    while step < max_steps:
        if pos == len(buf):
            buf = gen.random(_URAND_BLOCK)
            pos = 0
        k = k + 1 if buf[pos] < kernel.up(k) else k - 1
        pos += 1
        step += 1
        states.append(k)
        if k in kernel.absorbing or stop(k, step):
            return ChainPath(np.array(states), kernel.lattice)
    raise NonterminationSuspected(f"no stop after {max_steps} steps")


# ---------------------------------------------------------------------------
# discrete change-of-measure weight


@dataclass(frozen=True)
class DiscreteWeight:
    """Log weight of a path under the mean-reverting law relative to the
    symmetric law, plus diagnostics."""

    log_weight: float
    duration: float
    half_sum_tilt_sq: Optional[float] = None


def discrete_weight(path: ChainPath, spec: LatticeSpec,
                    form: str = "product") -> DiscreteWeight:
    """Relative path weight of the mean-reverting walk with respect to the
    symmetric walk, for a path absorbed at 0.

    ``form="product"`` is the exact per-step likelihood ratio
    ``prod (1 - tilt(pre-state) * direction)``, accumulated in logs.
    ``form="exponent"`` is the second-order expansion
    ``start^2/2 + duration/2 - sum tilt^2/2`` that drops the per-step
    remainder (the dropped term is O(spacing^3) per step); the summed
    square-tilt term is reported separately.  The expansion assumes the
    drift cap never binds along the path.
    """
    if form not in ("product", "exponent"):
        raise InvalidArgument("form must be 'product' or 'exponent'")
    ks = np.asarray(path.states, dtype=np.int64)
    if form == "exponent" and ks[-1] != 0:
        raise InvalidArgument("the exponent form needs a path absorbed at 0")
    if np.any(ks[:-1] == 0):
        raise InvalidArgument("path visits 0 before its final state")
    pre = ks[:-1]
    direction = np.diff(ks)
    if np.any(np.abs(direction) != 1):
        raise InvalidArgument("consecutive states must differ by one lattice unit")
    tilts = tilt(spec, pre)
    duration = len(pre) * spec.time_step
    half_q2 = 0.5 * float(np.sum(tilts * tilts))
    if form == "product":
        factors = 1.0 - tilts * direction
        if np.any(factors <= 0.0):
            raise InvalidWeight("nonpositive weight factor; drift cap misconfigured")
        return DiscreteWeight(log_weight=float(np.sum(np.log(factors))),
                              duration=duration)
    start_value = float(ks[0]) * spec.delta
    log_w = 0.5 * start_value * start_value + 0.5 * duration - half_q2
    return DiscreteWeight(log_weight=log_w, duration=duration,
                          half_sum_tilt_sq=half_q2)


# ---------------------------------------------------------------------------
# finite-chain machinery


def _is_irreducible(kern: np.ndarray) -> bool:
    m = len(kern)
    adj = kern > 0.0

    def reach(mat):
        seen = np.zeros(m, dtype=bool)
        seen[0] = True
        frontier = [0]
        while frontier:
            nxt = []
            for i in frontier:
                for j in np.flatnonzero(mat[i]):
                    if not seen[j]:
                        seen[j] = True
                        nxt.append(j)
            frontier = nxt
        return seen

    return bool(np.all(reach(adj)) and np.all(reach(adj.T)))


def stationary_distribution(chain: FiniteChain) -> np.ndarray:
    """Stationary probability vector of an irreducible finite kernel, by a
    dense linear solve.  The result satisfies ``pi K = pi`` to 1e-10.

    Birth-death walks need no solve: :func:`birth_death_chain` carries
    their detailed-balance law.
    """
    kern = chain.kernel
    if not _is_irreducible(kern):
        raise InvalidArgument("kernel is reducible; stationary law not unique")
    m = len(kern)
    a = kern.T - np.eye(m)
    a[-1, :] = 1.0
    b = np.zeros(m)
    b[-1] = 1.0
    try:
        pi = np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise InvalidArgument("stationary solve failed (reducible kernel?)") from exc
    if np.any(pi < -1e-12):
        raise InvalidArgument("stationary solve produced negative mass")
    pi = np.maximum(pi, 0.0)
    pi = pi / pi.sum()
    if np.max(np.abs(pi @ kern - pi)) > 1e-10:
        raise InvalidArgument("no unique stationary distribution within 1e-10")
    return pi


def reversal_kernel(chain: FiniteChain) -> FiniteChain:
    """Time-reversed chain ``K'(y, x) = pi(x) K(x, y) / pi(y)``.

    Requires a strictly positive stationary vector; rows of the reversed
    kernel must already sum to one through the exact formula (which is
    equivalent to stationarity), so no renormalization is applied.
    """
    if chain.pi is None:
        raise InvalidArgument("reversal needs the stationary distribution")
    pi = np.asarray(chain.pi, dtype=float)
    if np.any(pi <= 0.0):
        raise InvalidArgument("stationary mass must be strictly positive")
    kern_rev = (chain.kernel * pi[:, None]).T / pi[:, None]
    if np.max(np.abs(kern_rev.sum(axis=1) - 1.0)) > 1e-10:
        raise InvalidArgument("reversed rows do not sum to 1; pi is not stationary")
    return FiniteChain(states=list(chain.states), kernel=kern_rev, pi=pi.copy())


def hit_probability(chain: FiniteChain, start: int, hit: set, avoid: set) -> float:
    """Probability of entering ``hit`` before ``avoid``, by linear solve.

    ``start`` may itself belong to either set, in which case the answer
    is immediate; indices are positions in ``chain.states``.
    """
    hit = set(hit)
    avoid = set(avoid)
    if hit & avoid:
        raise InvalidArgument("hit and avoid sets overlap")
    if start in hit:
        return 1.0
    if start in avoid:
        return 0.0
    m = chain.size
    interior = [i for i in range(m) if i not in hit and i not in avoid]
    pos = {s: i for i, s in enumerate(interior)}
    a = np.eye(len(interior))
    b = np.zeros(len(interior))
    for i, s in enumerate(interior):
        for j in range(m):
            p = chain.kernel[s, j]
            if p == 0.0:
                continue
            if j in hit:
                b[i] += p
            elif j not in avoid:
                a[i, pos[j]] -= p
    sol = np.linalg.solve(a, b)
    return float(sol[pos[start]])


def birth_death_ruin(up_prob: Callable[[int], Fraction], start: int,
                     lo: int, hi: int) -> Fraction:
    """Exact probability that a birth-death walk from ``start`` reaches
    ``hi`` before ``lo``, via the product-of-odds formula in rational
    arithmetic.  ``up_prob`` must return exact fractions."""
    if not lo < hi:
        raise InvalidArgument("need lo < hi")
    if not lo <= start <= hi:
        raise InvalidArgument("start outside [lo, hi]")
    if start == lo:
        return Fraction(0)
    if start == hi:
        return Fraction(1)
    odds = []
    acc = Fraction(1)
    for k in range(lo + 1, hi):
        p = Fraction(up_prob(k))
        if not 0 < p < 1:
            raise InvalidArgument("interior up-probabilities must lie in (0, 1)")
        acc *= (1 - p) / p
        odds.append(acc)
    # numerator: sum of rho_k for k = lo .. start-1 (rho_lo = 1)
    numer = Fraction(1) + sum(odds[: start - lo - 1], Fraction(0))
    total = Fraction(1) + sum(odds, Fraction(0))
    return numer / total


def _interior_ups(kernel: BirthDeathKernel, top: int) -> np.ndarray:
    """Up-probabilities of states ``1..top-1``, each evaluated once."""
    if top < 1:
        raise InvalidArgument("top must be a positive state index")
    ups = np.array([kernel.up(k) for k in range(1, top)], dtype=float)
    if np.any((ups <= 0.0) | (ups >= 1.0)):
        raise InvalidArgument("interior up-probabilities must lie in (0, 1)")
    return ups


def birth_death_chain(kernel: BirthDeathKernel, top: int) -> FiniteChain:
    """The walk on ``0..top`` reflected at both ends (0 steps up and
    ``top`` down surely; interior rows from ``kernel.up``), with its
    detailed-balance stationary law ``pi[k+1] = pi[k] * up[k] / down[k+1]``.
    """
    ups = _interior_ups(kernel, top)
    up = np.append(1.0, ups)            # K[k, k+1] for k = 0..top-1
    down = np.append(1.0 - ups, 1.0)    # K[k+1, k]
    pi = np.ones(top + 1)
    for k in range(top):
        pi[k + 1] = pi[k] * up[k] / down[k]
    return FiniteChain(states=list(range(top + 1)),
                       kernel=np.diag(up, 1) + np.diag(down, -1), pi=pi / pi.sum())


def first_return_ruin(kernel: BirthDeathKernel, top: int) -> float:
    """Probability that the walk started at ``top`` reaches 0 before
    returning to ``top`` (first step included in the excursion).

    An up-move from ``top`` is an immediate return; from ``top - 1`` the
    walk reaches 0 first with probability ``rho[top-1] / sum(rho)``, by the
    scale-function increments ``rho[j] = prod_{i<=j} down[i]/up[i]``
    (``rho[0] = 1``), summed in log space so that no level underflows.
    """
    ups = _interior_ups(kernel, top)
    log_rho = np.concatenate(([0.0], np.cumsum(np.log1p(-ups) - np.log(ups))))
    return float((1.0 - kernel.up(top))
                 * np.exp(log_rho[top - 1] - np.logaddexp.reduce(log_rho)))


def weighted_ruin_sum(kernel: BirthDeathKernel, weight_term: Callable[[int, int], float],
                      start: int, top: int, tol: float = 1e-14,
                      max_rounds: int = 10 ** 6) -> float:
    """Sum over all paths from ``start`` absorbed at 0 (never revisiting
    ``top``) of path probability times the product of per-step weights
    ``weight_term(pre_state, direction)``.

    This is an exhaustive path summation organized as a transfer-matrix
    iteration; it converges geometrically for substochastic interiors and
    stops when the unabsorbed weighted mass falls below ``tol``.
    """
    mass = np.zeros(top + 1)
    mass[start] = 1.0
    total = 0.0
    w_up = np.array([weight_term(k, +1) for k in range(top + 1)])
    w_dn = np.array([weight_term(k, -1) for k in range(top + 1)])
    ups = np.array([kernel.up(k) if 0 < k <= top else 0.0 for k in range(top + 1)])
    for _ in range(max_rounds):
        new = np.zeros_like(mass)
        flow_up = mass * ups * w_up
        flow_dn = mass * (1.0 - ups) * w_dn
        new[2:] += flow_up[1:-1]       # up-moves from 1..top-1
        new[:top] += flow_dn[1:]       # down-moves from 1..top
        total += flow_dn[1]            # absorbed at 0
        new[0] = 0.0
        new[top] = 0.0                 # paths re-entering the top are excluded
        mass = new
        if mass.sum() < tol:
            return float(total)
    raise NonterminationSuspected("weighted path sum did not converge")


# ---------------------------------------------------------------------------
# conditioned sampling via time reversal, and its enumeration oracle


def _check_vn(chain, v_fn, level, x, b):
    if v_fn(chain.states[x]) >= level or v_fn(chain.states[b]) >= level:
        raise InvalidArgument("x and b must sit strictly below the level")


def conv_sampler(chain: FiniteChain, v_fn: Callable, level: float, x: int,
                 b: int, stream: RngStream, max_attempts: int = 10 ** 6) -> ChainPath:
    """Draw one forward path from ``x`` to the high set ``{V >= level}``
    conditioned to get there before visiting ``b``: the ``n=1`` view of
    :func:`conv_sample_many`."""
    return conv_sample_many(chain, v_fn, level, x, b, stream, 1, max_attempts)[0]


def conv_sample_many(chain: FiniteChain, v_fn: Callable, level: float, x: int,
                     b: int, stream: RngStream, n: int,
                     max_attempts_each: int = 10 ** 6) -> list:
    """Draw ``n`` forward paths from ``x`` to the high set ``{V >= level}``
    conditioned to get there before visiting ``b``, by running the
    time-reversed chain backwards from stationarity; the paths share one
    generator (single stream, sequential draws, deterministic).

    The recipe: sample the entry state from the stationary law restricted
    to the high set; run the reversed kernel until it hits ``b``,
    rejecting runs that re-enter the high set first or never pass
    through ``x``; cut at the last visit to ``x`` before ``b`` and read
    the trajectory backwards.  Rejection keeps the law exact; the
    restricted stationary draw is performed directly on the renormalized
    restriction, which is the same distribution rejection would produce.
    """
    _check_vn(chain, v_fn, level, x, b)
    pi = chain.pi if chain.pi is not None else stationary_distribution(chain)
    rev = reversal_kernel(FiniteChain(chain.states, chain.kernel, pi))
    high = np.array([v_fn(s) >= level for s in chain.states])
    if not np.any(pi[high] > 0.0):
        raise InfeasibleConditioning("the high set carries no stationary mass")
    p_start = np.where(high, pi, 0.0)
    cum_start = np.cumsum(p_start / p_start.sum())
    cum = np.cumsum(rev.kernel, axis=1)
    gen = stream.generator()
    return [_conv_draw(gen, cum_start, cum, high, x, b, max_attempts_each)
            for _ in range(n)]


def _conv_draw(gen, cum_start, cum, high, x, b, max_attempts):
    """One accepted reversed run of :func:`conv_sample_many`, read forward."""
    for _ in range(max_attempts):
        state = int(np.searchsorted(cum_start, gen.random(), side="right"))
        traj = [state]
        for _step in range(MAX_CHAIN_STEPS):
            state = int(np.searchsorted(cum[state], gen.random(), side="right"))
            traj.append(state)
            if state == b or high[state]:
                break
        else:
            raise NonterminationSuspected("reversed run exceeded the step cap")
        # keep a run that reached b, not the high set again, through x
        if state == b and x in traj:
            xi = max(i for i, s in enumerate(traj) if s == x)
            return ChainPath(np.array(traj[xi::-1]))
    raise InfeasibleConditioning(f"no accepted run in {max_attempts} attempts")


@dataclass(frozen=True)
class EnumeratedPaths:
    """Truncated exact path law conditioned on reaching the high set
    before ``b``.

    ``probs`` maps state tuples to conditional probabilities (conditioned
    on the untruncated event, whose probability is computed by linear
    solve); ``truncated_mass`` is the conditional mass carried by paths
    longer than the cutoff, computed from the frontier rather than by
    subtraction, so that ``sum(probs) + truncated_mass == 1`` is an
    honest identity.
    """

    probs: dict
    truncated_mass: float
    accept_probability: float


def enumerate_conditioned(chain: FiniteChain, v_fn: Callable, level: float,
                          x: int, b: int, max_len: int) -> EnumeratedPaths:
    """Exhaustively enumerate forward paths from ``x`` that enter
    ``{V >= level}`` before visiting ``b``, up to ``max_len`` steps.

    Guarded to at most :data:`MAX_ENUM_STATES` states and 24 steps;
    beyond that the combinatorics defeat the purpose of an oracle.
    """
    if chain.size > MAX_ENUM_STATES:
        raise InvalidArgument(f"enumeration limited to {MAX_ENUM_STATES} states")
    if max_len > 24:
        raise InvalidArgument("enumeration limited to 24 steps")
    if x == b:
        raise InvalidArgument("start and taboo state must differ")
    _check_vn(chain, v_fn, level, x, b)
    high = [bool(v_fn(s) >= level) for s in chain.states]
    kern = chain.kernel
    hit_set = set(int(i) for i in range(chain.size) if high[i])
    if not hit_set:
        raise InfeasibleConditioning("no state reaches the level")

    accept = {}
    frontier_mass = []  # (prob, end_state) of alive prefixes at the cutoff
    visited = 0

    def walk(state, prob, prefix, depth):
        nonlocal visited
        visited += 1
        if visited > 2_000_000:
            raise InvalidArgument("enumeration tree too large; tighten the guards")
        if depth == max_len:
            frontier_mass.append((prob, state))
            return
        for j in np.flatnonzero(kern[state]):
            p = prob * kern[state, j]
            if p == 0.0:
                continue
            path = prefix + (int(j),)
            if high[j]:
                accept[path] = accept.get(path, 0.0) + p
            elif j == b:
                continue
            else:
                walk(int(j), p, path, depth + 1)

    walk(x, 1.0, (x,), 0)
    p_accept = hit_probability(chain, x, hit_set, {b})
    if p_accept <= 0.0:
        raise InfeasibleConditioning("conditioning event has zero probability")
    probs = {k: v / p_accept for k, v in accept.items()}
    cont = {s: hit_probability(chain, s, hit_set, {b})
            for s in set(end for _, end in frontier_mass)}
    truncated = sum(p * cont[s] for p, s in frontier_mass) / p_accept
    return EnumeratedPaths(probs=probs, truncated_mass=truncated,
                           accept_probability=p_accept)
