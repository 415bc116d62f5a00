import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from rarepath import (BirthDeathKernel, ChainPath, FiniteChain,
                      InfeasibleConditioning, InvalidArgument, LatticeSpec,
                      RngStream, conv_sampler, discrete_weight,
                      enumerate_conditioned, h_transform_kernel,
                      ou_chain_kernel, reversal_kernel, simulate_chain,
                      stationary_distribution)
from rarepath.lattice import (birth_death_chain, birth_death_ruin,
                              conv_sample_many, first_return_ruin,
                              hit_probability, tilt, weighted_ruin_sum)


def _symmetric(spec):
    return BirthDeathKernel(lambda k: 1.0 if k == 0 else 0.5, spec)


def _reflecting_walk(k_top):
    return birth_death_chain(_symmetric(LatticeSpec(0)), k_top)


def _hand_built_reflecting_kernel(kernel, top):
    """Reference for :func:`birth_death_chain`: the reflecting walk written
    out entry by entry."""
    m = top + 1
    kern = np.zeros((m, m))
    kern[0, 1] = 1.0
    kern[top, top - 1] = 1.0
    for k in range(1, top):
        up = kernel.up(k)
        kern[k, k + 1] = up
        kern[k, k - 1] = 1.0 - up
    return kern


# stationary laws of the reflecting walks on [0, 2], as the detailed-balance
# recursion that stationary_distribution applied to tridiagonal kernels gave
_RECORDED_PI = {
    ("symmetric", 1): [0.125, 0.25, 0.25, 0.25, 0.125],
    ("symmetric", 2): [0.0625, 0.125, 0.125, 0.125, 0.125, 0.125, 0.125, 0.125,
                       0.0625],
    ("ou", 1): [0.2678571428571428, 0.42857142857142855, 0.2142857142857143,
                0.07142857142857144, 0.01785714285714286],
    ("ou", 2): [0.14041708669354838, 0.2643145161290323, 0.22026209677419356,
                0.1622983870967742, 0.10549395161290323, 0.06028225806451613,
                0.030141129032258063, 0.01310483870967742, 0.0036857358870967744],
}


def test_lattice_spec_dyadic_exactness():
    for n in range(0, 12):
        spec = LatticeSpec(n)
        assert spec.delta ** 2 == spec.time_step
    assert LatticeSpec(3).value(8) == 1.0
    assert LatticeSpec(3).index_of(1.0) == 8
    with pytest.raises(InvalidArgument):
        LatticeSpec(3).index_of(1.01)


def test_ou_chain_kernel_probabilities():
    spec = LatticeSpec(3)  # spacing 1/8
    kern = ou_chain_kernel(spec)
    assert kern.up(spec.index_of(1.0)) == pytest.approx(7.0 / 16.0, abs=1e-15)
    assert kern.up(spec.index_of(10.0)) == pytest.approx(5.0 / 16.0, abs=1e-15)
    assert kern.up(0) == 1.0
    # the capped tilt stays below one for every resolution
    for n in range(1, 20):
        s = LatticeSpec(n)
        assert tilt(s, 10 ** 6) < 1.0


def test_h_transform_kernel_rows_and_edge():
    spec = LatticeSpec(2)  # spacing 1/4
    level = 2
    kern = h_transform_kernel(spec, level)
    k_top = spec.index_of(2.0)
    for k in range(1, k_top):
        up = kern.up(k)
        assert 0.0 <= up <= 1.0
    # the state one notch below the level cannot move back up
    assert kern.up(k_top - 1) == 0.0
    assert kern.up(k_top) == 0.0
    assert 0 in kern.absorbing


@pytest.mark.parametrize("n,level", [(1, 2), (2, 2), (3, 3), (4, 2)])
def test_h_function_harmonic_on_interior(n, level):
    spec = LatticeSpec(n)
    k_top = spec.index_of(float(level))
    for k in range(1, k_top):
        y = spec.value(k)
        h_val = (level - y) / level
        split = 0.5 * (level - spec.value(k + 1)) / level \
            + 0.5 * (level - spec.value(k - 1)) / level
        assert abs(h_val - split) <= 1e-12


def test_simulate_chain_absorbing_start():
    spec = LatticeSpec(1)
    kern = h_transform_kernel(spec, 2)
    path = simulate_chain(kern, 0, lambda s, k: False, RngStream(1))
    assert len(path.states) == 1


def test_simulate_chain_symmetric_ruin():
    spec = LatticeSpec(0)
    kern = BirthDeathKernel(lambda k: 0.5, spec)
    wins = 0
    n = 2000
    for r in range(n):
        path = simulate_chain(kern, 1, lambda s, k: s in (0, 2), RngStream(50, r))
        wins += path.states[-1] == 2
    assert abs(wins / n - 0.5) < 3.0 * math.sqrt(0.25 / n)


def test_simulate_chain_ruin_matches_exact_oracle():
    # symmetric walk on 0..N: P(hit 0 before N | start 1) = (N-1)/N, exactly
    # reproduced by the rational product-of-odds oracle
    big = 4
    exact = birth_death_ruin(lambda k: Fraction(1, 2), 1, 0, big)
    assert exact == Fraction(1, big)
    ruins = 0
    n = 3000
    spec = LatticeSpec(0)
    kern = BirthDeathKernel(lambda k: 0.5, spec)
    for r in range(n):
        path = simulate_chain(kern, 1, lambda s, k: s in (0, big), RngStream(60, r))
        ruins += path.states[-1] == 0
    p = 1.0 - float(exact)
    assert abs(ruins / n - p) < 3.0 * math.sqrt(p * (1 - p) / n)


def test_discrete_weight_single_step_and_products():
    spec = LatticeSpec(3)
    down = ChainPath(np.array([8, 7]), spec)  # one step down from value 1
    w = discrete_weight(down, spec, form="product")
    assert math.exp(w.log_weight) == pytest.approx(9.0 / 8.0, abs=1e-12)
    # two up-steps where the tilt cap binds: constant factor (1 - tilt)^2
    spec2 = LatticeSpec(2)
    path = ChainPath(np.array([12, 13, 14]), spec2)
    w2 = discrete_weight(path, spec2, form="product")
    t = tilt(spec2, 12)
    assert t == tilt(spec2, 13)
    assert w2.log_weight == pytest.approx(2.0 * math.log(1.0 - t), abs=1e-12)


def test_discrete_weight_guards():
    spec = LatticeSpec(2)
    with pytest.raises(InvalidArgument):
        discrete_weight(ChainPath(np.array([2, 0, 1]), spec), spec)
    with pytest.raises(InvalidArgument):
        discrete_weight(ChainPath(np.array([2, 1]), spec), spec, form="exponent")
    with pytest.raises(InvalidArgument):
        discrete_weight(ChainPath(np.array([2, 4]), spec), spec)


def test_discrete_weight_forms_agree_asymptotically():
    # the exponent form drops per-step cubic remainders; the gap obeys
    # |log difference| <= C * duration * spacing with stable C across
    # resolutions
    level = 2
    ratios = {}
    for n in (4, 5, 6):
        spec = LatticeSpec(n)
        kern = h_transform_kernel(spec, level)
        gaps, durs = [], []
        for r in range(12):
            path = simulate_chain(kern, spec.index_of(float(level)),
                                  lambda s, k: False, RngStream(70 + n, r))
            wp = discrete_weight(path, spec, form="product")
            we = discrete_weight(path, spec, form="exponent")
            gaps.append(abs(wp.log_weight - we.log_weight))
            durs.append(wp.duration)
        ratios[n] = np.median(np.array(gaps) / (np.array(durs) * spec.delta))
    vals = list(ratios.values())
    assert max(vals) < 10.0 * max(min(vals), 1e-6)


def test_reversal_detailed_balance_fixed_point():
    chain = _reflecting_walk(4)
    rev = reversal_kernel(chain)
    assert np.max(np.abs(rev.kernel - chain.kernel)) < 1e-12


def test_reversal_three_cycle():
    kern = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    chain = FiniteChain(states=[0, 1, 2], kernel=kern, pi=np.full(3, 1.0 / 3.0))
    rev = reversal_kernel(chain)
    assert np.max(np.abs(rev.kernel - kern.T)) < 1e-15


def test_reversal_involution():
    gen = RngStream(81).generator()
    kern = gen.random((5, 5)) + 0.05
    kern /= kern.sum(axis=1, keepdims=True)
    chain = FiniteChain(states=list(range(5)), kernel=kern)
    pi = stationary_distribution(chain)
    chain = FiniteChain(states=list(range(5)), kernel=kern, pi=pi)
    twice = reversal_kernel(reversal_kernel(chain))
    assert np.max(np.abs(twice.kernel - kern)) < 1e-12


def test_stationary_two_state_closed_form():
    a, b = 0.3, 0.1
    kern = np.array([[1 - a, a], [b, 1 - b]])
    pi = stationary_distribution(FiniteChain(states=[0, 1], kernel=kern))
    expected = np.array([b, a]) / (a + b)
    assert np.max(np.abs(pi - expected)) < 1e-12


def test_stationary_doubly_stochastic_uniform():
    kern = np.array([[0.2, 0.5, 0.3], [0.5, 0.2, 0.3], [0.3, 0.3, 0.4]])
    pi = stationary_distribution(FiniteChain(states=[0, 1, 2], kernel=kern))
    assert np.max(np.abs(pi - 1.0 / 3.0)) < 1e-12


def test_stationary_random_chain_residual():
    gen = RngStream(82).generator()
    kern = gen.random((6, 6)) + 0.01
    kern /= kern.sum(axis=1, keepdims=True)
    chain = FiniteChain(states=list(range(6)), kernel=kern)
    pi = stationary_distribution(chain)
    assert np.max(np.abs(pi @ kern - pi)) <= 1e-10


def test_stationary_reducible_rejected():
    kern = np.eye(3)
    with pytest.raises(InvalidArgument):
        stationary_distribution(FiniteChain(states=[0, 1, 2], kernel=kern))


def test_hit_probability_gamblers_ruin():
    chain = _reflecting_walk(4)
    for x in (1, 2, 3):
        p = hit_probability(chain, x, hit={4}, avoid={0})
        assert p == pytest.approx(x / 4.0, abs=1e-12)


@pytest.mark.parametrize("walk,n", sorted(_RECORDED_PI))
def test_birth_death_chain_matches_reference(walk, n):
    spec = LatticeSpec(n)
    kernel = ou_chain_kernel(spec) if walk == "ou" else _symmetric(spec)
    top = spec.index_of(2.0)
    chain = birth_death_chain(kernel, top)
    assert chain.states == list(range(top + 1))
    assert (chain.kernel == _hand_built_reflecting_kernel(kernel, top)).all()
    assert chain.pi.tolist() == _RECORDED_PI[(walk, n)]


def test_conv_sample_many_on_birth_death_chain_pinned():
    # sha256 of 2 000 paths, recorded on the hand-built symmetric walk with
    # the recursion's stationary law
    paths = conv_sample_many(_reflecting_walk(4), lambda s: s, 4, 1, 0,
                             RngStream(12), 2000)
    digest = hashlib.sha256()
    for p in paths:
        digest.update(p.states.astype(np.int64).tobytes() + b"|")
    assert digest.hexdigest() == \
        "33c72a7821f92031a2d84973cd306938786d43c3af387dccf2f0fba8ebdcb3e8"


def test_first_return_ruin_against_exact_rational():
    # the up-probabilities are floats, so their Fractions define the walk
    # exactly and birth_death_ruin gives its ruin probability with no error
    for n in range(5):
        spec = LatticeSpec(n)
        for kernel in (ou_chain_kernel(spec), _symmetric(spec)):
            for level in (2, 3, 4):
                top = spec.index_of(float(level))
                from_below = birth_death_ruin(lambda k: Fraction(kernel.up(k)),
                                              top - 1, 0, top)
                exact = (1 - Fraction(kernel.up(top))) * (1 - from_below)
                assert first_return_ruin(kernel, top) == pytest.approx(
                    float(exact), rel=5e-15)


@pytest.mark.parametrize("build", [first_return_ruin, birth_death_chain])
def test_degenerate_walks_rejected(build):
    spec = LatticeSpec(1)
    # h_transform_kernel forbids the step from one notch below the top
    for kernel in (h_transform_kernel(spec, 2), BirthDeathKernel(lambda k: 1.0, spec),
                   BirthDeathKernel(lambda k: 0.0, spec)):
        with pytest.raises(InvalidArgument):
            build(kernel, 4)
    with pytest.raises(InvalidArgument):
        build(_symmetric(spec), 0)


def test_weighted_ruin_sum_identity_five_states():
    # exhaustive weighted path summation equals the ratio of the two
    # first-return ruin probabilities (verified to 1e-12; cf. the exact
    # rational computation in the prototype suite)
    spec = LatticeSpec(1)
    level = 2
    k_top = spec.index_of(2.0)
    cond = h_transform_kernel(spec, level)
    w_sum = weighted_ruin_sum(cond, lambda k, d: 1.0 - tilt(spec, k) * d,
                              k_top, k_top)
    p_ou = first_return_ruin(ou_chain_kernel(spec), k_top)
    p_sym = first_return_ruin(_symmetric(spec), k_top)
    assert p_sym == pytest.approx(1.0 / 8.0, abs=1e-15)
    assert w_sum == pytest.approx(p_ou / p_sym, abs=1e-12)
    assert w_sum == pytest.approx(float(Fraction(135, 272) / Fraction(1, 8)), abs=1e-12)


def test_pathwise_change_of_measure_identity():
    # for ANY step sequence, symmetric-walk probability times the product
    # weight equals the tilted-walk probability of the same path, exactly
    spec = LatticeSpec(2)
    kern = ou_chain_kernel(spec)
    gen = RngStream(83).generator()
    for _ in range(50):
        length = int(gen.integers(1, 10))
        states = [int(gen.integers(3, 12))]
        for _k in range(length):
            states.append(states[-1] + (1 if gen.random() < 0.5 else -1))
        if min(states) <= 0:
            continue
        path = ChainPath(np.array(states), spec)
        w = discrete_weight(path, spec, form="product")
        p_sym = 0.5 ** length
        p_tilted = 1.0
        for a, b in zip(states[:-1], states[1:]):
            up = kern.up(a)
            p_tilted *= up if b > a else 1.0 - up
        assert p_sym * math.exp(w.log_weight) == pytest.approx(p_tilted, rel=1e-12)


def test_enumeration_guards():
    chain = _reflecting_walk(4)
    with pytest.raises(InvalidArgument):
        enumerate_conditioned(chain, lambda s: s, 4, 1, 0, max_len=25)
    big = FiniteChain(states=list(range(13)),
                      kernel=np.full((13, 13), 1.0 / 13.0))
    with pytest.raises(InvalidArgument):
        enumerate_conditioned(big, lambda s: s, 12, 1, 0, max_len=4)


def test_enumeration_mass_accounting():
    chain = _reflecting_walk(4)
    enum = enumerate_conditioned(chain, lambda s: s, 4, 1, 0, max_len=18)
    total = sum(enum.probs.values()) + enum.truncated_mass
    assert total == pytest.approx(1.0, abs=1e-10)
    assert enum.accept_probability == pytest.approx(0.25, abs=1e-12)


def test_enumeration_structural_paths():
    chain = _reflecting_walk(2)  # states 0,1,2; only state 2 is high
    enum = enumerate_conditioned(chain, lambda s: s, 2, 1, 0, max_len=10)
    for path in enum.probs:
        assert path[0] == 1
        assert path[-1] == 2
        assert all(s not in (0,) for s in path[1:])


def test_conv_sampler_structural():
    chain = _reflecting_walk(4)
    for r in range(25):
        path = conv_sampler(chain, lambda s: s, 4, 1, 0, RngStream(90, r))
        s = path.states
        assert s[0] == 1 and s[-1] == 4
        assert np.all(s[:-1] < 4) and np.all(s > 0)


def test_conv_sampler_matches_enumeration_chi_square():
    chain = _reflecting_walk(4)
    enum = enumerate_conditioned(chain, lambda s: s, 4, 1, 0, max_len=18)
    n = 4000
    paths = conv_sample_many(chain, lambda s: s, 4, 1, 0, RngStream(91), n)
    counts = {}
    for p in paths:
        key = tuple(int(v) for v in p.states)
        counts[key] = counts.get(key, 0) + 1
    observed, expected = [], []
    leftover = 1.0
    for key, prob in sorted(enum.probs.items()):
        if prob * n < 8:
            continue
        observed.append(counts.get(key, 0))
        expected.append(prob * n)
        leftover -= prob
    observed.append(n - sum(observed))
    expected.append(leftover * n)
    expected = np.array(expected) * (n / sum(expected))
    _stat, p_val = stats.chisquare(observed, expected)
    assert p_val > 0.01


def test_conv_sampler_infeasible_conditioning():
    chain = _reflecting_walk(4)
    with pytest.raises(InfeasibleConditioning):
        conv_sampler(chain, lambda s: s, 99, 1, 0, RngStream(1))


def test_finite_chain_validation():
    with pytest.raises(InvalidArgument):
        FiniteChain(states=[0, 1], kernel=np.array([[0.5, 0.4], [0.5, 0.5]]))
    with pytest.raises(InvalidArgument):
        FiniteChain(states=[0, 1], kernel=np.array([[0.5, 0.5], [0.5, 0.5]]),
                    pi=np.array([0.9, 0.2]))
    with pytest.raises(InvalidArgument):
        # valid rows but pi not stationary
        FiniteChain(states=[0, 1], kernel=np.array([[0.9, 0.1], [0.5, 0.5]]),
                    pi=np.array([0.5, 0.5]))
