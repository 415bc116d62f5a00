"""Lattice walks: conditioned kernels, exact identities, and sampling a
rare excursion by running the reversed chain backwards.

Everything here is exact or exhaustively enumerable, which is what makes
the lattice the testing ground for the continuous constructions.
"""

from rarepath import (BirthDeathKernel, LatticeSpec, RngStream,
                      h_transform_kernel, ou_chain_kernel)
from rarepath.lattice import (birth_death_chain, conv_sample_many,
                              enumerate_conditioned, first_return_ruin, tilt,
                              weighted_ruin_sum)

SEED = 4
spec = LatticeSpec(1)          # spacing 1/2, five states up to level 2
level = 2
k_top = spec.index_of(2.0)

print("Conditioned-walk kernel on {0, .5, 1, 1.5, 2}:")
cond = h_transform_kernel(spec, level)
for k in range(1, k_top + 1):
    print(f"  state {spec.value(k):>3}: up {cond.up(k):.4f}  down {1 - cond.up(k):.4f}")
print("  (the top state is forced down; the state below it cannot re-enter)")

print("\nExhaustive weighted-path-sum identity:")
w_sum = weighted_ruin_sum(cond, lambda k, d: 1.0 - tilt(spec, k) * d,
                          k_top, k_top)
p_tilt = first_return_ruin(ou_chain_kernel(spec), k_top)
sym = BirthDeathKernel(lambda k: 1.0 if k == 0 else 0.5, spec)
p_sym = first_return_ruin(sym, k_top)
print(f"  sum over conditioned paths of prob x weight = {w_sum:.12f}")
print(f"  ratio of the two first-return ruin probs    = {p_tilt / p_sym:.12f}")
print(f"  gap = {abs(w_sum - p_tilt / p_sym):.2e}")

print("\nSampling 'reach the top before 0' paths via the reversed chain:")
chain = birth_death_chain(sym, k_top)   # the symmetric walk, reflected
enum = enumerate_conditioned(chain, lambda s: s, k_top, 1, 0, max_len=18)
n = 20_000
paths = conv_sample_many(chain, lambda s: s, k_top, 1, 0, RngStream(SEED), n)
freq = {}
for p in paths:
    key = tuple(int(v) for v in p.states)
    freq[key] = freq.get(key, 0) + 1
print("  path                  sampled  vs exact")
shown = 0
for key, prob in sorted(enum.probs.items(), key=lambda kv: -kv[1]):
    if shown == 5:
        break
    print(f"  {str(key):<22} {freq.get(key, 0) / n:>8.4f} vs {prob:.4f}")
    shown += 1
print(f"  truncated conditional mass beyond 18 steps: {enum.truncated_mass:.4f}")
