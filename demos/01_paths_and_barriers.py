"""Stopped paths and barrier detection.

Draws one radial-complement excursion with the reweighted engine, and
shows why sub-step crossing coins matter: pure grid detection misses
excursions across a barrier inside a step and undercounts hits by
O(sqrt(step)).
"""

from rarepath import (OuQuery, PathFunctional, RngStream, oracle_rejection,
                      ou_scale_ratio, sample_reversed_bridge)

SEED = 1

print("One radial-complement path 2 - |B| from level 2 (always reaches 0):")
bs = sample_reversed_bridge(RngStream(SEED), level=2, step=1e-3)
v = bs.excursion.segment.values
print(f"  starts at {v[-1]} exactly, last visits 1 at t ~ "
      f"{bs.last_visit_time:.3f} and reaches 0 at t ~ {bs.hit_time:.3f}")
print(f"  read backwards from that last visit: {len(v)} grid values from "
      f"{v[0]} up to {v[-1]}")

print("\nUpward-hit probability from 1.0, barriers (0, 2):")
p_exact = ou_scale_ratio(1.0, 2.0)
print(f"  scale-function quadrature: {p_exact:.5f}")
for detection in ("grid", "bridge"):
    rep = oracle_rejection(OuQuery(level=2, functional=PathFunctional.indicator(),
                                   replicas=100_000, step=1e-3, seed=SEED,
                                   detection=detection))
    p = rep.extras["acceptance_rate"]
    se = rep.extras["acceptance_stderr"]
    print(f"  {detection:>6} detection at step 1e-3: {p:.5f} +- {se:.5f} "
          f"(bias {p - p_exact:+.5f})")
print("  the grid-mode bias is ~0.15*sqrt(step) and shrinks with refinement;")
print("  bridge coins remove it to O(step).")
