"""Every step, round and jump cap raises its typed error, with its code."""

import numpy as np
import pytest

from rarepath import (ExplosionSuspected, HorizonExpiredError, IntensityFn,
                      LatticeSpec, MarkDistribution, NonterminationSuspected,
                      RngStream, h_transform_kernel, ou_chain_kernel,
                      simulate_chain, simulate_cpp_thinning,
                      simulate_cpp_time_change)
from rarepath.jumps import thinning_counts, time_change_counts
from rarepath.lattice import weighted_ruin_sum
from rarepath.passage import _is_batch, _rej_batch

_MARK = MarkDistribution.point_mass([1.0])


def _ruin_sum_one_round():
    kern = h_transform_kernel(LatticeSpec(1), 2)
    weighted_ruin_sum(kern, lambda k, d: 1.0, 4, 4, max_rounds=1)


CASES = {
    "is-horizon": (HorizonExpiredError, "horizon-expired", lambda: _is_batch(
        RngStream(1).generator(), 64, 2, 4e-3, None, "bridge", 5)),
    "rej-horizon": (HorizonExpiredError, "horizon-expired", lambda: _rej_batch(
        RngStream(1).generator(), 64, 2, 4e-3, None, "bridge", 5)),
    "cpp-time-change": (ExplosionSuspected, "explosion-suspected",
                        lambda: simulate_cpp_time_change(
                            RngStream(1), lambda y: 1e3, _MARK, 0.0, 1.0,
                            max_jumps=10)),
    "cpp-thinning": (ExplosionSuspected, "explosion-suspected",
                     lambda: simulate_cpp_thinning(
                         RngStream(1), IntensityFn.deterministic(lambda t: 1e3),
                         1e3, _MARK, 0.0, 1.0, max_jumps=10)),
    "time-change-counts": (ExplosionSuspected, "explosion-suspected",
                           lambda: time_change_counts(
                               RngStream(1), lambda v: np.full_like(v, 1e3), 1.0,
                               0.0, 1.0, 8, max_rounds=3)),
    "thinning-counts": (ExplosionSuspected, "explosion-suspected",
                        lambda: thinning_counts(
                            RngStream(1), lambda v: np.full_like(v, 1e3), 1e3,
                            1.0, 0.0, 1.0, 8, max_rounds=3)),
    "chain": (NonterminationSuspected, "nontermination-suspected",
              lambda: simulate_chain(ou_chain_kernel(LatticeSpec(1)), 2,
                                     lambda k, step: False, RngStream(1),
                                     max_steps=10)),
    "ruin-sum": (NonterminationSuspected, "nontermination-suspected",
                 _ruin_sum_one_round),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_cap_raises_typed_error(case):
    cls, code, run = CASES[case]
    with pytest.raises(cls) as info:
        run()
    assert type(info.value) is cls
    assert info.value.code == code
    assert info.value.exit_code == 3
