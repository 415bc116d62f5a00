"""rarepath: rare-event Monte Carlo via explicit changes of measure.

The package simulates diffusions and compound Poisson processes, builds
the corresponding Radon-Nikodym density processes in log space, and
estimates conditional expectations given rare first-passage events by
time reversal and reweighting instead of rejection.  Statistical
diagnostics probe whether a candidate density family keeps unit mass
(tightness of the reweighted tails) and flag strict local martingales.

Modules
-------
rng          reproducible counter-based random streams, the batch driver
paths        Brownian paths, stopped-path post-processing, the OU scale function
jumps        compound Poisson simulation (time change, thinning), compensators
densities    log-space density accumulators and the weighted estimator
lattice      nearest-neighbour walks, conditioned kernels, reversal, oracles
passage      one engine per passage law: estimator, rejection oracle, scaling
_native      builds and loads the compiled lane steps and sampler (_lanes.c)
diagnostics  reweighted tail profiles, stopped tails, unit-mean checks
cli          the ``rarepath`` command
"""

from .densities import (DensityAccumulator, EstimatorReport,
                        continuous_exponential, counting_density,
                        cpp_intensity_density, importance_estimate)
from .diagnostics import (FamilyDraw, MartingaleFamily, TightnessProfile,
                          Verdict, clamped_drift_family, constant_family,
                          inverse_bessel_family, q_tail_profile, stopped_tail,
                          unity_check)
from .errors import (BoundViolation, ExplosionSuspected, HorizonExpiredError,
                     InfeasibleConditioning, InvalidArgument, InvalidIntensity,
                     InvalidWeight, KernelUnavailable, LevelNeverReached,
                     NonterminationSuspected, RarePathError, ZeroAcceptance)
from .jumps import (IntensityFn, JumpPath, MarkDistribution, compensator,
                    simulate_cpp_thinning, simulate_cpp_time_change)
from .lattice import (BirthDeathKernel, ChainPath, FiniteChain, LatticeSpec,
                      conv_sampler, discrete_weight, enumerate_conditioned,
                      h_transform_kernel, ou_chain_kernel, reversal_kernel,
                      simulate_chain, stationary_distribution)
from .passage import (BridgeSample, OuQuery, PathFunctional, ScalingReport,
                      estimate_conditional, oracle_rejection,
                      sample_reversed_bridge, scaling_report)
from .paths import (ContinuousPath, Hit, ReversedExcursion, StoppedSegment,
                    ou_scale_ratio, path_integral_square,
                    reversed_last_excursion, simulate_brownian)
from .rng import RngStream

__version__ = "0.1.0"
