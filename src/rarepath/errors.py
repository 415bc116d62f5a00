"""Exception hierarchy.

Every error carries a short machine-parsable ``code`` used by the CLI;
``exit_code`` distinguishes validation failures (2) from runtime/model
failures (3).
"""


class RarePathError(Exception):
    code = "runtime-error"
    exit_code = 3


class InvalidArgument(RarePathError, ValueError):
    code = "invalid-argument"
    exit_code = 2


class InvalidIntensity(RarePathError):
    code = "invalid-intensity"


class BoundViolation(RarePathError):
    code = "bound-violation"


class ExplosionSuspected(RarePathError):
    code = "explosion-suspected"


class NonterminationSuspected(RarePathError):
    code = "nontermination-suspected"


class LevelNeverReached(RarePathError):
    code = "level-never-reached"


class InfeasibleConditioning(RarePathError):
    code = "infeasible-conditioning"


class InvalidWeight(RarePathError):
    code = "invalid-weight"


class ZeroAcceptance(RarePathError):
    code = "zero-acceptance"


class HorizonExpiredError(RarePathError):
    code = "horizon-expired"


class KernelUnavailable(RarePathError):
    code = "kernel-unavailable"
