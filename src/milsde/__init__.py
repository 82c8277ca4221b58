"""Adaptive Milstein integration for Ito SDE systems.

The pieces, bottom up:

- :mod:`milsde.problems`: SDE problem container and the built-in test
  problems (cubic drifts with additive, diagonal, commutative, and
  non-commutative noise).
- :mod:`milsde.wiener`: grid-quantized Wiener paths, iterated
  integrals and Levy areas over arbitrary windows, and the Levy-area
  moment constants.
- :mod:`milsde.steppers`: the one step map, ``advance_state``, for
  Milstein, tamed Milstein, and Euler-Maruyama, and the check of
  scheme names.
- :mod:`milsde.adaptive`: the path-bounded step controller with its
  tamed backstop, plus fixed-step integration on the same paths.
- :mod:`milsde.harness`: coupled-reference strong-error tables (read
  as convergence or efficiency results) and backstop-probability
  curves.
- :mod:`milsde.cli`: the ``milsde`` command.
"""

from .adaptive import (
    AdaptiveBatch,
    FixedBatch,
    FixedSolves,
    SolutionPath,
    StrategyConfig,
    integrate_adaptive,
    integrate_adaptive_batch,
    integrate_fixed,
    propose_step,
)
from .errors import ExperimentError, ResourceError, UsageError
from .harness import (
    BACKSTOP_CSV_HEADER,
    CSV_HEADER,
    DEFAULT_BASE_SEED,
    BackstopCurve,
    BackstopPoint,
    ErrorRow,
    ErrorTable,
    ExperimentConfig,
    StepProfile,
    backstop_probability,
    convergence_table,
)
from .problems import (
    BUILTIN_NAMES,
    SdeProblem,
    commutator_defect,
    make_builtin,
)
from .steppers import FIXED_SCHEMES
from .wiener import (
    INCREMENT_GRID,
    IteratedIntegrals,
    PathPrefixes,
    PathStreams,
    WienerPath,
    euler_number,
    generate_path,
    integrals_over,
    moment_check,
    moment_constant,
    uniform_integrals,
)

__version__ = "0.1.0"

__all__ = [
    "AdaptiveBatch",
    "BACKSTOP_CSV_HEADER",
    "BUILTIN_NAMES",
    "BackstopCurve",
    "BackstopPoint",
    "CSV_HEADER",
    "DEFAULT_BASE_SEED",
    "ErrorRow",
    "ErrorTable",
    "ExperimentConfig",
    "ExperimentError",
    "FIXED_SCHEMES",
    "INCREMENT_GRID",
    "IteratedIntegrals",
    "PathPrefixes",
    "PathStreams",
    "ResourceError",
    "SdeProblem",
    "SolutionPath",
    "StepProfile",
    "StrategyConfig",
    "UsageError",
    "WienerPath",
    "backstop_probability",
    "commutator_defect",
    "convergence_table",
    "euler_number",
    "generate_path",
    "integrals_over",
    "integrate_adaptive",
    "integrate_adaptive_batch",
    "integrate_fixed",
    "FixedSolves",
    "FixedBatch",
    "make_builtin",
    "moment_check",
    "moment_constant",
    "propose_step",
    "uniform_integrals",
    "__version__",
]
