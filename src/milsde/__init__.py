"""Adaptive Milstein integration for Ito SDE systems.

The pieces, bottom up:

- :mod:`milsde.problems`: SDE problem container and the built-in test
  problems (cubic drifts with additive, diagonal, commutative, and
  non-commutative noise).
- :mod:`milsde.wiener`: grid-quantized Wiener paths, iterated
  integrals and Levy areas over arbitrary windows, dyadic refinement,
  and the Levy-area moment constants.
- :mod:`milsde.steppers`: Milstein, tamed Milstein, and
  Euler-Maruyama one-step maps.
- :mod:`milsde.adaptive`: the path-bounded step controller with its
  tamed backstop, plus fixed-step integration on the same paths.
- :mod:`milsde.harness`: coupled-reference strong-error tables,
  efficiency readouts, and backstop-probability curves.
- :mod:`milsde.cli`: the ``milsde`` command.
"""

from .adaptive import (
    AdaptiveBatch,
    FixedBatch,
    SolutionPath,
    StrategyConfig,
    integrate_adaptive,
    integrate_adaptive_batch,
    integrate_fixed,
    integrate_fixed_batch,
    mesh_integrals,
    propose_step,
)
from .errors import ExperimentError, ResourceError, StepOverflow, UsageError
from .harness import (
    BACKSTOP_CSV_HEADER,
    CSV_HEADER,
    DEFAULT_BASE_SEED,
    BackstopCurve,
    BackstopPoint,
    ErrorRow,
    ErrorTable,
    ExperimentConfig,
    RmsResult,
    StepProfile,
    backstop_probability,
    convergence_table,
    efficiency_table,
    rms_error,
)
from .problems import (
    BUILTIN_NAMES,
    BuiltinProblem,
    SdeProblem,
    check_jacobian,
    commutator_defect,
    make_builtin,
)
from .steppers import (
    FIXED_SCHEMES,
    StepInput,
    StepOutput,
    backstop_step,
    comparator_step,
    euler_maruyama_step,
    milstein_step,
    scheme_step,
    tamed_milstein_step,
)
from .wiener import (
    INCREMENT_GRID,
    IteratedIntegrals,
    PathPrefixes,
    WienerPath,
    euler_number,
    generate_path,
    integrals_over,
    moment_check,
    moment_constant,
    read_path,
    refine_path,
    uniform_integrals,
    write_path,
)

__version__ = "0.1.0"

__all__ = [
    "AdaptiveBatch",
    "BACKSTOP_CSV_HEADER",
    "BUILTIN_NAMES",
    "BackstopCurve",
    "BackstopPoint",
    "BuiltinProblem",
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
    "ResourceError",
    "RmsResult",
    "SdeProblem",
    "SolutionPath",
    "StepInput",
    "StepOutput",
    "StepOverflow",
    "StepProfile",
    "StrategyConfig",
    "UsageError",
    "WienerPath",
    "backstop_probability",
    "backstop_step",
    "check_jacobian",
    "commutator_defect",
    "comparator_step",
    "convergence_table",
    "efficiency_table",
    "euler_maruyama_step",
    "euler_number",
    "generate_path",
    "integrals_over",
    "integrate_adaptive",
    "integrate_adaptive_batch",
    "integrate_fixed",
    "integrate_fixed_batch",
    "FixedBatch",
    "mesh_integrals",
    "make_builtin",
    "milstein_step",
    "moment_check",
    "moment_constant",
    "propose_step",
    "read_path",
    "refine_path",
    "rms_error",
    "scheme_step",
    "tamed_milstein_step",
    "uniform_integrals",
    "write_path",
    "__version__",
]
