"""Problem definitions for Ito SDE systems dX = f(X) dt + sum_i g_i(X) dW_i.

A problem bundles the drift f, the diffusion columns g_i with their
Jacobians Dg_i, and metadata the steppers and the step-size controller
need (dimensions, noise structure, initial state, horizon). Drift is
expected to satisfy a one-sided Lipschitz condition (cubic-type decay is
the intended regime); diffusion columns are globally Lipschitz. Nothing
here integrates anything: problems are immutable value objects.

Every built-in problem is built by one code path, :func:`make_builtin`,
from a spec that declares only what differs between them: the noise
structure, the diffusion column and the Jacobian of each column. The
dimensions come from the Jacobians, the cubic drift from d, and X(0)
is 2 or (2, 3) with horizon 1. The coefficient callables are
module-level functions (bound via ``functools.partial``) so problems
pickle cleanly for process pools. Their constants, the noise scale
among them, are bound once as 0-d float64 arrays: a ufunc takes such
an operand for less than a Python float, with the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .errors import UsageError
from .wiener import _check_horizon

__all__ = [
    "SdeProblem",
    "BUILTIN_NAMES",
    "make_builtin",
    "commutator_defect",
]

#: Noise structure labels. Only "additive" changes what is computed: the
#: steps skip the Milstein correction, which is identically zero there.
#: Under "diagonal" and "commutative" noise the Levy-area part of the
#: correction vanishes, but the steps still compute it; "general" claims
#: nothing. The solves refuse a label that their probe states contradict.
STRUCTURES = ("additive", "diagonal", "commutative", "general")


@dataclass(frozen=True)
class SdeProblem:
    """Immutable description of an autonomous Ito SDE system.

    Coefficients act on the last axis, so one callable serves a single
    state ``x`` of shape (d,) and a batch of states of shape (..., d)
    (one row per Monte Carlo path). Rows never mix: row p of a batched
    result equals the call on row p alone, bit for bit.

    Attributes:
        dim_state: state dimension d.
        dim_noise: number of driving Wiener components m.
        drift: f(x) -> (..., d) array.
        diffusion_column: g(x, i) -> (..., d) array, the i-th diffusion
            column; a constant column may be returned as a (d,) array.
        diffusion_jacobian: jac(x, i) -> (d, d) or (..., d, d) array, the
            Jacobian of g_i.
        structure: one of STRUCTURES; integrators use "additive" to skip
            the identically-zero Milstein correction, and refuse a label
            the coefficients contradict (see ``STRUCTURES``).
        initial_state: X(0), shape (d,).
        horizon: final time T, with 2**-40 <= T <= 2**40.
        name: short identifier used in logs and CSV output.
    """

    dim_state: int
    dim_noise: int
    drift: Callable[[np.ndarray], np.ndarray]
    diffusion_column: Callable[[np.ndarray, int], np.ndarray]
    diffusion_jacobian: Callable[[np.ndarray, int], np.ndarray]
    structure: str
    initial_state: np.ndarray
    horizon: float
    name: str = "custom"

    def __post_init__(self):
        if self.dim_state < 1 or self.dim_noise < 1:
            raise UsageError("dim_state and dim_noise must be positive")
        if self.structure not in STRUCTURES:
            raise UsageError(f"unknown structure {self.structure!r}; expected one of {STRUCTURES}")
        _check_horizon(self.horizon)
        state = np.asarray(self.initial_state, dtype=float)
        if state.shape != (self.dim_state,):
            raise UsageError(
                f"initial_state has shape {state.shape}, expected ({self.dim_state},)"
            )
        if not np.all(np.isfinite(state)):
            raise UsageError("initial_state must be finite")
        object.__setattr__(self, "initial_state", state)


# ---------------------------------------------------------------------------
# Built-in coefficient functions. Module-level so partial() keeps problems
# picklable. Each works on the last axis of x, so it takes one state or a
# batch. Jacobians of every builtin diffusion are constant matrices, so
# they are prebuilt once and returned read-only.
# ---------------------------------------------------------------------------


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    a.flags.writeable = False
    return a


_ONE, _THREE = _readonly(1.0), _readonly(3.0)


def _cubic_drift_1d(x):
    # f(x) = x - x^3, one-sided Lipschitz with constant 1.
    return x - x * x * x


def _cubic_drift_2d(x):
    # Componentwise f(x) = x - 3 x^3.
    return x - _THREE * x * x * x


def _scalar_mult_column(scale, x, i):
    return scale * (_ONE - x)


def _scalar_probe_column(scale, x, i):
    return scale * x


def _const_column(columns, x, i):
    return columns[i]


def _const_jacobian(jacobians, x, i):
    return jacobians[i]


def _twod_diagonal_column(scale, x, i):
    col = np.zeros(np.shape(x))
    col[..., i] = scale * x[..., i]
    return col


def _twod_commutative_column(scale, x, i):
    # G(x) = scale * [[x1, x2], [x2, x1]]
    if i == 0:
        return scale * x
    return scale * x[..., ::-1]


def _twod_general_column(weights, x, i):
    # G(x) = scale * [[1.5 x1, x2], [x2, 1.5 x1]]; weights[i] holds the
    # factors of column i, so column 0 is (1.5 scale x1, scale x2) and
    # column 1 is (scale x2, 1.5 scale x1).
    if i == 0:
        return x * weights[0]
    return x[..., ::-1] * weights[1]


# Each builtin at noise scale s (a 0-d array): its structure label, its
# diffusion column and the Jacobian of each column.
_SPECS = {
    "scalar_mult": lambda s: ("diagonal", partial(_scalar_mult_column, s), [[[-s]]]),
    "scalar_add": lambda s: ("additive", partial(_const_column, (_readonly([s]),)), [[[0.0]]]),
    "scalar_probe": lambda s: ("diagonal", partial(_scalar_probe_column, s), [[[s]]]),
    "twod_diagonal": lambda s: (
        "diagonal",
        partial(_twod_diagonal_column, s),
        [[[s, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, s]]],
    ),
    "twod_commutative": lambda s: (
        "commutative",
        partial(_twod_commutative_column, s),
        [[[s, 0.0], [0.0, s]], [[0.0, s], [s, 0.0]]],
    ),
    "twod_noncommutative": lambda s: (
        "general",
        partial(_twod_general_column, (_readonly([1.5 * s, s]), _readonly([s, 1.5 * s]))),
        [[[1.5 * s, 0.0], [0.0, s]], [[0.0, s], [1.5 * s, 0.0]]],
    ),
}

BUILTIN_NAMES = tuple(_SPECS)


def make_builtin(name: str, **parameters: float) -> SdeProblem:
    """Build a built-in problem by name.

    Args:
        name: one of ``BUILTIN_NAMES``.
        **parameters: optional overrides (only ``noise_scale`` is
            recognised; it defaults to 0.2 for every builtin).

    Raises:
        UsageError: unknown name or parameter.
    """
    if name not in _SPECS:
        raise UsageError(
            f"unknown builtin problem {name!r}; available: {', '.join(BUILTIN_NAMES)}"
        )
    unknown = set(parameters) - {"noise_scale"}
    if unknown:
        raise UsageError(f"unknown problem parameters: {sorted(unknown)}")
    scale = _readonly(float(parameters.get("noise_scale", 0.2)))
    structure, column, jacobians = _SPECS[name](scale)
    jacobians = tuple(_readonly(j) for j in jacobians)
    d = len(jacobians[0])
    return SdeProblem(
        dim_state=d,
        dim_noise=len(jacobians),
        drift=_cubic_drift_1d if d == 1 else _cubic_drift_2d,
        diffusion_column=column,
        diffusion_jacobian=partial(_const_jacobian, jacobians),
        structure=structure,
        initial_state=np.array([2.0, 3.0][:d]),
        horizon=1.0,
        name=name,
    )


def commutator_defect(problem: SdeProblem, points) -> float:
    """Max over points and pairs (i, j) of ||Dg_i g_j - Dg_j g_i||_inf.

    Zero (up to rounding) exactly when the noise is commutative, in which
    case the Levy-area part of the Milstein correction vanishes.
    """
    return _commutators(problem, points)[0]


def _commutators(problem: SdeProblem, points) -> tuple[float, float]:
    """The commutator defect over ``points``, and the largest |Dg_i g_j|
    entry there, the scale the defect is measured against."""
    m = problem.dim_noise
    defect = scale = 0.0
    for x in points:
        x = np.asarray(x, dtype=float)
        cols = [problem.diffusion_column(x, i) for i in range(m)]
        jacs = [problem.diffusion_jacobian(x, i) for i in range(m)]
        products = np.array([[jacs[i] @ cols[j] for j in range(m)] for i in range(m)])
        scale = max(scale, float(np.abs(products).max()))
        defect = max(defect, float(np.abs(products - products.swapaxes(0, 1)).max()))
    return defect, scale


def _check_structure(problem: SdeProblem, points) -> None:
    """UsageError when the structure label contradicts the coefficients
    at ``points``: "additive" with a nonzero Jacobian entry, or
    "diagonal" or "commutative" (with m > 1) with a commutator defect
    above 1e-12 (1 + the largest |Dg_i g_j| entry)."""
    label, m = problem.structure, problem.dim_noise
    if label == "additive":
        if any(np.any(problem.diffusion_jacobian(x, i)) for x in points for i in range(m)):
            raise UsageError(
                f"problem {problem.name!r} is labelled 'additive', but a diffusion "
                "Jacobian is nonzero; additive noise has constant columns"
            )
    elif label != "general" and m > 1:
        defect, scale = _commutators(problem, points)
        if defect > 1e-12 * (1.0 + scale):
            raise UsageError(
                f"problem {problem.name!r} is labelled {label!r}, but its noise does not "
                f"commute (max |Dg_i g_j - Dg_j g_i| = {defect:.3g}); label it 'general'"
            )
