"""Single-step maps: explicit Milstein, tamed Milstein, Euler-Maruyama.

All maps share one assembly (see :func:`advance_state`), which takes
one state or a batch of states, one row per path:

    y' = y + drift increment
           + sum_i g_i(y) dW_i
           + sum_{i,j} Dg_i(y) g_j(y) I[j, i]        (Milstein correction)

with ``I[j, i]`` the double integral having component j inner and i
outer. The plain Milstein map uses drift increment h f(y); the tamed
variant uses h f(y) / (1 + h ||f(y)||), which bounds the increment norm
below min(1, h ||f||) and keeps the explicit scheme from amplifying
cubic-type drifts on coarse steps (taming in the sense of Hutzenthaler,
Jentzen and Kloeden). Euler-Maruyama simply drops the correction, so on
additive noise it coincides bitwise with Milstein.

The backstop map used by the adaptive integrator when the step
controller hits its floor is exactly the tamed Milstein map (full
correction retained, drift tamed); :func:`backstop_step` delegates.

A step that produces a non-finite state raises :class:`StepOverflow`
carrying the offending state; integrators treat that as a divergence
signal, not a crash.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import StepOverflow, UsageError
from .problems import SdeProblem
from .wiener import IteratedIntegrals

__all__ = [
    "StepInput",
    "StepOutput",
    "milstein_step",
    "tamed_milstein_step",
    "euler_maruyama_step",
    "backstop_step",
    "comparator_step",
    "scheme_step",
    "FIXED_SCHEMES",
]

#: Fixed-step scheme identifiers accepted by the integrators and harness.
FIXED_SCHEMES = ("milstein", "tamed", "euler")

#: Comparator names that are recognised but not built in this distribution.
RESERVED_COMPARATORS = ("pmil", "ssbm")


@dataclass(frozen=True)
class StepInput:
    """State at the start of a window plus that window's integrals."""

    state: np.ndarray
    integrals: IteratedIntegrals


@dataclass(frozen=True)
class StepOutput:
    """Result of one dispatched step."""

    state: np.ndarray
    used_backstop: bool


def advance_state(
    problem: SdeProblem,
    kind: str,
    y: np.ndarray,
    h: float,
    dW: np.ndarray,
    I: np.ndarray,
) -> np.ndarray:
    """Raw one-step map on arrays; no finiteness check, no validation.

    Hot path for the integrators: ``kind`` is one of FIXED_SCHEMES. The
    map takes one state ``y`` of shape (d,) with ``dW`` (m,) and ``I``
    (m, m), or a batch of P states (P, d) with ``dW`` (P, m) and ``I``
    (P, m, m), one row per path. Every sum runs left to right over
    explicit component indices, so row p of a batched step equals the
    single step of row p bit for bit. The Milstein correction is
    skipped entirely for additive problems (it is identically zero
    there), which also makes Milstein coincide bitwise with
    Euler-Maruyama on them.
    """
    d = problem.dim_state
    m = problem.dim_noise
    if y.ndim > 1:
        # Component axes first, so that dW[i], I[j, i] and a[comp[c]]
        # are (P, 1) columns, as they are scalars for a single state.
        dW = dW.T[:, :, None]
        I = I.transpose(1, 2, 0)[:, :, :, None]
        comp = [(Ellipsis, slice(c, c + 1)) for c in range(d)]
    else:
        comp = range(d)
    f = problem.drift(y)
    if kind == "tamed":
        sq = f * f
        norm_sq = sq[comp[0]]
        for c in range(1, d):
            norm_sq = norm_sq + sq[comp[c]]
        out = y + (h / (1.0 + h * np.sqrt(norm_sq))) * f
    else:
        out = y + h * f
    cols = [problem.diffusion_column(y, i) for i in range(m)]
    for i in range(m):
        out = out + cols[i] * dW[i]
    if kind != "euler" and problem.structure != "additive":
        for i in range(m):
            # v = sum_j g_j I[j, i]; then add Dg_i v.
            v = cols[0] * I[0, i]
            for j in range(1, m):
                v = v + cols[j] * I[j, i]
            jac = problem.diffusion_jacobian(y, i)
            corr = jac[..., 0] * v[comp[0]]
            for c in range(1, d):
                corr = corr + jac[..., c] * v[comp[c]]
            out = out + corr
    return out


def _checked(problem: SdeProblem, kind: str, step: StepInput) -> np.ndarray:
    # Overflow during coefficient evaluation is a handled condition
    # (reported via StepOverflow), not worth a numpy warning.
    ii = step.integrals
    with np.errstate(over="ignore", invalid="ignore"):
        out = advance_state(problem, kind, step.state, ii.h, ii.dW, ii.I)
    if not np.all(np.isfinite(out)):
        raise StepOverflow(out)
    return out


def _validate(problem: SdeProblem, step: StepInput) -> None:
    state = step.state
    ii = step.integrals
    if np.shape(state) != (problem.dim_state,):
        raise UsageError(
            f"state has shape {np.shape(state)}, expected ({problem.dim_state},)"
        )
    if ii.dW.shape != (problem.dim_noise,):
        raise UsageError(
            f"integrals are for {ii.dW.shape[0]} noise components, "
            f"problem has {problem.dim_noise}"
        )


def milstein_step(problem: SdeProblem, step: StepInput) -> np.ndarray:
    """Explicit Milstein map over one window.

        y' = y + h f(y) + sum_i g_i(y) dW_i + sum_{i,j} Dg_i(y) g_j(y) I[j, i]

    (strong order one; see Kloeden and Platen for the classical scheme).

    Raises:
        UsageError: dimension mismatch.
        StepOverflow: non-finite output.
    """
    _validate(problem, step)
    return _checked(problem, "milstein", step)


def tamed_milstein_step(problem: SdeProblem, step: StepInput) -> np.ndarray:
    """Milstein map with the drift increment tamed to h f / (1 + h ||f||).

    The diffusion and correction terms are untouched; only the drift
    increment is damped, and its norm stays strictly below
    min(1, h ||f(y)||) whenever f(y) != 0.
    """
    _validate(problem, step)
    return _checked(problem, "tamed", step)


def euler_maruyama_step(problem: SdeProblem, step: StepInput) -> np.ndarray:
    """Euler-Maruyama map (Milstein without the correction term).

    Strong order 1/2 on multiplicative noise; used as the deliberately
    lower-order control in convergence experiments.
    """
    _validate(problem, step)
    return _checked(problem, "euler", step)


def backstop_step(problem: SdeProblem, step: StepInput) -> np.ndarray:
    """Backstop map applied when the step controller is pinned at its floor.

    Delegates to :func:`tamed_milstein_step` (bitwise identical by
    construction): taming makes the floor step safe for any state the
    controller could not shrink away from.
    """
    return tamed_milstein_step(problem, step)


def comparator_step(kind: str, problem: SdeProblem, step: StepInput) -> np.ndarray:
    """Optional comparator dispatch.

    Only "tamed" is built; "pmil" and "ssbm" are reserved names that
    raise a usage error explaining they are not enabled in this build.
    """
    if kind == "tamed":
        return tamed_milstein_step(problem, step)
    if kind in RESERVED_COMPARATORS:
        raise UsageError(
            f"comparator {kind!r} is a reserved scheme name not enabled in this build"
        )
    raise UsageError(f"unknown comparator {kind!r}; built-in: tamed")


def scheme_step(problem: SdeProblem, scheme: str, step: StepInput) -> StepOutput:
    """Uniform dispatcher over the step maps.

    ``scheme`` is one of FIXED_SCHEMES or "backstop"; the output flags
    whether the backstop map ran.
    """
    if scheme == "backstop":
        return StepOutput(state=backstop_step(problem, step), used_backstop=True)
    if scheme == "milstein":
        return StepOutput(state=milstein_step(problem, step), used_backstop=False)
    if scheme == "tamed":
        return StepOutput(state=tamed_milstein_step(problem, step), used_backstop=False)
    if scheme == "euler":
        return StepOutput(state=euler_maruyama_step(problem, step), used_backstop=False)
    raise UsageError(f"unknown scheme {scheme!r}; expected one of {FIXED_SCHEMES + ('backstop',)}")
