"""One step map for three schemes: explicit Milstein, tamed Milstein,
Euler-Maruyama.

:func:`advance_state` assembles all three, on one state or a batch of
states, one row per path:

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

The adaptive integrator's backstop, run when the step controller hits
its floor, is exactly the tamed Milstein map (full correction retained,
drift tamed): it is ``advance_state(..., "tamed", ...)``, with no map of
its own.

The map does no checking: a step that overflows returns a non-finite
state, and the integrators read that as the divergence signal.
Scheme names are checked once, by :func:`check_scheme`, which also
tells the reserved comparator names apart from unknown ones.
"""

from __future__ import annotations

import numpy as np

from .errors import UsageError
from .problems import SdeProblem

__all__ = ["advance_state", "check_scheme", "FIXED_SCHEMES", "RESERVED_COMPARATORS"]

#: Fixed-step scheme identifiers accepted by the integrators and harness.
FIXED_SCHEMES = ("milstein", "tamed", "euler")

#: Comparator names that are recognised but not built in this distribution.
RESERVED_COMPARATORS = ("pmil", "ssbm")


def check_scheme(name: str, adaptive: bool = False) -> str:
    """Return ``name`` if it is one of FIXED_SCHEMES, or "adaptive" when
    ``adaptive`` is set.

    Raises:
        UsageError: a reserved comparator name, or an unknown one.
    """
    known = ("adaptive",) + FIXED_SCHEMES if adaptive else FIXED_SCHEMES
    if name in known:
        return name
    if name in RESERVED_COMPARATORS:
        raise UsageError(
            f"scheme {name!r} is a reserved comparator name not enabled in this build"
        )
    raise UsageError(f"unknown scheme {name!r}; expected one of {', '.join(known)}")


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
