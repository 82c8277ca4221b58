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

The solves build each map once per solve (:func:`_step_map`): it binds
the coefficients, the scheme and structure branches and the component
slices, and takes a batch of states with the integrals component axes
first (:func:`_components_first`), so a step costs its array operations
and little else. :func:`advance_state` is that map built for a single
step; it steps one state as a batch of one, so there is one arithmetic
body and one layout.

The map does no checking: a step that overflows returns a non-finite
state, and the integrators read that as the divergence signal. Every
map adds ``y`` to its increments, so a component that went non-finite
stays so; a fixed-step solve therefore checks the steps of a call once,
at their end, and replays them step by step only when a row diverged.
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


def _components_first(dW: np.ndarray, I: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``dW`` (..., P, m) and ``I`` (..., P, m, m) as views (..., m, P, 1)
    and (..., m, m, P, 1), component axes first, as the step maps take
    them."""
    n = dW.ndim - 2
    lead = tuple(range(n))
    dW, I = dW.transpose(lead + (n + 1, n)), I.transpose(lead + (n + 1, n + 2, n))
    return dW[..., None], I[..., None]


def _step_map(problem: SdeProblem, kind: str):
    """The step map of ``kind`` (one of FIXED_SCHEMES) for ``problem``,
    built once per solve: ``step(y, h, dW, I)`` on a batch of P states
    (P, d), with ``dW`` (m, P, 1) and ``I`` (m, m, P, 1) (see
    :func:`_components_first`), so that ``dW[i]``, ``I[j, i]`` and
    component c of an array are (P, 1) columns. The coefficients, the
    scheme and structure branches and the component slices are looked
    up here, not per step.
    """
    d, m = problem.dim_state, problem.dim_noise
    drift, column, jacobian = problem.drift, problem.diffusion_column, problem.diffusion_jacobian
    tamed = kind == "tamed"
    correct = kind != "euler" and problem.structure != "additive"
    noise, inner = range(m), range(1, m)
    comp = [(Ellipsis, slice(c, c + 1)) for c in range(d)]
    first, rest = comp[0], list(enumerate(comp))[1:]
    one = np.array(1.0)  # a 0-d array operand costs less than a float

    def step(y, h, dW, I):
        f = drift(y)
        if tamed:
            sq = f * f
            # With d = 1, sq is its own component: the same values.
            norm_sq = sq if d == 1 else sq[first]
            for _, c in rest:
                norm_sq = norm_sq + sq[c]
            out = y + (h / (one + h * np.sqrt(norm_sq))) * f
        else:
            out = y + h * f
        cols = []
        for i in noise:
            col = column(y, i)
            cols.append(col)
            out += col * dW[i]
        if correct:
            for i in noise:
                # v = sum_j g_j I[j, i]; then add Dg_i v.
                v = cols[0] * I[0, i]
                for j in inner:
                    v = v + cols[j] * I[j, i]
                jac = jacobian(y, i)
                corr = jac[..., 0] * (v if d == 1 else v[first])
                for a, c in rest:
                    corr = corr + jac[..., a] * v[c]
                out += corr
        return out

    return step


def advance_state(
    problem: SdeProblem,
    kind: str,
    y: np.ndarray,
    h: float,
    dW: np.ndarray,
    I: np.ndarray,
) -> np.ndarray:
    """Raw one-step map on arrays; no finiteness check, no validation.

    ``kind`` is one of FIXED_SCHEMES. The map takes one state ``y`` of
    shape (d,) with ``dW`` (m,) and ``I`` (m, m), or a batch of P states
    (P, d) with ``dW`` (P, m) and ``I`` (P, m, m), one row per path; one
    state is stepped as a batch of one. Every sum runs left to right
    over explicit component indices, so row p of a batched step equals
    the single step of row p bit for bit. The Milstein correction is
    skipped entirely for additive problems (it is identically zero
    there), which also makes Milstein coincide bitwise with
    Euler-Maruyama on them. This is :func:`_step_map`, built for one
    step; the solves build their maps once and call them directly.
    """
    one = y.ndim == 1
    if one:
        y, dW, I = y[None], dW[None], I[None]
    out = _step_map(problem, kind)(y, h, *_components_first(dW, I))
    return out[0] if one else out
