"""Path-bounded adaptive stepping and the fixed/adaptive integrators.

The step controller is a pure function of the current state:

    raw = delta / ||Y_n||        (+inf when ||Y_n|| = 0)
    h   = clamp(raw, [h_min, h_max]),   h_min = h_max / rho

and the backstop is engaged exactly when raw <= h_min, i.e. when the
controller wanted an even smaller step than the floor allows. On a step
that is not pinned, h <= raw gives ||Y_n|| h <= delta, hence
||Y_n|| <= delta / h_min = rho delta / h_max; with the default
delta = h_max every non-pinned step starts from a state of norm at most
rho. Pinned steps instead run the tamed Milstein map, whose drift
increment stays bounded regardless of ||Y_n||.

Steps are quantized down to whole multiples of the driving path's
resolution (never below the floor's multiple, which rounds up). Because
the path resolution is dyadic and increments are grid-quantized, every
node time is an exact float multiple of the resolution and the step
sizes sum to the horizon exactly; the experiment bookkeeping relies on
this. The final step is clamped to land on the horizon; a clamped step
may be shorter than h_min, runs the plain scheme map, and is never
flagged as a backstop.

Fixed-step solves advance a batch of P paths together through one
step map per window (:func:`integrate_fixed_batch`); the one-path
:func:`integrate_fixed` is its P = 1 call. Adaptive solves run one path
at a time, since each path takes its own mesh.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import UsageError
from .problems import SdeProblem
from .steppers import FIXED_SCHEMES, advance_state
from .wiener import IteratedIntegrals, WienerPath, integrals_over, uniform_integrals

__all__ = [
    "StrategyConfig",
    "SolutionPath",
    "propose_step",
    "integrate_adaptive",
    "integrate_fixed",
    "integrate_fixed_batch",
    "FixedBatch",
    "mesh_integrals",
]


@dataclass(frozen=True)
class StrategyConfig:
    """Parameters of the path-bounded step controller.

    h_max: step ceiling, also the default path-bound scale delta.
    rho: floor ratio, h_min = h_max / rho; must exceed 1.
    delta: optional override of the bound scale, in (0, h_max].
    """

    h_max: float
    rho: float
    delta: float | None = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.h_max) and self.h_max > 0.0):
            raise UsageError(f"h_max must be positive and finite, got {self.h_max}")
        if not (math.isfinite(self.rho) and self.rho > 1.0):
            raise UsageError(f"rho must be a finite number > 1, got {self.rho}")
        if self.delta is not None:
            if not (math.isfinite(self.delta) and 0.0 < self.delta <= self.h_max):
                raise UsageError(
                    f"delta must lie in (0, h_max] = (0, {self.h_max}], got {self.delta}"
                )

    @property
    def h_min(self) -> float:
        return self.h_max / self.rho

    @property
    def scale(self) -> float:
        """Effective path-bound scale (delta, defaulting to h_max)."""
        return self.h_max if self.delta is None else self.delta


def propose_step(config: StrategyConfig, state: np.ndarray) -> tuple[float, bool]:
    """Controller map: returns (step size, backstop flag) for a state.

    The raw proposal is scale / ||state|| (+inf at the origin), clamped
    to [h_min, h_max]; the flag is set exactly when the raw proposal is
    at or below the floor. A finite state whose norm overflows to inf
    proposes a raw step of 0, so it pins rather than erroring out.
    """
    state = np.asarray(state, dtype=float)
    norm = math.hypot(*state)
    if not math.isfinite(norm):
        if np.isfinite(state).all():
            return config.h_min, True
        raise UsageError("cannot propose a step for a non-finite state")
    raw = math.inf if norm == 0.0 else config.scale / norm
    h_min = config.h_min
    if raw <= h_min:
        return h_min, True
    return min(raw, config.h_max), False


@dataclass(frozen=True)
class SolutionPath:
    """Discrete solution: node times, node states, per-step backstop flags.

    On divergence the path is truncated at the last finite state and
    ``divergent`` is set; flags always have one entry per completed step.
    """

    times: np.ndarray
    states: np.ndarray
    backstop_flags: np.ndarray
    divergent: bool = False

    @property
    def num_steps(self) -> int:
        return len(self.times) - 1

    @property
    def final_time(self) -> float:
        return float(self.times[-1])

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    @property
    def step_sizes(self) -> np.ndarray:
        return np.diff(self.times)

    @property
    def backstop_rate(self) -> float:
        n = self.num_steps
        return float(self.backstop_flags.sum()) / n if n else 0.0

    @property
    def mean_step(self) -> float:
        return float(self.step_sizes.mean()) if self.num_steps else math.nan

    def to_csv(self, stream) -> None:
        """Write "t,y0,...,backstop" rows; node 0 carries flag 0."""
        d = self.states.shape[1]
        header = "t," + ",".join(f"y{i}" for i in range(d)) + ",backstop"
        stream.write(header + "\n")
        for n in range(len(self.times)):
            flag = 0 if n == 0 else int(self.backstop_flags[n - 1])
            vals = [f"{self.times[n]:.17g}"]
            vals += [f"{v:.17g}" for v in self.states[n]]
            vals.append(str(flag))
            stream.write(",".join(vals) + "\n")


def _floor_units(value: float, unit: float) -> int:
    # Largest k with k * unit <= value, compared exactly as the step
    # k * unit the integrator will take.
    k = math.floor(value / unit)
    while k * unit > value:
        k -= 1
    while (k + 1) * unit <= value:
        k += 1
    return k


def _ceil_units(value: float, unit: float) -> int:
    # Smallest k with k * unit >= value, compared the same way.
    k = math.ceil(value / unit)
    while k > 0 and (k - 1) * unit >= value:
        k -= 1
    while k * unit < value:
        k += 1
    return k


def _check_compatible(problem: SdeProblem, path: WienerPath) -> None:
    if path.dim_noise != problem.dim_noise:
        raise UsageError(
            f"path has {path.dim_noise} noise components, problem needs {problem.dim_noise}"
        )
    if path.horizon != problem.horizon:
        raise UsageError(
            f"path horizon {path.horizon} differs from problem horizon {problem.horizon}"
        )


def integrate_adaptive(
    problem: SdeProblem,
    config: StrategyConfig,
    path: WienerPath,
    scheme: str = "milstein",
    zero_levy_area: bool = False,
) -> SolutionPath:
    """Run the adaptive controller over a driving path.

    Non-pinned steps use ``scheme`` (default "milstein"); pinned steps
    use the tamed backstop map. ``zero_levy_area`` replaces every
    window's antisymmetric part with zero, the deliberately wrong
    variant used to demonstrate that the area terms matter on
    non-commutative problems.
    """
    if scheme not in FIXED_SCHEMES:
        raise UsageError(f"unknown scheme {scheme!r}; expected one of {FIXED_SCHEMES}")
    _check_compatible(problem, path)
    h_ref = path.resolution
    n_total = path.num_steps
    if config.h_max > problem.horizon:
        raise UsageError(
            f"h_max {config.h_max} exceeds the horizon {problem.horizon}"
        )
    if config.h_min < h_ref:
        raise UsageError(
            f"h_min {config.h_min:g} is below the path resolution {h_ref:g}; "
            "generate the path with a larger resolution exponent"
        )
    k_min = _ceil_units(config.h_min, h_ref)
    k_max = _floor_units(config.h_max, h_ref)
    if k_min > k_max:
        raise UsageError(
            "the path grid cannot separate h_min from h_max; "
            "increase the resolution exponent or rho"
        )

    strip_area = zero_levy_area and problem.dim_noise > 1
    y = np.array(problem.initial_state, dtype=float)
    pos = 0
    positions = [0]
    states = [y]
    flags: list[bool] = []
    divergent = False
    # Overflow inside a step is the divergence signal, not a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        while pos < n_total:
            h_prop, pinned = propose_step(config, y)
            if pinned:
                k = k_min
            else:
                k = min(max(_floor_units(h_prop, h_ref), k_min), k_max)
            clamped = pos + k > n_total
            if clamped:
                k = n_total - pos
            use_backstop = pinned and not clamped
            ii = integrals_over(path, pos, pos + k)
            if strip_area:
                ii = ii.without_area()
            y = advance_state(
                problem, "tamed" if use_backstop else scheme, y, ii.h, ii.dW, ii.I
            )
            if not np.isfinite(y).all():
                divergent = True
                break
            pos += k
            positions.append(pos)
            states.append(y)
            flags.append(use_backstop)

    times = np.array(positions, dtype=float) * h_ref
    return SolutionPath(
        times=times,
        states=np.array(states),
        backstop_flags=np.array(flags, dtype=bool),
        divergent=divergent,
    )


@dataclass(frozen=True)
class FixedBatch:
    """Result of :func:`integrate_fixed_batch` for P paths.

    ``final_states`` (P, d) holds each row's last finite state and
    ``num_steps`` (P,) the steps it completed; a row that went
    non-finite is flagged in ``divergent`` (P,) and stopped there.
    ``states`` (nodes, P, d) holds the node states when recorded, up to
    the last step any row completed; a stopped row repeats its last
    finite state.
    """

    final_states: np.ndarray
    num_steps: np.ndarray
    divergent: np.ndarray
    states: np.ndarray | None = None


def mesh_integrals(
    path: WienerPath, substeps: int, zero_area: bool = False
) -> tuple[float, np.ndarray, np.ndarray, IteratedIntegrals | None]:
    """Window integrals of a fixed mesh of ``substeps``-sized windows.

    Returns (h, dW, I, tail): the ``n = num_steps // substeps`` uniform
    windows as ``dW`` (n, m) and ``I`` (n, m, m), and the shorter window
    that finishes on the horizon (None when the mesh fits exactly).
    """
    count, h, dw_all, ii_all = uniform_integrals(path, substeps, zero_area=zero_area)
    start = count * substeps
    tail = None
    if start < path.num_steps:
        tail = integrals_over(path, start, path.num_steps)
        if zero_area:
            tail = tail.without_area()
    return h, dw_all, ii_all, tail


_BATCH_CONTRACT = (
    "coefficients must act on the last axis: on a (P, d) batch of states "
    "the drift and each diffusion column return (P, d) arrays and each "
    "Jacobian (d, d) or (P, d, d), whose row p equals the call on row p "
    "alone (index states as x[..., k], not x[k])"
)


def _check_rowwise(problem: SdeProblem, count: int) -> None:
    """UsageError unless the coefficients on a batch of ``count`` distinct
    states near the initial state equal the same callables evaluated
    row by row. With more rows than components, a callable that indexes
    x[k] (picking rows of the batch) cannot pass by accident."""
    d = problem.dim_state
    spread = np.arange(count)[:, None] / count
    calls = [(problem.drift, (), (d,))]
    for i in range(problem.dim_noise):
        calls.append((problem.diffusion_column, (i,), (d,)))
        if problem.structure != "additive":
            calls.append((problem.diffusion_jacobian, (i,), (d, d)))
    with np.errstate(all="ignore"):
        rows = problem.initial_state * (1.0 + spread) + spread
        for fn, args, shape in calls:
            try:
                batched = np.broadcast_to(fn(rows, *args), (len(rows),) + shape)
                single = np.stack([np.broadcast_to(fn(r, *args), shape) for r in rows])
            except (IndexError, ValueError, TypeError) as exc:
                raise UsageError(
                    f"problem {problem.name!r}: {_BATCH_CONTRACT} ({exc})"
                ) from exc
            if not np.array_equal(batched, single, equal_nan=True):
                raise UsageError(f"problem {problem.name!r}: {_BATCH_CONTRACT}")


def integrate_fixed_batch(
    problem: SdeProblem,
    scheme: str,
    h: float,
    dW: np.ndarray,
    I: np.ndarray,
    tail: tuple[float, np.ndarray, np.ndarray] | None = None,
    record: bool = False,
) -> FixedBatch:
    """Fixed-step integration of P paths together, one step map per window.

    ``dW`` (n, P, m) and ``I`` (n, P, m, m) stack the integrals of the n
    uniform windows of length ``h`` of each path; ``tail`` = (h_tail,
    dW (P, m), I (P, m, m)) is an optional shorter last window, the same
    window of every path. Every row starts at the problem's initial
    state. Rows never mix, so row p equals the P = 1 solve of path p bit
    for bit; a row that goes non-finite keeps its last finite state and
    is flagged divergent without touching the others. Before the first
    step the coefficients are checked on a batch of distinct states
    against row-by-row calls, so coefficients written only for (d,)
    states raise UsageError instead of mixing rows. ``record`` keeps
    every node state (memory n * P * d floats).
    """
    if scheme not in FIXED_SCHEMES:
        raise UsageError(f"unknown scheme {scheme!r}; expected one of {FIXED_SCHEMES}")
    n, P, m = dW.shape
    if m != problem.dim_noise or I.shape != (n, P, m, m):
        raise UsageError(
            f"integrals of shape {dW.shape} and {I.shape} do not fit "
            f"(n, P, {problem.dim_noise}) and (n, P, {problem.dim_noise}, "
            f"{problem.dim_noise})"
        )
    if tail is not None and (tail[1].shape != (P, m) or tail[2].shape != (P, m, m)):
        raise UsageError("tail integrals must have shapes (P, m) and (P, m, m)")
    _check_rowwise(problem, max(P, problem.dim_state + 1))

    total = n + (tail is not None)
    y = np.tile(problem.initial_state, (P, 1))
    stop = np.full(P, total)
    dead = None  # rows stopped so far; None while every row runs
    states = [y] if record else None
    with np.errstate(over="ignore", invalid="ignore"):
        for s in range(total):
            if s < n:
                nxt = advance_state(problem, scheme, y, h, dW[s], I[s])
            else:
                nxt = advance_state(problem, scheme, y, *tail)
            if dead is None and np.isfinite(nxt).all():
                y = nxt
            else:
                finite = np.isfinite(nxt).all(axis=-1)
                new = ~finite if dead is None else ~finite & ~dead
                stop[new] = s
                dead = new if dead is None else dead | new
                if dead.all():
                    break
                y = np.where(dead[:, None], y, nxt)
            if record:
                states.append(y)
    return FixedBatch(
        final_states=y,
        num_steps=stop,
        divergent=np.zeros(P, dtype=bool) if dead is None else dead,
        states=np.array(states) if record else None,
    )


def fixed_substeps(step_size: float, resolution: float, num_steps: int) -> int:
    """A fixed step as a whole number of fine steps, capped at the
    ``num_steps`` fine steps of the path.

    Raises:
        UsageError: the step is not a whole multiple of the resolution.
    """
    u = step_size / resolution
    k = int(round(u))
    if k < 1 or abs(u - k) > 1e-9 * max(u, 1.0):
        raise UsageError(
            f"step size {step_size:g} is not a whole multiple of the "
            f"path resolution {resolution:g}"
        )
    return min(k, num_steps)


def integrate_fixed(
    problem: SdeProblem,
    scheme: str,
    step_size: float,
    path: WienerPath,
    zero_levy_area: bool = False,
) -> SolutionPath:
    """Fixed-step integration at a step that is a whole multiple of the
    path resolution; if the horizon is not a multiple of the step, the
    run finishes with one shorter step onto the horizon. This is the
    one-path call of :func:`integrate_fixed_batch`.
    """
    if scheme not in FIXED_SCHEMES:
        raise UsageError(f"unknown scheme {scheme!r}; expected one of {FIXED_SCHEMES}")
    _check_compatible(problem, path)
    k = fixed_substeps(step_size, path.resolution, path.num_steps)
    strip_area = zero_levy_area and problem.dim_noise > 1
    h, dw_all, ii_all, tail = mesh_integrals(path, k, zero_area=strip_area)
    batch = integrate_fixed_batch(
        problem,
        scheme,
        h,
        dw_all[:, None],
        ii_all[:, None],
        None if tail is None else (tail.h, tail.dW[None], tail.I[None]),
        record=True,
    )
    steps = int(batch.num_steps[0])
    positions = np.minimum(np.arange(steps + 1) * k, path.num_steps)
    return SolutionPath(
        times=positions.astype(float) * path.resolution,
        states=batch.states[: steps + 1, 0],
        backstop_flags=np.zeros(steps, dtype=bool),
        divergent=bool(batch.divergent[0]),
    )
