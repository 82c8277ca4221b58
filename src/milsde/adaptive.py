"""Path-bounded adaptive stepping and the fixed/adaptive integrators.

The step controller is a pure function of the current state:

    raw = delta / ||Y_n||        (+inf when ||Y_n|| = 0)
    h   = clamp(raw, [h_min, h_max]),   h_min = h_max / rho

and the backstop is engaged exactly when raw <= h_min, i.e. when the
controller wanted an even smaller step than the floor allows.

Steps are whole multiples of the driving path's resolution: the raw
proposal rounded down, compared exactly. When h_min is off the grid,
the floor's multiple k_min h_ref lies above h_min, and a raw proposal
strictly between the two cannot be rounded down without going below
the floor; such a step is pinned as well (k_min, tamed map, flagged).
So every step that is not pinned satisfies h <= raw, i.e.
||Y_n|| h <= delta, hence ||Y_n|| <= delta / h_min = rho delta / h_max;
with the default delta = h_max every non-pinned step starts from a
state of norm at most rho. Pinned steps instead run the tamed Milstein
map, whose drift increment stays bounded regardless of ||Y_n||.

Because the path resolution is dyadic and increments are
grid-quantized, every node time is an exact float multiple of the
resolution and the step sizes sum to the horizon exactly; the
experiment bookkeeping relies on this. The final step is clamped to
land on the horizon; a clamped step may be shorter than h_min, runs the
plain scheme map, and is never flagged as a backstop.

Fixed-step solves advance a batch of P paths together through one
step map per window (:func:`integrate_fixed_batch`); the one-path
:func:`integrate_fixed` is its P = 1 call. Adaptive solves advance a
set of lanes together (:func:`integrate_adaptive_batch`), one lane per
(path, :class:`StrategyConfig`) pair. Each lane keeps its own position,
state and step count and reads its window integrals in O(1) from the
prefix arrays of its path (:class:`~milsde.wiener.PathPrefixes`); a
lane leaves the live set when it reaches the horizon or diverges. The
prefix arrays may hold whole paths or a sliding window that streams
them in slabs: a lane whose next window is not yet held waits, and the
window advances when every live lane waits. The one-path
:func:`integrate_adaptive` is its one-lane call, over whole arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import UsageError
from .problems import SdeProblem
from .steppers import FIXED_SCHEMES, advance_state
from .wiener import (
    IteratedIntegrals,
    PathPrefixes,
    WienerPath,
    double_integrals,
    integrals_over,
    uniform_integrals,
)

__all__ = [
    "StrategyConfig",
    "SolutionPath",
    "propose_step",
    "integrate_adaptive",
    "integrate_adaptive_batch",
    "AdaptiveBatch",
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


def _norms(y: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of y (L, d), by ``math.hypot`` (|y| for
    d = 1, which is what hypot returns there); a finite row whose norm
    overflows gives inf."""
    if y.shape[1] == 1:
        return np.abs(y[:, 0])
    return np.array([math.hypot(*row) for row in y.tolist()])


def _proposals(norm, scale, h_min, h_max):
    """The controller on norms: (clamped proposal, pinned), elementwise.
    The raw proposal scale / norm is +inf at the origin and 0 for an
    infinite norm, which therefore pins; callers silence the division's
    warnings."""
    raw = scale / norm
    pinned = raw <= h_min
    return np.where(pinned, h_min, np.minimum(raw, h_max)), pinned


def propose_step(config: StrategyConfig, state: np.ndarray) -> tuple[float, bool]:
    """Controller map: returns (step size, backstop flag) for a state.

    The raw proposal is scale / ||state|| (+inf at the origin), clamped
    to [h_min, h_max]; the flag is set exactly when the raw proposal is
    at or below the floor. A finite state whose norm overflows to inf
    proposes a raw step of 0, so it pins rather than erroring out. The
    integrators also pin a proposal that the fine grid cannot round
    down without going below h_min (see the module docstring).
    """
    state = np.asarray(state, dtype=float)
    if not np.isfinite(state).all():
        raise UsageError("cannot propose a step for a non-finite state")
    with np.errstate(divide="ignore", over="ignore"):
        h, pinned = _proposals(
            _norms(state.reshape(1, -1)), config.scale, config.h_min, config.h_max
        )
    return float(h[0]), bool(pinned[0])


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


def _floor_units(values: np.ndarray, unit: float) -> np.ndarray:
    """Largest k with k * unit <= value, elementwise, compared exactly as
    the step k * unit the integrator takes. Dividing by a power of two
    is exact; otherwise the quotient's rounding puts its floor at most
    one away, so one correction each way suffices."""
    k = np.floor(values / unit)
    if math.frexp(unit)[0] != 0.5:
        k -= k * unit > values
        k += (k + 1.0) * unit <= values
    return k.astype(np.int64)


def _ceil_units(values: np.ndarray, unit: float) -> np.ndarray:
    """Smallest k with k * unit >= value, compared the same way."""
    k = _floor_units(values, unit)
    return k + (k * unit < values)


def _check_compatible(problem: SdeProblem, path: WienerPath | PathPrefixes) -> None:
    if path.dim_noise != problem.dim_noise:
        raise UsageError(
            f"path has {path.dim_noise} noise components, problem needs {problem.dim_noise}"
        )
    if path.horizon != problem.horizon:
        raise UsageError(
            f"path horizon {path.horizon} differs from problem horizon {problem.horizon}"
        )


@dataclass(frozen=True)
class AdaptiveBatch:
    """Result of :func:`integrate_adaptive_batch` for L lanes.

    One record per completed step, grouped by lane: lane l's steps are
    records ``offsets[l]:offsets[l + 1]`` (``offsets`` (L+1,)), in the
    order it took them. ``positions`` (N,) holds the lane's fine-grid
    node after the step, ``states`` (N, d) its state there and
    ``backstop_flags`` (N,) whether the step was pinned. A lane that
    went non-finite is flagged in ``divergent`` (L,); its records stop
    at its last finite state.
    """

    offsets: np.ndarray
    positions: np.ndarray
    states: np.ndarray
    backstop_flags: np.ndarray
    divergent: np.ndarray
    initial_state: np.ndarray
    resolution: float

    @property
    def num_steps(self) -> np.ndarray:
        """Completed steps per lane, (L,)."""
        return np.diff(self.offsets)

    def solution(self, lane: int) -> SolutionPath:
        """Lane ``lane`` as the :class:`SolutionPath` of its solve, in O(its steps)."""
        mine = slice(self.offsets[lane], self.offsets[lane + 1])
        return SolutionPath(
            times=np.concatenate(([0], self.positions[mine])) * self.resolution,
            states=np.concatenate((self.initial_state[None], self.states[mine])),
            backstop_flags=self.backstop_flags[mine],
            divergent=bool(self.divergent[lane]),
        )


def _advance_lanes(problem, scheme, y, h, dW, I, pinned):
    """One step of every lane: the tamed map on pinned lanes, ``scheme``
    on the others."""
    if not pinned.any():
        return advance_state(problem, scheme, y, h, dW, I)
    if pinned.all():
        return advance_state(problem, "tamed", y, h, dW, I)
    out = np.empty_like(y)
    for kind, lanes in (("tamed", pinned), (scheme, ~pinned)):
        out[lanes] = advance_state(problem, kind, y[lanes], h[lanes], dW[lanes], I[lanes])
    return out


def integrate_adaptive_batch(
    problem: SdeProblem,
    configs,
    prefixes: PathPrefixes,
    rows,
    scheme: str = "milstein",
    zero_levy_area: bool = False,
) -> AdaptiveBatch:
    """Run the adaptive controller on a set of lanes in lockstep.

    Lane l drives the problem with ``configs[l]`` over path ``rows[l]``
    of ``prefixes``. Every live lane whose next window is held takes one
    step per round: the controller plans each lane's next window as soon
    as it has stepped, each lane reads its window's integrals from the
    prefix arrays, and pinned lanes run the tamed backstop while the
    others run ``scheme``. A lane whose next window ends beyond the
    arrays' frontier waits; when every live lane waits, the arrays
    advance by a slab, dropping the nodes behind the slowest lane (see
    :meth:`~milsde.wiener.PathPrefixes.advance`). Lanes never mix, so
    lane l equals the one-lane solve of its path and config bit for bit,
    whether the arrays hold whole paths or stream them. A lane leaves the
    live set when it reaches the horizon or goes non-finite; a divergent
    lane keeps its last finite state without touching the others. The
    coefficients are checked on a batch of distinct states against
    row-by-row calls before the first step. ``zero_levy_area`` replaces
    every window's Levy areas with zero.
    """
    if scheme not in FIXED_SCHEMES:
        raise UsageError(f"unknown scheme {scheme!r}; expected one of {FIXED_SCHEMES}")
    _check_compatible(problem, prefixes)
    rows = np.asarray(rows, dtype=np.intp)
    if not configs or rows.shape != (len(configs),):
        raise UsageError("need at least one lane, and one path row per config")
    h_ref = prefixes.resolution
    n_total = prefixes.num_steps
    for config in configs:
        if config.h_max > problem.horizon:
            raise UsageError(
                f"h_max {config.h_max} exceeds the horizon {problem.horizon}"
            )
        if config.h_min < h_ref:
            raise UsageError(
                f"h_min {config.h_min:g} is below the path resolution {h_ref:g}; "
                "generate the path with a larger resolution exponent"
            )
    scale, h_min, h_max = (
        np.array([getattr(c, a) for c in configs]) for a in ("scale", "h_min", "h_max")
    )
    k_min = _ceil_units(h_min, h_ref)
    if (k_min > _floor_units(h_max, h_ref)).any():
        raise UsageError(
            "the path grid cannot separate h_min from h_max; "
            "increase the resolution exponent or rho"
        )
    _check_rowwise(problem, max(len(rows), problem.dim_state + 1))

    def plan(lanes, y, at):
        """The next window's end and pinned flag of ``lanes`` from their
        states ``y`` at nodes ``at``."""
        h, pinned = _proposals(_norms(y), scale[lanes], h_min[lanes], h_max[lanes])
        k = _floor_units(h, h_ref)
        lane_k_min = k_min[lanes]
        pinned |= k < lane_k_min
        end = at + np.where(pinned, lane_k_min, k)
        clamped = end > n_total
        if clamped.any():
            end[clamped] = n_total
            pinned &= ~clamped
        return end, pinned

    strip_area = zero_levy_area and problem.dim_noise > 1
    count = len(rows)
    live = np.arange(count)
    # Per lane: its node, its state there, and (from plan) its next
    # window's end and whether that step is pinned.
    at = np.zeros(count, dtype=np.int64)
    y = np.tile(problem.initial_state, (count, 1))
    rounds = []  # per round: (lanes, end positions, states, pinned, finite)
    # Overflow inside a step is the divergence signal, not a warning.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        end, pinned = plan(live, y, at)
        while live.size:
            lanes = live
            if prefixes.frontier < n_total:
                held = end[live] <= prefixes.frontier
                if not held.any():
                    prefixes.advance(int(at[live].min()))
                    continue
                if not held.all():
                    lanes = live[held]
            lane_end, lane_pinned = end[lanes], pinned[lanes]
            hw, dW, A = prefixes.windows(rows[lanes], at[lanes], lane_end, strip_area)
            hw = hw[:, None]
            nxt = _advance_lanes(
                problem, scheme, y[lanes], hw, dW, double_integrals(hw, dW, A), lane_pinned
            )
            finite = np.isfinite(nxt).all(axis=1)
            rounds.append((lanes, lane_end, nxt, lane_pinned, finite))
            going = finite & (lane_end < n_total)
            if not going.all():
                live = live[~np.isin(live, lanes[~going])]
                lanes, lane_end, nxt = lanes[going], lane_end[going], nxt[going]
            at[lanes], y[lanes] = lane_end, nxt
            end[lanes], pinned[lanes] = plan(lanes, nxt, lane_end)
    return _collect(rounds, problem.initial_state, count, h_ref)


def _collect(rounds, initial_state, count, h_ref) -> AdaptiveBatch:
    """Join the per-round records, keeping the steps that stayed finite,
    grouped by lane in the order taken. Empties ``rounds`` once they
    are joined."""
    lanes, end, nxt, pinned, finite = (np.concatenate(f) for f in zip(*rounds))
    rounds.clear()
    divergent = np.zeros(count, dtype=bool)
    divergent[lanes[~finite]] = True
    kept = np.flatnonzero(finite)
    order = kept[np.argsort(lanes[kept], kind="stable")]
    offsets = np.zeros(count + 1, dtype=np.int64)
    np.cumsum(np.bincount(lanes[kept], minlength=count), out=offsets[1:])
    return AdaptiveBatch(
        offsets, end[order], nxt[order], pinned[order], divergent, initial_state, h_ref
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
    non-commutative problems. This is the one-lane call of
    :func:`integrate_adaptive_batch`.
    """
    batch = integrate_adaptive_batch(
        problem, [config], path.prefixes(), [0], scheme, zero_levy_area
    )
    return batch.solution(0)


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
