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

Every solve reads its window integrals in O(1) from the prefix arrays
of its paths (:class:`~milsde.wiener.PathPrefixes`), so fixed meshes
and adaptive lanes see the same exact Levy areas. Fixed-step solves
advance a block of P paths together through one step map per window
(:class:`FixedSolves`): each call advances every job (scheme, step)
over the windows the arrays hold so far, and each row carries its state
to the next call. The one-path :func:`integrate_fixed` is one job over
one path's whole arrays. Adaptive solves advance a set of lanes
together (:func:`integrate_adaptive_batch`), one lane per (path,
:class:`StrategyConfig`) pair. Each lane keeps its own position, state
and step count, and leaves the live set when it reaches the horizon or
diverges. The one-path :func:`integrate_adaptive` is its one-lane call;
both run over whole arrays. Their rounds (:func:`_lockstep`) also run
over a streamed window: when every live lane waits for a window not yet
held, they yield the slowest lane's node, and the caller draws a slab.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import UsageError
from .problems import SdeProblem, _check_structure
from .steppers import _components_first, _step_map, check_scheme
from .wiener import PathPrefixes, WienerPath, double_integrals

__all__ = [
    "StrategyConfig",
    "SolutionPath",
    "propose_step",
    "integrate_adaptive",
    "integrate_adaptive_batch",
    "AdaptiveBatch",
    "integrate_fixed",
    "FixedSolves",
    "FixedBatch",
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
    """The controller on norms: (proposal capped at h_max, pinned),
    elementwise. The raw proposal scale / norm is +inf at the origin and
    0 for an infinite norm. It pins when at most h_min, which the capped
    proposal is exactly then, as h_min < h_max. Callers silence the
    division's warnings."""
    h = np.minimum(scale / norm, h_max)
    return h, h <= h_min


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
    return (config.h_min if pinned[0] else float(h[0])), bool(pinned[0])


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

    Per lane (L,): ``ends`` the fine node it stopped at, ``final_states``
    (L, d) its state there, ``num_steps`` its completed steps, ``flagged``
    how many were pinned, and ``divergent`` whether it went non-finite
    (it then stops at its last finite state). Per step, when kept: lane
    l's records are ``offsets[l]:offsets[l + 1]`` in the order taken,
    ``positions`` (N,) the node after the step, ``backstop_flags`` (N,)
    whether it was pinned, and ``states`` (N, d) the state there.
    """

    ends: np.ndarray
    final_states: np.ndarray
    num_steps: np.ndarray
    flagged: np.ndarray
    divergent: np.ndarray
    initial_state: np.ndarray
    resolution: float
    offsets: np.ndarray | None = None
    positions: np.ndarray | None = None
    backstop_flags: np.ndarray | None = None
    states: np.ndarray | None = None

    def solution(self, lane: int) -> SolutionPath:
        """Lane ``lane`` as the :class:`SolutionPath` of its solve, in O(its
        steps); its ``states`` are None unless the batch kept them."""
        mine = slice(self.offsets[lane], self.offsets[lane + 1])
        states = self.states
        if states is not None:
            states = np.concatenate((self.initial_state[None], states[mine]))
        return SolutionPath(
            times=np.concatenate(([0], self.positions[mine])) * self.resolution,
            states=states,
            backstop_flags=self.backstop_flags[mine],
            divergent=bool(self.divergent[lane]),
        )


def _advance_lanes(step, backstop, y, h, dW, I, pinned):
    """One step of every lane, with ``dW`` (L, m) and ``I`` (L, m, m):
    the map ``backstop`` on pinned lanes, ``step`` on the others."""
    dW, I = _components_first(dW, I)
    if not pinned.any():
        return step(y, h, dW, I)
    if pinned.all():
        return backstop(y, h, dW, I)
    out = np.empty_like(y)
    for fn, lanes in ((backstop, pinned), (step, ~pinned)):
        out[lanes] = fn(y[lanes], h[lanes], dW[:, lanes], I[:, :, lanes])
    return out


def integrate_adaptive_batch(
    problem: SdeProblem,
    configs,
    prefixes: PathPrefixes,
    rows,
    scheme: str = "milstein",
    zero_levy_area: bool = False,
    keep: str = "states",
) -> AdaptiveBatch:
    """Run the adaptive controller on a set of lanes in lockstep.

    Lane l drives the problem with ``configs[l]`` over path ``rows[l]``
    of ``prefixes``, which must hold every node of their paths (a
    UsageError otherwise). Every live lane takes one step per round: the
    controller plans each lane's next window as soon as it has stepped,
    each lane reads its window's integrals from the prefix arrays, and
    pinned lanes run the tamed backstop while the others run ``scheme``.
    Lanes never mix, so lane l equals the one-lane solve of its path and
    config bit for bit. A lane leaves the live set when it reaches the
    horizon or goes non-finite; a divergent lane keeps its last finite
    state without touching the others. The coefficients are checked on a
    batch of distinct states against row-by-row calls before the first
    step. ``zero_levy_area`` replaces every window's Levy areas with
    zero. ``keep`` is what the result holds per step beyond the per-lane
    totals: "states" (everything), "steps" (positions and flags) or
    "totals" (nothing).
    """
    if prefixes.start or prefixes.frontier < prefixes.num_steps:
        raise UsageError("the prefix arrays must hold every node of their paths")
    try:
        next(_lockstep(problem, configs, prefixes, rows, scheme, zero_levy_area, keep))
    except StopIteration as done:
        return done.value


def _lockstep(
    problem, configs, prefixes, rows, scheme="milstein", zero_levy_area=False, keep="states"
):
    """The rounds of :func:`integrate_adaptive_batch`, over arrays that
    may stream their paths: when every live lane waits for a window that
    ends beyond the frontier, yields the slowest lane's node, and resumes
    once the caller has advanced the arrays. Returns the batch."""
    check_scheme(scheme)
    if keep not in ("states", "steps", "totals"):
        raise UsageError(f"keep must be 'states', 'steps' or 'totals', got {keep!r}")
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
    step, backstop = _step_map(problem, scheme), _step_map(problem, "tamed")

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
    rounds = []  # per round: lanes, pinned, finite, and kept ends and states
    # Overflow inside a step is the divergence signal, not a warning. No
    # yield sits inside errstate: the caller would see its context variable.
    quiet = dict(divide="ignore", over="ignore", invalid="ignore")
    with np.errstate(**quiet):
        end, pinned = plan(live, y, at)
    while True:
        with np.errstate(**quiet):
            while live.size:
                lanes = live
                if prefixes.frontier < n_total:
                    held = end[live] <= prefixes.frontier
                    if not held.any():
                        break
                    if not held.all():
                        lanes = live[held]
                lane_end, lane_pinned = end[lanes], pinned[lanes]
                hw, dW, A = prefixes.windows(rows[lanes], at[lanes], lane_end, strip_area)
                hw = hw[:, None]
                nxt = _advance_lanes(
                    step, backstop, y[lanes], hw, dW, double_integrals(hw, dW, A), lane_pinned
                )
                finite = np.isfinite(nxt).all(axis=1)
                kept = (lane_end if keep != "totals" else None, nxt if keep == "states" else None)
                rounds.append((lanes, lane_pinned, finite) + kept)
                going = finite & (lane_end < n_total)
                if not going.all():
                    # Off the live set; a finished lane's plan is never read.
                    live = live[~np.isin(live, lanes[~going])]
                    lanes, lane_end, nxt = lanes[finite], lane_end[finite], nxt[finite]
                at[lanes], y[lanes] = lane_end, nxt
                end[lanes], pinned[lanes] = plan(lanes, nxt, lane_end)
        if not live.size:
            return _collect(rounds, at, y, problem.initial_state, h_ref)
        yield int(at[live].min())


def _collect(rounds, at, y, initial_state, h_ref) -> AdaptiveBatch:
    """Per-lane totals from the per-round records (``at`` and ``y`` hold
    each lane's last finite node and state), and the kept records of the
    finite steps, grouped by lane in the order taken."""
    count = len(at)
    lanes, pinned, finite, ends, states = (
        None if rounds[0][f] is None else np.concatenate([r[f] for r in rounds])
        for f in range(5)
    )
    divergent = np.zeros(count, dtype=bool)
    divergent[lanes[~finite]] = True
    num_steps = np.bincount(lanes[finite], minlength=count)
    flagged = np.bincount(lanes[finite & pinned], minlength=count)
    totals = (at, y, num_steps, flagged, divergent, initial_state, h_ref)
    if ends is None:
        return AdaptiveBatch(*totals)
    offsets = np.zeros(count + 1, dtype=np.int64)
    np.cumsum(num_steps, out=offsets[1:])
    order = np.flatnonzero(finite)[np.argsort(lanes[finite], kind="stable")]
    if states is not None:
        states = states[order]
    return AdaptiveBatch(*totals, offsets, ends[order], pinned[order], states)


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
    """Result of one job of :class:`FixedSolves` for P paths.

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
    x[k] (picking rows of the batch) cannot pass by accident. Then the
    structure label is checked on the first d + 1 of those states, so
    that check costs the same however many rows there are."""
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
        _check_structure(problem, rows[: d + 1])


class _FixedRun:
    """One job's rows between calls."""

    def __init__(self, problem, scheme, count, windows, record):
        self.map = _step_map(problem, scheme)
        self.y = np.tile(problem.initial_state, (count, 1))
        self.stop = np.full(count, windows)  # the window each row stopped at
        self.dead = np.zeros(count, dtype=bool)  # rows stopped so far
        self.step = 0  # windows taken
        self.states = [self.y] if record else None

    def _unchecked(self, h, dW, I) -> bool:
        """Step every window without checks, and keep the end states if
        they are finite; whether it kept them."""
        y, step_map = self.y, self.map
        try:
            for window in zip(h, dW, I):
                y = step_map(y, *window)
        except Exception:
            return False
        if not np.isfinite(y).all():
            return False
        self.y, self.step = y, self.step + len(h)
        return True

    def advance(self, h, dW, I) -> None:
        """Step the rows over c windows of lengths ``h`` (0-d arrays),
        with ``dW`` (c, m, P, 1) and ``I`` (c, m, m, P, 1), component
        axes first.

        Unless it records, a job none of whose rows has stopped steps
        every window unchecked and is done if it ends finite. Otherwise
        it replays them from the saved states, checking each step. That
        is exact: every map adds ``y`` to its increments, so a component
        that went non-finite stays so; and a pass that raised (a
        coefficient may refuse a non-finite state) is replayed the same
        way, where an error raised on finite states surfaces again.
        """
        step_map, states = self.map, self.states
        y, dead, step = self.y, self.dead, self.step
        if states is None and not dead.any() and self._unchecked(h, dW, I):
            return
        for s in range(0 if dead.all() else len(dW)):
            nxt = step_map(y, h[s], dW[s], I[s])
            new = ~np.isfinite(nxt).all(axis=-1) & ~dead
            self.stop[new] = step
            dead = dead | new
            if dead.all():
                break
            y = np.where(dead[:, None], y, nxt)
            step += 1
            if states is not None:
                states.append(y)
        self.y, self.dead, self.step = y, dead, step


class FixedSolves:
    """Fixed-step solves of a block of P paths, advanced as their prefix
    arrays fill.

    Each job (scheme, k) steps every path from the initial state over
    windows of k fine steps, the last one shorter when k does not divide
    the path. :meth:`advance` takes the block's
    :class:`~milsde.wiener.PathPrefixes`, whole or streamed, and steps
    every job over each window they hold up to their frontier that it
    has not taken yet; :attr:`position` is the first node a job still
    needs. Each job reads its own windows, all in one read per call,
    with the exact integrals :func:`~milsde.wiener.integrals_over` gives
    them. Rows never mix, so row p equals
    :func:`integrate_fixed` on path p bit for bit, divergence included,
    whatever the arrays held at each call. The coefficients are checked
    once, as in :func:`integrate_adaptive_batch`, and each job's step
    map is built once. ``record`` keeps every node state, checking each
    step; without it, a call checks each job's slab of steps at its end
    (see :meth:`_FixedRun.advance`). ``zero_levy_area`` zeroes the Levy
    areas. ``seconds`` holds each job's CPU seconds: its steps plus the
    reads of its own windows.
    """

    def __init__(
        self, problem: SdeProblem, jobs, count: int, num_steps: int,
        zero_levy_area: bool = False, record: bool = False,
    ):
        jobs = [(check_scheme(scheme), int(k)) for scheme, k in jobs]
        if not jobs or count < 1 or not all(1 <= k <= num_steps for _, k in jobs):
            raise UsageError(f"need a job, a path, and 1 <= substeps <= {num_steps}")
        _check_rowwise(problem, max(count, problem.dim_state + 1))
        self.problem, self.count, self.num_steps = problem, count, num_steps
        self.zero_area = zero_levy_area
        self.seconds = [0.0] * len(jobs)
        self._runs = [_FixedRun(problem, s, count, -(-num_steps // k), record) for s, k in jobs]
        self._steps = [k for _, k in jobs]  # fine steps per window, per job
        self._at = [0] * len(jobs)  # the node each job reached

    @property
    def position(self) -> int:
        """The node the job furthest behind has reached."""
        return min(self._at)

    def advance(self, prefixes: PathPrefixes) -> None:
        """Advance every job over the windows ``prefixes`` hold that it
        has not taken yet, up to their frontier.

        Raises:
            UsageError: the arrays do not fit the block, or no longer hold
                the start of a job's next window.
        """
        _check_compatible(self.problem, prefixes)
        if (len(prefixes.sums), prefixes.num_steps) != (self.count, self.num_steps):
            raise UsageError("prefix arrays do not match the block's paths")
        if self.position < prefixes.start:
            raise UsageError(f"node {self.position} is no longer held")
        n, frontier, clock = self.num_steps, prefixes.frontier, time.process_time
        pairs = list(zip(self._steps, self._at))
        if not any(at < frontier and min(at + k, n) <= frontier for k, at in pairs):
            return  # no job has a new window
        # Per job, the ends of the windows held that it has not taken,
        # the last one clipped to the path; all are read at once.
        ends = [np.arange(at + k, frontier + k, k).clip(max=n) for k, at in pairs]
        ends = [e[e <= frontier] for e in ends]
        starts = [np.concatenate(([at], e))[:-1] for at, e in zip(self._at, ends)]
        start, end = (np.concatenate(x)[:, None] for x in (starts, ends))
        t0 = clock()
        h, dW, A = prefixes.windows(np.arange(self.count), start, end, self.zero_area)
        I = double_integrals(h[..., None], dW, A)
        read, h, b = (clock() - t0) / max(1, len(h)), h[:, 0].tolist(), 0
        # Window lengths as 0-d arrays, which the maps multiply by faster
        # than by floats; a job's windows share one or two lengths.
        zero_d = {x: np.array(x) for x in set(h)}
        h = [zero_d[x] for x in h]
        dW, I = _components_first(dW, I)
        with np.errstate(over="ignore", invalid="ignore"):
            for j, e in enumerate(ends):
                a, b = b, b + len(e)
                t0 = clock()
                self._runs[j].advance(h[a:b], dW[a:b], I[a:b])
                self.seconds[j] += read * len(e) + clock() - t0
                if len(e):
                    self._at[j] = int(e[-1])

    def results(self) -> list[FixedBatch]:
        """Every job's :class:`FixedBatch`, in the order of the jobs."""
        if self.position < self.num_steps:
            raise UsageError(f"only {self.position} of {self.num_steps} fine steps were taken")
        return [
            FixedBatch(r.y, r.stop, r.dead, None if r.states is None else np.array(r.states))
            for r in self._runs
        ]


def fixed_substeps(step_size: float, resolution: float, num_steps: int) -> int:
    """A fixed step as a whole number of fine steps, capped at the
    ``num_steps`` fine steps of the path.

    Raises:
        UsageError: the step is not a whole multiple of the resolution.
    """
    u = step_size / resolution
    k = round(u) if math.isfinite(u) else 0
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
    run finishes with one shorter step onto the horizon. This is one
    :class:`FixedSolves` job over the path's prefix arrays.
    """
    _check_compatible(problem, path)
    k = fixed_substeps(step_size, path.resolution, path.num_steps)
    solves = FixedSolves(problem, [(scheme, k)], 1, path.num_steps, zero_levy_area, True)
    solves.advance(path.prefixes())
    batch = solves.results()[0]
    steps = int(batch.num_steps[0])
    positions = np.minimum(np.arange(steps + 1) * k, path.num_steps)
    return SolutionPath(
        times=positions.astype(float) * path.resolution,
        states=batch.states[: steps + 1, 0],
        backstop_flags=np.zeros(steps, dtype=bool),
        divergent=bool(batch.divergent[0]),
    )
