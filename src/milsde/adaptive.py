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
and adaptive lanes see the same exact Levy areas. A fixed-step job
(scheme, step) advances a block of P paths together through one step
map per window (:class:`FixedSolves`, bound to the block's prefix
arrays): each call steps its rows over the windows the arrays hold so
far, and each row carries its state to the next call. Adaptive solves
advance a set of lanes together (:func:`integrate_adaptive_batch`), one
lane per (path, :class:`StrategyConfig`) pair. Each lane keeps its own
position, state and step count, and leaves the live set when it reaches
the horizon or diverges. Their rounds (:func:`_lockstep`) also run over
a streamed window: when every live lane waits for a window not yet
held, they yield the slowest lane's node, and the caller draws a slab.
Both return a :class:`SolutionBatch`, a fixed job's rows as its lanes
with no step flagged. The one-path :func:`integrate_fixed` and
:func:`integrate_adaptive` read lane 0 of a one-row job or a one-lane
solve over one path's whole arrays. No solve reads a clock: the harness
times each one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import UsageError
from .problems import SdeProblem, _check_structure
from .steppers import _components_first, _step_map, check_scheme
from .wiener import PathPrefixes, WienerPath, _is_int, double_integrals

__all__ = [
    "StrategyConfig",
    "SolutionPath",
    "propose_step",
    "integrate_adaptive",
    "integrate_adaptive_batch",
    "SolutionBatch",
    "integrate_fixed",
    "FixedSolves",
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


def _check_lanes(configs, horizon: float, resolution: float) -> np.ndarray:
    """UsageError unless every config fits a path of ``horizon`` on a
    fine grid of ``resolution``: h_max at most the horizon, the floor
    h_min on or above the resolution, and some grid multiple between
    them. Returns each config's floor in fine steps."""
    for c in configs:
        if c.h_max > horizon:
            raise UsageError(f"h_max {c.h_max} exceeds the horizon {horizon}: not in (0, horizon]")
        if c.h_min < resolution:
            raise UsageError(
                f"h_max {c.h_max:g} with rho {c.rho:g} puts the floor below the fine "
                f"resolution {resolution:g}; raise the resolution exponent or lower rho"
            )
    k_min = _ceil_units(np.array([c.h_min for c in configs]), resolution)
    if (k_min > _floor_units(np.array([c.h_max for c in configs]), resolution)).any():
        raise UsageError(
            "the path grid cannot separate h_min from h_max; "
            "increase the resolution exponent or rho"
        )
    return k_min


def _check_compatible(problem: SdeProblem, path: PathPrefixes) -> None:
    if path.dim_noise != problem.dim_noise:
        raise UsageError(
            f"path has {path.dim_noise} noise components, problem needs {problem.dim_noise}"
        )
    if path.horizon != problem.horizon:
        raise UsageError(
            f"path horizon {path.horizon} differs from problem horizon {problem.horizon}"
        )


@dataclass(frozen=True)
class SolutionBatch:
    """Result of :func:`integrate_adaptive_batch` for L lanes, or of one
    :class:`FixedSolves` job with a lane per row.

    Per lane (L,): ``ends`` the fine node it stopped at, ``final_states``
    (L, d) its state there, ``num_steps`` its completed steps, ``flagged``
    how many were pinned, and ``divergent`` whether it went non-finite
    (it then stops at its last finite state). Per step, when kept, lane
    by lane in the order taken (lane l's ``num_steps[l]`` records follow
    those of the lanes before it): ``positions`` (N,) the node after the
    step, ``backstop_flags`` (N,) whether it was pinned, and ``states``
    (N, d) the state there.
    """

    ends: np.ndarray
    final_states: np.ndarray
    num_steps: np.ndarray
    flagged: np.ndarray
    divergent: np.ndarray
    initial_state: np.ndarray
    resolution: float
    positions: np.ndarray | None = None
    backstop_flags: np.ndarray | None = None
    states: np.ndarray | None = None

    def solution(self, lane: int) -> SolutionPath:
        """Lane ``lane`` as the :class:`SolutionPath` of its solve; its
        ``states`` are None unless the batch kept them.

        Raises:
            UsageError: the batch kept no steps, or ``lane`` is not an
                integer in [0, L).
        """
        if self.positions is None:
            raise UsageError("the batch kept no steps to read a lane from")
        if not (_is_int(lane) and 0 <= lane < len(self.ends)):
            raise UsageError(f"lane must be an integer in [0, {len(self.ends)})")
        first = int(self.num_steps[:lane].sum())
        mine = slice(first, first + int(self.num_steps[lane]))
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
) -> SolutionBatch:
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
    rows, paths = np.asarray(rows), len(prefixes.sums)
    if not configs or rows.shape != (len(configs),):
        raise UsageError("need at least one lane, and one path row per config")
    if rows.dtype.kind not in "iu" or not ((rows >= 0) & (rows < paths)).all():
        raise UsageError(f"path rows must be integers in [0, {paths})")
    h_ref = prefixes.resolution
    n_total = prefixes.num_steps
    k_min = _check_lanes(configs, problem.horizon, h_ref)
    scale, h_min, h_max = (
        np.array([getattr(c, a) for c in configs]) for a in ("scale", "h_min", "h_max")
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


def _collect(rounds, at, y, initial_state, h_ref) -> SolutionBatch:
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
        return SolutionBatch(*totals)
    order = np.flatnonzero(finite)[np.argsort(lanes[finite], kind="stable")]
    if states is not None:
        states = states[order]
    return SolutionBatch(*totals, ends[order], pinned[order], states)


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


class FixedSolves:
    """One fixed-step job (scheme, k) over a block of P paths, bound to
    their prefix arrays and advanced as those fill.

    Each row steps its path from the initial state over windows of k
    fine steps, the last one shorter when k does not divide the path.
    :meth:`advance` reads ``prefixes``, the block's
    :class:`~milsde.wiener.PathPrefixes`, whole or streamed, and steps
    the rows over each window they hold up to their frontier that the
    job has not taken yet, all in one read per call, with the exact
    integrals :func:`~milsde.wiener.integrals_over` gives them;
    ``position`` is the first node the job still needs. Rows never mix,
    so row p, read as ``result().solution(p)``, equals
    :func:`integrate_fixed` on path p bit for bit, divergence included,
    whatever the arrays held at each call. The coefficients are checked
    once, as in :func:`integrate_adaptive_batch`, and the step map is
    built once. ``record`` keeps every step's node and state, checking
    each step; without it, a call checks its slab of steps at its end
    (see :meth:`advance`). ``zero_levy_area`` zeroes the Levy areas.
    """

    def __init__(
        self, problem: SdeProblem, scheme: str, substeps: int, prefixes: PathPrefixes,
        zero_levy_area: bool = False, record: bool = False,
    ):
        check_scheme(scheme)
        count, num_steps = len(prefixes.sums), prefixes.num_steps
        if not (_is_int(substeps) and 1 <= substeps <= num_steps):
            raise UsageError(f"need whole substeps, 1 <= substeps <= {num_steps}")
        self.k = int(substeps)  # fine steps per window
        _check_compatible(problem, prefixes)
        _check_rowwise(problem, max(count, problem.dim_state + 1))
        self.prefixes, self.zero_area = prefixes, zero_levy_area
        self._map, self._initial_state = _step_map(problem, scheme), problem.initial_state
        self._y = np.tile(self._initial_state, (count, 1))
        self._stop = np.full(count, -(-num_steps // self.k))  # the window each row stopped at
        self._dead = np.zeros(count, dtype=bool)  # rows stopped so far
        self._states = [self._y] if record else None
        self.position = 0  # the node the job reached

    def advance(self) -> None:
        """Step the rows over the windows the prefix arrays hold that the
        job has not taken yet, up to their frontier.

        Unless it records, a job none of whose rows has stopped steps
        every window unchecked and is done if it ends finite. Otherwise
        it replays them from the saved states, checking each step. That
        is exact: every map adds ``y`` to its increments, so a component
        that went non-finite stays so; and a pass that raised (a
        coefficient may refuse a non-finite state) is replayed the same
        way, where an error raised on finite states surfaces again.

        Raises:
            UsageError: the arrays no longer hold the start of the job's
                next window.
        """
        prefixes, k, at = self.prefixes, self.k, self.position
        if at < prefixes.start:
            raise UsageError(f"node {at} is no longer held")
        # The ends of the windows held that the job has not taken, the
        # last one clipped to the path.
        ends = np.arange(at + k, prefixes.frontier + k, k).clip(max=prefixes.num_steps)
        ends = ends[ends <= prefixes.frontier]
        if not len(ends):
            return
        starts = np.concatenate(([at], ends[:-1]))[:, None]
        h, dW, A = prefixes.windows(np.arange(len(self._y)), starts, ends[:, None], self.zero_area)
        I = double_integrals(h[..., None], dW, A)
        # Window lengths as 0-d arrays, which the maps multiply by faster
        # than by floats; a job's windows share one or two lengths.
        zero_d = {x: np.array(x) for x in set(h[:, 0].tolist())}
        h = [zero_d[x] for x in h[:, 0].tolist()]
        dW, I = _components_first(dW, I)
        self.position = int(ends[-1])
        step_map, states, y, dead = self._map, self._states, self._y, self._dead
        step = -(-at // k)  # windows taken
        with np.errstate(over="ignore", invalid="ignore"):
            if states is None and not dead.any():
                try:
                    nxt = y
                    for window in zip(h, dW, I):
                        nxt = step_map(nxt, *window)
                except Exception:
                    nxt = None  # replayed below, checked
                if nxt is not None and np.isfinite(nxt).all():
                    self._y = nxt
                    return
            for s in range(0 if dead.all() else len(dW)):
                nxt = step_map(y, h[s], dW[s], I[s])
                new = ~np.isfinite(nxt).all(axis=-1) & ~dead
                self._stop[new] = step
                dead = dead | new
                if dead.all():
                    break
                y = np.where(dead[:, None], y, nxt)
                step += 1
                if states is not None:
                    states.append(y)
        self._y, self._dead = y, dead

    def result(self) -> SolutionBatch:
        """The rows as the lanes of a :class:`SolutionBatch`, each ending
        on its last finite node, with no step flagged."""
        k, n = self.k, self.prefixes.num_steps
        if self.position < n:
            raise UsageError(f"only {self.position} of {n} fine steps were taken")
        count, steps = len(self._y), self._stop
        totals = (
            np.minimum(steps * k, n), self._y, steps, np.zeros(count, dtype=np.int64),
            self._dead, self._initial_state, self.prefixes.resolution,
        )
        if self._states is None:
            return SolutionBatch(*totals)
        # Each record's row, and its step count within the row.
        row = np.repeat(np.arange(count), steps)
        taken = np.arange(1, len(row) + 1) - np.repeat(np.cumsum(steps) - steps, steps)
        records = (np.minimum(taken * k, n), np.zeros(len(row), dtype=bool))
        return SolutionBatch(*totals, *records, np.array(self._states)[taken, row])


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
    run finishes with one shorter step onto the horizon. This is the one
    row of a :class:`FixedSolves` job bound to the path's prefix arrays.
    """
    k = fixed_substeps(step_size, path.resolution, path.num_steps)
    solve = FixedSolves(problem, scheme, k, path.prefixes(), zero_levy_area, True)
    solve.advance()
    return solve.result().solution(0)
