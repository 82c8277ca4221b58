"""Monte Carlo experiment harness.

Strong errors are measured at the horizon against a tamed Milstein
reference on a much finer mesh, with both runs driven by the same
quantized Wiener path, so the coupling is exact and the only error is
discretization. For M paths

    rms = sqrt(mean_k ||Y_ref(T) - Y(T)||^2),

and the reported standard error follows from the delta method:
se(rms) = sd(error^2) / (2 rms sqrt(M)). Divergent paths are excluded
from the statistics and surface in ``divergent_count``.

Fixed-step comparators run at the adaptive scheme's realized mean step
(rounded to the fine grid), so error and cost are compared at equal
effective resolution; their rows record that matched step in both the
h_max and h_mean columns.

Paths are processed in contiguous blocks of seeds, one block per task
when ``workers > 1``. Every solve of a block reads its windows from one
sliding window of prefix arrays (:class:`~milsde.wiener.PathPrefixes`)
over the block's paths, which are drawn together in slabs of
consecutive fine steps from their open streams
(:class:`~milsde.wiener.PathStreams`). Pass 1 feeds one lockstep
adaptive solve with a lane per (path, h_max) of the block. A lane whose
next window ends beyond the slabs drawn so far waits; when every lane
waits, the next slab is drawn and the nodes behind the slowest lane are
dropped. Slabs end on reference-window boundaries, and before each one
is drawn the batched tamed reference of every path
(:class:`~milsde.adaptive.FixedSolves`) advances over the reference
windows held so far; slabs left once every lane is done are drawn for
the reference alone. The window and one slab's increments stay within
a fixed 2 MiB cap of the library (not an option), and a block is cut
small enough that its slabs are at least half as wide as the widest
lane's h_max. Only a single path whose widest window alone exceeds the
cap holds more: that window plus one reference window. A whole path is
held only where it fits the cap. Pass 2 draws the block's paths again,
through a window of the same cap as wide as the widest matched step,
and advances every (scheme, matched step) job over the windows each
slab completes. So no block holds a whole path or a whole mesh. Rows
and lanes never mix inside a batched solve, so results do not depend on
the split into blocks or slabs. ``backstop_probability`` runs one task
per block of paths: a streamed lockstep solve with a lane per (path,
rho).

``cpu_seconds`` per row is the CPU time (``time.process_time``, taken
in the process that did the work and summed over workers) of that
row's own solves. An adaptive row is charged its lanes' share of each
block's lockstep solve and pass-1 prefix arrays, split between the
lanes in proportion to the steps they tried (a failed step included).
A fixed row is charged the steps of its batched solve, its share of the
window reads of its matched step, which the jobs with that step split
equally, and an equal share of the pass-2 prefix arrays. Path
generation (the slab draws of both passes) is charged once, to
``ErrorTable.generation_seconds``, and the reference (its window reads
and steps) to ``ErrorTable.reference_seconds``; neither is in any row.

Seeds: path k uses ``base_seed ^ k``, so every experiment, pass, and
rho value sees the same driving paths and results are reproducible
bit for bit (timing columns aside).
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields

import numpy as np

from .adaptive import FixedSolves, StrategyConfig, integrate_adaptive_batch
from .errors import ExperimentError, UsageError
from .problems import SdeProblem, make_builtin
from .steppers import check_scheme
from .wiener import _MAX_EXPONENT, PathPrefixes, PathStreams, _check_exponent

__all__ = [
    "DEFAULT_BASE_SEED",
    "CSV_HEADER",
    "BACKSTOP_CSV_HEADER",
    "ExperimentConfig",
    "ErrorRow",
    "ErrorTable",
    "BackstopPoint",
    "StepProfile",
    "BackstopCurve",
    "convergence_table",
    "backstop_probability",
]

DEFAULT_BASE_SEED = 12345
CSV_HEADER = (
    "scheme,h_max,rms_error,rms_std_error,h_mean,cpu_seconds,"
    "backstop_rate,divergent_count"
)
BACKSTOP_CSV_HEADER = "rho,prob,prob_std_error"
PROFILE_CSV_HEADER = "rho,step_index,h_mean,h_var,num_paths"


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a convergence/efficiency experiment needs.

    The problem may be given as a builtin name or an SdeProblem. Every
    h_max must be a whole multiple of the reference step
    T 2^-reference_exponent, and the fine exponent must exceed the
    reference exponent by at least 4 so the reference is effectively
    exact relative to the coarse runs.
    """

    problem: SdeProblem | str
    h_max_values: tuple[float, ...]
    rho: float
    schemes: tuple[str, ...] = ("adaptive",)
    num_paths: int = 100
    reference_exponent: int = 16
    fine_exponent: int = 20
    base_seed: int = DEFAULT_BASE_SEED
    delta: float | None = None
    workers: int = 1

    def __post_init__(self) -> None:
        if isinstance(self.problem, str):
            object.__setattr__(self, "problem", make_builtin(self.problem))
        object.__setattr__(
            self, "h_max_values", tuple(float(h) for h in self.h_max_values)
        )
        object.__setattr__(self, "schemes", tuple(self.schemes))
        if not self.schemes:
            raise UsageError("at least one scheme is required")
        for s in self.schemes:
            check_scheme(s, adaptive=True)
        if not self.h_max_values:
            raise UsageError("at least one h_max value is required")
        if self.num_paths < 2:
            raise UsageError("num_paths must be at least 2")
        if self.workers < 1:
            raise UsageError("workers must be at least 1")
        if not (1 <= self.reference_exponent < self.fine_exponent <= _MAX_EXPONENT):
            raise UsageError(
                f"need 1 <= reference_exponent < fine_exponent <= {_MAX_EXPONENT}, "
                f"got {self.reference_exponent} and {self.fine_exponent}"
            )
        if self.fine_exponent - self.reference_exponent < 4:
            raise UsageError(
                "fine_exponent must exceed reference_exponent by at least 4"
            )
        if not self.rho > 1.0:
            raise UsageError(f"rho must exceed 1, got {self.rho}")
        horizon = self.problem.horizon
        ref_step = horizon * 2.0 ** -self.reference_exponent
        h_ref = horizon * 2.0 ** -self.fine_exponent
        for h in self.h_max_values:
            if not (0.0 < h <= horizon):
                raise UsageError(f"h_max {h} must lie in (0, horizon]")
            u = h / ref_step
            if abs(u - round(u)) > 1e-9 * max(u, 1.0) or round(u) < 1:
                raise UsageError(
                    f"h_max {h:g} is not a whole multiple of the reference step "
                    f"{ref_step:g}"
                )
            if h / self.rho < h_ref:
                raise UsageError(
                    f"h_max {h:g} with rho {self.rho:g} puts the floor below the "
                    f"fine resolution {h_ref:g}; raise fine_exponent or lower rho"
                )
        if self.delta is not None:
            lo = min(self.h_max_values)
            if not (0.0 < self.delta <= lo):
                raise UsageError(
                    f"delta must lie in (0, min h_max] = (0, {lo}], got {self.delta}"
                )

    @property
    def reference_step(self) -> float:
        return self.problem.horizon * 2.0 ** -self.reference_exponent

    @property
    def seeds(self) -> tuple[int, ...]:
        return tuple(self.base_seed ^ k for k in range(self.num_paths))


@dataclass(frozen=True)
class ErrorRow:
    scheme: str
    h_max: float
    rms_error: float
    rms_std_error: float
    h_mean: float
    cpu_seconds: float
    backstop_rate: float
    divergent_count: int


@dataclass(frozen=True)
class ErrorTable:
    """Table rows plus the CPU seconds charged to no row: the coupled
    reference (its window integrals and batched steps) and the generation
    of the driving paths, summed over both passes."""

    rows: tuple[ErrorRow, ...]
    reference_seconds: float = 0.0
    generation_seconds: float = 0.0

    def rows_for(self, scheme: str) -> tuple[ErrorRow, ...]:
        return tuple(r for r in self.rows if r.scheme == scheme)

    def slopes(self) -> dict[str, float]:
        """Least-squares slope of log2(rms) against log2(h) per scheme.

        Rows with zero, nan, or all-divergent rms are dropped; a scheme
        with fewer than two usable rows maps to nan.
        """
        out: dict[str, float] = {}
        for scheme in dict.fromkeys(r.scheme for r in self.rows):
            pts = [
                (math.log2(r.h_max), math.log2(r.rms_error))
                for r in self.rows_for(scheme)
                if math.isfinite(r.rms_error) and r.rms_error > 0.0
            ]
            if len(pts) < 2:
                out[scheme] = math.nan
                continue
            x = np.array([p[0] for p in pts])
            y = np.array([p[1] for p in pts])
            out[scheme] = float(np.polyfit(x, y, 1)[0])
        return out

    def frontier(self) -> list[tuple[str, float, float]]:
        """(scheme, rms_error, cpu_seconds) triples, the efficiency view."""
        return [(r.scheme, r.rms_error, r.cpu_seconds) for r in self.rows]

    def to_csv(self, stream) -> None:
        stream.write(CSV_HEADER + "\n")
        for r in self.rows:
            stream.write(
                f"{r.scheme},{r.h_max:.17g},{r.rms_error:.17g},"
                f"{r.rms_std_error:.17g},{r.h_mean:.17g},{r.cpu_seconds:.17g},"
                f"{r.backstop_rate:.17g},{r.divergent_count}\n"
            )


def _rms_stats(err_sq) -> tuple[float, float, int]:
    arr = np.array(err_sq, dtype=float)
    bad = int(np.isnan(arr).sum())
    ok = arr[~np.isnan(arr)]
    if ok.size == 0:
        return math.nan, math.nan, bad
    rms = math.sqrt(float(ok.mean()))
    if ok.size < 2:
        se = math.nan
    elif rms == 0.0:
        se = 0.0
    else:
        se = float(ok.std(ddof=1)) / (2.0 * rms * math.sqrt(ok.size))
    return rms, se, bad


def _map_tasks(fn, tasks, workers: int):
    if workers <= 1 or len(tasks) <= 1:
        return [fn(t) for t in tasks]
    chunk = max(1, len(tasks) // (workers * 4))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks, chunksize=chunk))


def _seed_blocks(seeds, workers: int, size: int) -> list[tuple]:
    """Contiguous blocks of seeds: at least one per worker, and at most
    ``size`` seeds each."""
    count = min(len(seeds), max(workers, -(-len(seeds) // max(1, size))))
    bounds = [len(seeds) * b // count for b in range(count + 1)]
    return [tuple(seeds[a:b]) for a, b in zip(bounds, bounds[1:])]


def _widest(problem: SdeProblem, fine_exp: int, h_max: float) -> int:
    """Fine steps of the widest window a lane with ``h_max`` can take."""
    return math.ceil(h_max / (problem.horizon * 2.0**-fine_exp))


def _err_sq(ref_final: np.ndarray, final: np.ndarray) -> float:
    diff = ref_final - final
    return float(diff @ diff)


def _window(problem, count, fine_exp, draw, widest, unit):
    """A sliding window of prefix arrays over a block of ``count`` paths
    (see :meth:`PathPrefixes.streamed`), streamed in slabs of whole
    multiples of ``unit`` fine steps and holding at least ``widest``
    nodes besides the slab: ``draw(steps)`` returns the next increments
    of every path, (count, m, steps)."""
    n, h_ref, horizon = 1 << fine_exp, problem.horizon * 2.0**-fine_exp, problem.horizon
    return PathPrefixes.streamed(count, problem.dim_noise, n, h_ref, horizon, draw, widest, unit)


def _lockstep(problem, window, configs, keep):
    """One lockstep adaptive solve over the paths of ``window``, a lane
    per (path, config), path-major, keeping ``keep`` of each step."""
    count = len(window.sums)
    rows = np.repeat(np.arange(count), len(configs))
    return integrate_adaptive_batch(problem, list(configs) * count, window, rows, keep=keep)


@dataclass(frozen=True)
class _AdaptiveRuns:
    """The adaptive solves of pass 1 as named (paths, h_max) arrays.

    ``err_sq`` is the squared endpoint error against the reference (nan
    for a divergent lane), ``mean_step`` the mean step (nan when
    divergent), ``steps`` and ``flagged`` the completed and backstop
    steps, and ``cpu_seconds`` the lane's share of its block's solve.
    """

    err_sq: np.ndarray
    mean_step: np.ndarray
    steps: np.ndarray
    flagged: np.ndarray
    cpu_seconds: np.ndarray

    @classmethod
    def concat(cls, parts) -> "_AdaptiveRuns":
        """The runs of consecutive blocks, stacked along the paths."""
        return cls(
            *(np.concatenate([getattr(r, f.name) for r in parts]) for f in fields(cls))
        )


@dataclass(frozen=True)
class _Pass1:
    """One block's pass 1: CPU s of generation and of the reference, the
    reference endpoints (P, d), and the adaptive runs."""

    generation_seconds: float
    reference_seconds: float
    ref_final: np.ndarray
    runs: _AdaptiveRuns


def _block_reference(task) -> _Pass1:
    """Pass 1 for a contiguous block of seeds.

    The block's paths are generated slab by slab from their open
    streams into one sliding window of prefix arrays, which feeds one
    lockstep adaptive solve with a lane per (path, h_max). Slabs end on
    reference-window boundaries, and before each slab is drawn the
    batched tamed reference of every path advances over the reference
    windows the window holds; once every lane is done, the slabs left
    are drawn for the reference alone. Slab draws are charged to
    generation, the reference's windows and steps to the reference, and
    the rest of the lockstep (the prefix arrays included) to the lanes,
    split by the steps each lane tried (a failed step included).
    """
    problem, seeds, fine_exp, ref_units, h_values, rho, delta = task
    clock = time.process_time
    n = 1 << fine_exp
    streams = PathStreams(seeds, fine_exp, problem.dim_noise, problem.horizon)
    t0 = clock()
    reference = FixedSolves(problem, [("tamed", ref_units)], len(seeds), n)
    spent = [0.0, clock() - t0]  # CPU s of slab draws and of the reference

    def draw(steps):
        t0 = clock()
        reference.advance(window)
        t1 = clock()
        slab = streams.draw(steps)
        spent[0] += clock() - t1
        spent[1] += t1 - t0
        return slab

    configs = [StrategyConfig(h_max=h, rho=rho, delta=delta) for h in h_values]
    widest = _widest(problem, fine_exp, max(h_values))
    window = _window(problem, len(seeds), fine_exp, draw, widest, ref_units)
    try:
        t0, before = clock(), sum(spent)
        batch = _lockstep(problem, window, configs, "totals")
        solve_s = clock() - t0 - (sum(spent) - before)
        t0, before = clock(), sum(spent)
        while window.frontier < n:
            window.advance(window.frontier)
        reference.advance(window)
        spent[1] += clock() - t0 - (sum(spent) - before)
    finally:
        # The window's source refers to the window: break the cycle, so
        # that its arrays go as soon as the block is done.
        window.source = None
    ref = reference.results()[0]
    if ref.divergent.any():
        seed = seeds[int(np.argmax(ref.divergent))]
        raise ExperimentError(f"reference solution diverged for seed {seed}")
    ok = ~batch.divergent
    # A lane's share of the solve: the steps it tried, the failed one
    # included; on a finite lane, that is its steps.
    tried = batch.num_steps + ~ok
    err_sq = np.full(len(ok), math.nan)
    for lane in np.flatnonzero(ok):
        err_sq[lane] = _err_sq(ref.final_states[lane // len(configs)], batch.final_states[lane])
    mean_step = np.where(ok, batch.ends * batch.resolution / tried, math.nan)
    steps, flagged = np.where(ok, batch.num_steps, 0), np.where(ok, batch.flagged, 0)
    cpu_s, shape = solve_s * tried / tried.sum(), (len(seeds), len(configs))
    runs = _AdaptiveRuns(*(a.reshape(shape) for a in (err_sq, mean_step, steps, flagged, cpu_s)))
    return _Pass1(spent[0], spent[1], ref.final_states, runs)


def _block_fixed(task):
    """Pass 2 for a contiguous block of seeds: draw the block's paths
    again (cheaper than shipping them between processes), in slabs of
    whole reference windows into a sliding window of prefix arrays as
    wide as the widest matched step, and advance every (scheme,
    substeps) job over each slab as it arrives, against the reference
    endpoints of pass 1.

    Returns (generation CPU s, per-job (err_sq list, CPU s)); the CPU
    time of a job is its steps, its share of the windows of its step,
    and an equal share of the prefix arrays.
    """
    problem, seeds, fine_exp, ref_units, jobs, ref_final = task
    clock = time.process_time
    n = 1 << fine_exp
    streams = PathStreams(seeds, fine_exp, problem.dim_noise, problem.horizon)
    solves = FixedSolves(problem, jobs, len(seeds), n)
    spent = [0.0, 0.0]  # CPU s of slab draws and of the window's advances

    def draw(steps):
        t0 = clock()
        slab = streams.draw(steps)
        spent[0] += clock() - t0
        return slab

    widest = max(k for _, k in jobs)
    window = _window(problem, len(seeds), fine_exp, draw, widest, ref_units)
    while window.frontier < n:
        t0 = clock()
        window.advance(solves.position)
        spent[1] += clock() - t0
        solves.advance(window)
    share = (spent[1] - spent[0]) / len(jobs)
    out = []
    for sol, seconds in zip(solves.results(), solves.seconds):
        err = [
            math.nan if sol.divergent[p] else _err_sq(ref_final[p], sol.final_states[p])
            for p in range(len(seeds))
        ]
        out.append((err, seconds + share))
    return spent[0], out


def _run_reference(problem, seeds, fine_exp, ref_units, h_values, rho, delta, workers):
    """Pass 1 over every seed, in contiguous blocks whose streamed
    window fits the prefix cap with slabs at least half as wide as the
    widest lane's window."""
    size = PathPrefixes.stream_size(problem.dim_noise, _widest(problem, fine_exp, max(h_values)))
    blocks = _seed_blocks(seeds, workers, size)
    tasks = [
        (problem, block, fine_exp, ref_units, h_values, rho, delta) for block in blocks
    ]
    return blocks, _map_tasks(_block_reference, tasks, workers)


def _run_fixed(problem, blocks, results, fine_exp, ref_units, jobs, workers):
    """Pass 2: the (scheme, substeps) jobs over the pass-1 blocks'
    reference endpoints. Returns (generation s, per-job (err_sq over
    all seeds in order, CPU s))."""
    tasks = [
        (problem, block, fine_exp, ref_units, tuple(jobs), r.ref_final)
        for block, r in zip(blocks, results)
    ]
    out = _map_tasks(_block_fixed, tasks, workers)
    per_job = [
        ([e for r in out for e in r[1][j][0]], sum(r[1][j][1] for r in out))
        for j in range(len(jobs))
    ]
    return sum(r[0] for r in out), per_job


def convergence_table(config: ExperimentConfig) -> ErrorTable:
    """Strong-error table over config.schemes x config.h_max_values.

    The adaptive runs always execute (their realized mean steps set the
    comparator steps) but appear as rows only if "adaptive" is among
    the requested schemes.
    """
    problem = config.problem
    fine_exp = config.fine_exponent
    ref_units = 1 << (fine_exp - config.reference_exponent)
    blocks, results = _run_reference(
        problem,
        config.seeds,
        fine_exp,
        ref_units,
        config.h_max_values,
        config.rho,
        config.delta,
        config.workers,
    )
    gen_total = sum(r.generation_seconds for r in results)
    ref_total = sum(r.reference_seconds for r in results)
    runs = _AdaptiveRuns.concat([r.runs for r in results])
    rows: list[ErrorRow] = []
    adaptive_rows: dict[float, ErrorRow] = {}
    matched_step: dict[float, float] = {}
    h_ref = problem.horizon * 2.0 ** -fine_exp
    for j, h_max in enumerate(config.h_max_values):
        rms, se, bad = _rms_stats(runs.err_sq[:, j])
        means = runs.mean_step[:, j]
        means = means[~np.isnan(means)]
        h_mean = float(np.mean(means)) if means.size else math.nan
        steps = int(runs.steps[:, j].sum())
        flagged = int(runs.flagged[:, j].sum())
        adaptive_rows[h_max] = ErrorRow(
            scheme="adaptive",
            h_max=h_max,
            rms_error=rms,
            rms_std_error=se,
            h_mean=h_mean,
            cpu_seconds=float(runs.cpu_seconds[:, j].sum()),
            backstop_rate=flagged / steps if steps else math.nan,
            divergent_count=bad,
        )
        if math.isnan(h_mean):
            matched_step[h_max] = math.nan
        else:
            matched_step[h_max] = max(1, round(h_mean / h_ref)) * h_ref

    fixed_schemes = [s for s in config.schemes if s != "adaptive"]
    fixed_rows: dict[tuple[str, float], ErrorRow] = {}
    if fixed_schemes:
        jobs = []
        for scheme in fixed_schemes:
            for h_max in config.h_max_values:
                step = matched_step[h_max]
                if math.isnan(step):
                    raise ExperimentError(
                        "cannot match a comparator step: every adaptive path "
                        f"diverged at h_max {h_max:g}"
                    )
                jobs.append((scheme, step))
        gen_b, per_job = _run_fixed(
            problem,
            blocks,
            results,
            fine_exp,
            ref_units,
            [(scheme, round(step / h_ref)) for scheme, step in jobs],
            config.workers,
        )
        gen_total += gen_b
        for (scheme, step), (err_sq, run_total) in zip(jobs, per_job):
            rms, se, bad = _rms_stats(err_sq)
            fixed_rows[(scheme, step)] = ErrorRow(
                scheme=scheme,
                h_max=step,
                rms_error=rms,
                rms_std_error=se,
                h_mean=step,
                cpu_seconds=run_total,
                backstop_rate=0.0,
                divergent_count=bad,
            )

    for scheme in config.schemes:
        for h_max in config.h_max_values:
            if scheme == "adaptive":
                rows.append(adaptive_rows[h_max])
            else:
                rows.append(fixed_rows[(scheme, matched_step[h_max])])
    return ErrorTable(
        rows=tuple(rows), reference_seconds=ref_total, generation_seconds=gen_total
    )


@dataclass(frozen=True)
class BackstopPoint:
    rho: float
    prob: float
    prob_std_error: float


@dataclass(frozen=True)
class StepProfile:
    """Per-step-index statistics of the realized step sizes at one rho.

    Index n aggregates the n-th step over the paths that took at least
    n+1 steps; ``num_paths`` records how many did.
    """

    rho: float
    h_mean: np.ndarray
    h_var: np.ndarray
    num_paths: np.ndarray


@dataclass(frozen=True)
class BackstopCurve:
    h_max: float
    points: tuple[BackstopPoint, ...]
    profiles: tuple[StepProfile, ...]

    def to_csv(self, stream) -> None:
        stream.write(BACKSTOP_CSV_HEADER + "\n")
        for p in self.points:
            stream.write(f"{p.rho:.17g},{p.prob:.17g},{p.prob_std_error:.17g}\n")

    def profiles_to_csv(self, stream) -> None:
        stream.write(PROFILE_CSV_HEADER + "\n")
        for prof in self.profiles:
            for n in range(len(prof.h_mean)):
                stream.write(
                    f"{prof.rho:.17g},{n},{prof.h_mean[n]:.17g},"
                    f"{prof.h_var[n]:.17g},{int(prof.num_paths[n])}\n"
                )


def _backstop_block(task):
    """One lockstep solve over a block of seeds, a lane per (seed, rho).
    Returns per seed, per rho: (backstop engaged, step sizes)."""
    problem, block, fine_exp, h_max, rhos, delta = task
    configs = [StrategyConfig(h_max=h_max, rho=rho, delta=delta) for rho in rhos]
    streams = PathStreams(block, fine_exp, problem.dim_noise, problem.horizon)
    widest = _widest(problem, fine_exp, h_max)
    window = _window(problem, len(block), fine_exp, streams.draw, widest, 1)
    batch = _lockstep(problem, window, configs, "steps")
    out = []
    for q, seed in enumerate(block):
        per_rho = []
        for j, rho in enumerate(rhos):
            lane = q * len(rhos) + j
            if batch.divergent[lane]:
                raise ExperimentError(
                    f"adaptive run diverged for seed {seed} at rho {rho:g}"
                )
            sol = batch.solution(lane)
            per_rho.append((bool(sol.backstop_flags.any()), sol.step_sizes))
        out.append(per_rho)
    return out


def backstop_probability(
    problem: SdeProblem | str,
    rho_values,
    h_max: float,
    num_paths: int,
    fine_exponent: int = 16,
    base_seed: int = DEFAULT_BASE_SEED,
    delta: float | None = None,
    workers: int = 1,
) -> BackstopCurve:
    """Probability that a path engages the backstop at least once, as a
    function of rho, over shared driving paths (same seeds for every
    rho, so the trigger sets are nested as rho grows).
    """
    if isinstance(problem, str):
        problem = make_builtin(problem)
    rhos = tuple(float(r) for r in rho_values)
    if not rhos:
        raise UsageError("at least one rho value is required")
    for rho in rhos:
        if not rho > 1.0:
            raise UsageError(f"rho must exceed 1, got {rho}")
    if num_paths < 2:
        raise UsageError("num_paths must be at least 2")
    _check_exponent("fine_exponent", fine_exponent)
    h_ref = problem.horizon * 2.0 ** -fine_exponent
    if not (0.0 < h_max <= problem.horizon):
        raise UsageError(f"h_max {h_max} must lie in (0, horizon]")
    if h_max / max(rhos) < h_ref:
        raise UsageError(
            f"h_max {h_max:g} with rho {max(rhos):g} puts the floor below the "
            f"fine resolution {h_ref:g}; raise fine_exponent or lower rho"
        )
    seeds = [base_seed ^ k for k in range(num_paths)]
    tasks = [
        (problem, block, fine_exponent, h_max, rhos, delta)
        for block in _seed_blocks(
            seeds,
            workers,
            PathPrefixes.stream_size(problem.dim_noise, _widest(problem, fine_exponent, h_max)),
        )
    ]
    results = [r for out in _map_tasks(_backstop_block, tasks, workers) for r in out]

    points = []
    profiles = []
    for j, rho in enumerate(rhos):
        hits = np.array([r[j][0] for r in results], dtype=float)
        p = float(hits.mean())
        se = math.sqrt(p * (1.0 - p) / num_paths)
        points.append(BackstopPoint(rho=rho, prob=p, prob_std_error=se))
        series = [r[j][1] for r in results]
        width = max(len(s) for s in series)
        padded = np.full((num_paths, width), np.nan)
        for i, s in enumerate(series):
            padded[i, : len(s)] = s
        counts = (~np.isnan(padded)).sum(axis=0)
        with np.errstate(invalid="ignore"):
            h_mean = np.nanmean(padded, axis=0)
            h_var = np.nanvar(padded, axis=0, ddof=0)
        profiles.append(
            StepProfile(rho=rho, h_mean=h_mean, h_var=h_var, num_paths=counts)
        )
    return BackstopCurve(h_max=h_max, points=tuple(points), profiles=tuple(profiles))
