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
h_max and h_mean columns. Each distinct (scheme, matched fine-step
count) runs once, so two h_max values that match one count print the
same row under each of them, and a slope counts that row once.

Paths are processed in contiguous blocks of seeds, one block per task
when ``workers > 1``. Every task runs the same block solve: the block's
paths are drawn together in slabs of consecutive fine steps from their
open streams (:class:`~milsde.wiener.PathStreams`) into one sliding
window of prefix arrays (:class:`~milsde.wiener.PathPrefixes`), from
which every solve of the block reads its windows. Adaptive lanes, one
per (path, config), run in one lockstep solve, and fixed-step jobs
(:class:`~milsde.adaptive.FixedSolves`, one per (scheme, step)) beside
them, all bound to the window, whose grid is the problem's horizon and
2^L fine steps. One loop drives the block: the lanes step until every
live lane waits, because its next window ends beyond the slabs drawn so
far; each job then takes every window held; then the next slab is drawn
and the nodes behind the slowest lane or job are dropped. It stops at
the horizon, or as soon as no lane or job is left to step. A table runs
two such passes over the same blocks: pass 1 has a lane per (path,
h_max) and the tamed reference as its one job, with slabs ending on
reference-window boundaries; pass 2 has a job per (scheme, matched
fine-step count). A backstop curve runs one pass with a lane per (path,
rho). The window and one slab's increments stay within a cap of the
library (not an option) of 2 MiB per 25 paths of the block, rounded up.
Where 25 paths fit that cap with slabs at least half as wide as the
widest lane's window, each worker runs one block; otherwise blocks are
cut to fewer paths, small enough that their slabs are that wide. Only a
single path whose widest window alone exceeds the cap holds more: that
window plus one slab unit. So a block holds a whole path only where it
fits the cap, and never a whole mesh. Rows and lanes never mix inside a
batched solve, so results do not depend on the split into blocks or
slabs. Errors, divergence checks and curve statistics are computed in
the parent process from the blocks' endpoints and steps.

``cpu_seconds`` per row is the CPU time (``time.process_time``, taken
in the process that did the work and summed over workers) of that row's
own solves, under one rule for every block, which the block applies by
timing each slab draw and each call of each solve. Drawing a slab and
writing its prefix nodes are path generation. The lockstep solve is
split between its lanes in proportion to the steps they tried (a failed
step included); an adaptive row is charged its lanes. A job is charged
its calls, which are its steps and the reads of its own windows, plus
an equal share of the rest of its block; a fixed row is charged its
job. The reference is pass 1's only job. Path generation (both passes)
is reported once, in ``ErrorTable.generation_seconds``, and the
reference in ``ErrorTable.reference_seconds``; neither is in any row.

Seeds: path k uses ``base_seed ^ k``, so every experiment, pass, and
rho value sees the same driving paths and results are reproducible
bit for bit (timing columns aside).
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .adaptive import FixedSolves, StrategyConfig, _check_lanes, _lockstep
from .errors import ExperimentError, UsageError
from .problems import SdeProblem, make_builtin
from .steppers import check_scheme
from .wiener import (
    _MAX_EXPONENT, DEFAULT_BASE_SEED, PathPrefixes, PathStreams, _check_exponent, _path_seeds,
)

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

# The CSV columns: the fields of ErrorRow and of BackstopPoint, in order.
CSV_HEADER = (
    "scheme,h_max,rms_error,rms_std_error,h_mean,cpu_seconds,"
    "backstop_rate,divergent_count"
)
BACKSTOP_CSV_HEADER = "rho,prob,prob_std_error"


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a convergence/efficiency experiment needs.

    The problem may be given as a builtin name or an SdeProblem. No
    scheme or h_max may be given twice. Every h_max must be a whole
    multiple of the reference step T 2^-reference_exponent, and the fine
    exponent must exceed the reference exponent by at least 4 so the
    reference is effectively exact relative to the coarse runs.
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
        if len(set(self.schemes)) < len(self.schemes):
            raise UsageError(f"the schemes {self.schemes} repeat a value; give each once")
        if not (1 <= self.reference_exponent < self.fine_exponent <= _MAX_EXPONENT):
            raise UsageError(
                f"need 1 <= reference_exponent < fine_exponent <= {_MAX_EXPONENT}, "
                f"got {self.reference_exponent} and {self.fine_exponent}"
            )
        if self.fine_exponent - self.reference_exponent < 4:
            raise UsageError(
                "fine_exponent must exceed reference_exponent by at least 4"
            )
        _check_run(
            self.problem, self.h_max_values, (self.rho,), self.delta, self.num_paths,
            self.fine_exponent, self.workers,
        )
        ref_step = self.reference_step
        for h in self.h_max_values:
            u = h / ref_step
            if abs(u - round(u)) > 1e-9 * max(u, 1.0) or round(u) < 1:
                raise UsageError(
                    f"h_max {h:g} is not a whole multiple of the reference step "
                    f"{ref_step:g}"
                )

    @property
    def reference_step(self) -> float:
        return self.problem.horizon * 2.0 ** -self.reference_exponent

    @property
    def seeds(self) -> tuple[int, ...]:
        return _path_seeds(self.base_seed, range(self.num_paths))


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

        Rows with zero, nan, or all-divergent rms are dropped, and rows
        that share an h_max count once; a scheme with fewer than two
        usable h_max values maps to nan.
        """
        out: dict[str, float] = {}
        for scheme in dict.fromkeys(r.scheme for r in self.rows):
            pts = {
                math.log2(r.h_max): math.log2(r.rms_error)
                for r in self.rows_for(scheme)
                if math.isfinite(r.rms_error) and r.rms_error > 0.0
            }
            if len(pts) < 2:
                out[scheme] = math.nan
                continue
            out[scheme] = float(np.polyfit(list(pts), list(pts.values()), 1)[0])
        return out

    def frontier(self) -> list[tuple[str, float, float]]:
        """(scheme, rms_error, cpu_seconds) triples, the efficiency view."""
        return [(r.scheme, r.rms_error, r.cpu_seconds) for r in self.rows]


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
    """``fn`` over ``tasks`` in order, on a pool of at most one worker
    per task (a forked pool starts every worker at once)."""
    workers = min(workers, len(tasks))
    if workers <= 1:
        return [fn(t) for t in tasks]
    chunk = max(1, len(tasks) // (workers * 4))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks, chunksize=chunk))


def _seed_blocks(
    seeds, workers: int, problem: SdeProblem, fine_exp: int, h_max: float
) -> list[tuple]:
    """Contiguous blocks of seeds: one per worker, or more where a block
    of that many paths would not let its slabs span half the widest
    window of ``h_max`` (:meth:`~milsde.wiener.PathPrefixes.stream_size`)."""
    size = PathPrefixes.stream_size(problem.dim_noise, _widest(problem, fine_exp, h_max))
    needed = 1 if size is None else -(-len(seeds) // max(1, size))
    count = min(len(seeds), max(workers, needed))
    bounds = [len(seeds) * b // count for b in range(count + 1)]
    return [tuple(seeds[a:b]) for a, b in zip(bounds, bounds[1:])]


def _widest(problem: SdeProblem, fine_exp: int, h_max: float) -> int:
    """Fine steps of the widest window a lane with ``h_max`` can take."""
    return math.ceil(h_max / (problem.horizon * 2.0**-fine_exp))


def _err_sq(ref_final: np.ndarray, final: np.ndarray, divergent: np.ndarray) -> np.ndarray:
    """Squared endpoint error of each row of ``final`` against the same
    row of ``ref_final``, nan where ``divergent``."""
    rows = zip(ref_final, final, divergent)
    return np.array([math.nan if bad else float((r - y) @ (r - y)) for r, y, bad in rows])


def _check_run(problem, h_values, rhos, delta, num_paths, fine_exponent, workers) -> tuple:
    """The checks a table and a backstop curve share: no h_max or rho is
    given twice, at least two paths and one worker, and each (h_max, rho)
    makes a :class:`~milsde.adaptive.StrategyConfig` with ``delta`` that
    fits the fine grid (:func:`~milsde.adaptive._check_lanes`). Returns
    those configs, h_max-major."""
    for name, values in (("h_max values", h_values), ("rho values", rhos)):
        if len(set(values)) < len(values):
            raise UsageError(f"the {name} {values} repeat a value; give each once")
    if num_paths < 2:
        raise UsageError("num_paths must be at least 2")
    if workers < 1:
        raise UsageError("workers must be at least 1")
    configs = tuple(StrategyConfig(h, rho, delta) for h in h_values for rho in rhos)
    _check_lanes(configs, problem.horizon, problem.horizon * 2.0**-fine_exponent)
    return configs


def _block(task):
    """Every solve of a contiguous block of seeds, over one sliding window
    of prefix arrays that streams the block's paths in slabs of whole
    multiples of ``unit`` fine steps.

    With lane ``configs``, one lockstep adaptive solve runs a lane per
    (path, config), path-major, keeping ``keep`` of each step; with
    ``jobs``, one :class:`~milsde.adaptive.FixedSolves` per (scheme, k)
    job, bound to the same window. One loop drives them all, as the
    module docstring says, and times each solve's share of it: every
    clock of the block is read here.

    Returns the CPU s of path generation (the slab draws and their prefix
    fills); the lanes' :class:`~milsde.adaptive.SolutionBatch` and each
    lane's CPU s (None without lanes); and per job its
    :class:`~milsde.adaptive.SolutionBatch`, a lane per path, and CPU s,
    charged as the module docstring says. No batch keeps a job's steps.
    """
    problem, seeds, fine_exp, unit, configs, keep, jobs = task
    clock = time.process_time
    began, n, count = clock(), 1 << fine_exp, len(seeds)
    widest = max([_widest(problem, fine_exp, c.h_max) for c in configs] + [k for _, k in jobs])
    streams = PathStreams(seeds, fine_exp, problem.dim_noise, problem.horizon)
    window = PathPrefixes.streamed(count, problem.dim_noise, n, problem.horizon, widest, unit)
    rows = np.repeat(np.arange(count), len(configs))
    lanes = _lockstep(problem, list(configs) * count, window, rows, keep=keep) if configs else None
    solves = [FixedSolves(problem, scheme, k, window) for scheme, k in jobs]
    job_s = [0.0] * len(jobs)  # each job's steps and window reads
    batch = lane_cpu = None
    generation_s = lockstep_s = 0.0
    while True:
        waiting = []  # the first node each lane or job still needs
        if lanes is not None:
            t0 = clock()
            try:
                waiting.append(next(lanes))
            except StopIteration as done:
                batch, lanes = done.value, None
            lockstep_s += clock() - t0
        for j, solve in enumerate(solves):
            t0 = clock()
            solve.advance()
            job_s[j] += clock() - t0
            waiting.append(solve.position)
        if not waiting or window.frontier == n:
            break
        t0 = clock()
        window.advance(min(waiting), streams.draw)
        generation_s += clock() - t0
    if batch is not None:
        tried = batch.num_steps + batch.divergent  # a failed step included
        lane_cpu = lockstep_s * tried / tried.sum()
    fixed = []
    if solves:
        rest = (clock() - began - generation_s - lockstep_s - sum(job_s)) / len(jobs)
        fixed = [(solve.result(), s + rest) for solve, s in zip(solves, job_s)]
    return generation_s, batch, lane_cpu, fixed


def _joined(results, j):
    """Job ``j`` of every block's :func:`_block` result, joined over the
    seeds: its endpoints (P, d), divergent flags (P,) and CPU s."""
    parts = [r[3][j] for r in results]
    return (
        np.concatenate([b.final_states for b, _ in parts]),
        np.concatenate([b.divergent for b, _ in parts]),
        sum(s for _, s in parts),
    )


def convergence_table(config: ExperimentConfig) -> ErrorTable:
    """Strong-error table over config.schemes x config.h_max_values.

    The adaptive runs always execute (their realized mean steps set the
    comparator steps) but appear as rows only if "adaptive" is among
    the requested schemes.
    """
    problem, fine_exp, h_values = config.problem, config.fine_exponent, config.h_max_values
    ref_units = 1 << (fine_exp - config.reference_exponent)
    h_ref = problem.horizon * 2.0**-fine_exp
    blocks = _seed_blocks(config.seeds, config.workers, problem, fine_exp, max(h_values))

    def run(configs, jobs):
        tasks = [(problem, b, fine_exp, ref_units, configs, "totals", jobs) for b in blocks]
        return _map_tasks(_block, tasks, config.workers)

    configs = tuple(StrategyConfig(h_max=h, rho=config.rho, delta=config.delta) for h in h_values)
    pass1 = run(configs, (("tamed", ref_units),))
    gen_total = sum(r[0] for r in pass1)
    ref_final, ref_bad, ref_total = _joined(pass1, 0)
    if ref_bad.any():
        seed = config.seeds[int(np.argmax(ref_bad))]
        raise ExperimentError(f"reference solution diverged for seed {seed}")
    final, ends, num_steps, flagged, bad = (
        np.concatenate([getattr(r[1], f) for r in pass1])
        for f in ("final_states", "ends", "num_steps", "flagged", "divergent")
    )
    shape = (len(config.seeds), len(h_values))
    err_sq = _err_sq(np.repeat(ref_final, len(h_values), axis=0), final, bad).reshape(shape)
    mean_step = np.where(bad, math.nan, ends * h_ref / (num_steps + bad)).reshape(shape)
    steps, flagged = (np.where(bad, 0, a).reshape(shape) for a in (num_steps, flagged))
    lane_cpu = np.concatenate([r[2] for r in pass1]).reshape(shape)
    fixed = [s for s in config.schemes if s != "adaptive"]
    rows: dict[tuple[str, float], ErrorRow] = {}
    matched: list[int] = []  # per h_max, the comparators' step in fine steps
    for j, h_max in enumerate(h_values):
        rms, se, bad_count = _rms_stats(err_sq[:, j])
        means = mean_step[:, j]
        means = means[~np.isnan(means)]
        h_mean = float(np.mean(means)) if means.size else math.nan
        total_steps = int(steps[:, j].sum())
        rate = int(flagged[:, j].sum()) / total_steps if total_steps else math.nan
        cpu = float(lane_cpu[:, j].sum())
        rows["adaptive", h_max] = ErrorRow("adaptive", h_max, rms, se, h_mean, cpu, rate, bad_count)
        if fixed:
            if math.isnan(h_mean):
                raise ExperimentError(
                    "cannot match a comparator step: every adaptive path "
                    f"diverged at h_max {h_max:g}"
                )
            matched.append(max(1, round(h_mean / h_ref)))

    # Distinct h_max values can match one fine-step count: run each job once.
    jobs = tuple(dict.fromkeys((scheme, k) for scheme in fixed for k in matched))
    if jobs:
        pass2 = run((), jobs)
        gen_total += sum(r[0] for r in pass2)
        for j, (scheme, k) in enumerate(jobs):
            final, bad, cpu = _joined(pass2, j)
            rms, se, bad_count = _rms_stats(_err_sq(ref_final, final, bad))
            row = ErrorRow(scheme, k * h_ref, rms, se, k * h_ref, cpu, 0.0, bad_count)
            rows.update(((scheme, h), row) for h, m in zip(h_values, matched) if m == k)
    table = tuple(rows[s, h] for s in config.schemes for h in h_values)
    return ErrorTable(rows=table, reference_seconds=ref_total, generation_seconds=gen_total)


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
    _check_exponent("fine_exponent", fine_exponent)
    configs = _check_run(problem, (h_max,), rhos, delta, num_paths, fine_exponent, workers)
    seeds = _path_seeds(base_seed, range(num_paths))
    tasks = [
        (problem, block, fine_exponent, 1, configs, "steps", ())
        for block in _seed_blocks(seeds, workers, problem, fine_exponent, h_max)
    ]
    batches = [r[1] for r in _map_tasks(_block, tasks, workers)]
    num_steps, flagged, bad, positions = (
        np.concatenate([getattr(b, f) for b in batches])
        for f in ("num_steps", "flagged", "divergent", "positions")
    )
    # Lanes are path-major: lane i is seed i // len(rhos) at rho i % len(rhos).
    if bad.any():
        i = int(np.argmax(bad))
        seed, rho = seeds[i // len(rhos)], rhos[i % len(rhos)]
        raise ExperimentError(f"adaptive run diverged for seed {seed} at rho {rho:g}")
    h_ref = problem.horizon * 2.0**-fine_exponent
    points, profiles = [], []
    for j, rho in enumerate(rhos):
        p = float(np.mean(flagged[j :: len(rhos)] > 0))
        se = math.sqrt(p * (1.0 - p) / num_paths)
        points.append(BackstopPoint(rho=rho, prob=p, prob_std_error=se))
        # The step records of this rho's lanes in path order: each one's
        # size, the difference of its end and start times, and its index
        # among its lane's steps. Sums then run down the paths in order.
        mine = np.repeat(np.arange(len(num_steps)) % len(rhos) == j, num_steps)
        steps = num_steps[j :: len(rhos)]
        first = np.cumsum(steps) - steps
        times = positions[mine] * h_ref
        h = np.diff(times, prepend=0.0)
        h[first] = times[first]
        at = np.arange(len(times)) - np.repeat(first, steps)
        counts = np.bincount(at)
        h_mean = np.bincount(at, h) / counts
        deviation = h - h_mean[at]
        h_var = np.bincount(at, deviation * deviation) / counts
        profiles.append(StepProfile(rho=rho, h_mean=h_mean, h_var=h_var, num_paths=counts))
    return BackstopCurve(h_max=h_max, points=tuple(points), profiles=tuple(profiles))
