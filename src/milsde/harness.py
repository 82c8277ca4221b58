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
when ``workers > 1``. Within a block each driving path is generated
once per pass, one at a time. Pass 1 works through the block in
groups of paths: each path of a group is generated, its
reference-mesh integrals are kept, its prefix arrays
(:class:`~milsde.wiener.PathPrefixes`) are written into the group's
arrays and its raw increments are dropped; then one lockstep adaptive
solve runs a lane per (path, h_max) of the group. A group holds at
most 2 MiB of prefix arrays (at least one path), a fixed cap of the
library, not an option. After the last group, one batched tamed
reference advances every path of the block together. Pass 2
regenerates each path, keeps its integrals on each matched comparator
mesh, and runs one batched solve per (scheme, matched step). Rows and
lanes never mix inside a batched solve, so results do not depend on the
split into blocks or groups. ``backstop_probability`` runs one task per
group of paths: a lockstep solve with a lane per (path, rho).

``cpu_seconds`` per row is the CPU time (``time.process_time``, taken
in the process that did the work and summed over workers) of that
row's own solves. An adaptive row is charged its lanes' share of each
group's lockstep solve and prefix arrays, split between the lanes in
proportion to the steps they tried (a failed step included). A fixed row is charged its batched
solve plus the extraction of its mesh integrals. Path generation is
charged once, to ``ErrorTable.generation_seconds``, and the reference
to ``ErrorTable.reference_seconds``; neither is in any row.

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

from .adaptive import (
    StrategyConfig,
    fixed_substeps,
    integrate_adaptive_batch,
    integrate_fixed_batch,
    mesh_integrals,
)
from .errors import ExperimentError, UsageError
from .problems import SdeProblem, make_builtin
from .wiener import PathPrefixes, generate_path

__all__ = [
    "DEFAULT_BASE_SEED",
    "CSV_HEADER",
    "BACKSTOP_CSV_HEADER",
    "ExperimentConfig",
    "ErrorRow",
    "ErrorTable",
    "RmsResult",
    "BackstopPoint",
    "StepProfile",
    "BackstopCurve",
    "convergence_table",
    "efficiency_table",
    "rms_error",
    "backstop_probability",
]

DEFAULT_BASE_SEED = 12345
CSV_HEADER = (
    "scheme,h_max,rms_error,rms_std_error,h_mean,cpu_seconds,"
    "backstop_rate,divergent_count"
)
BACKSTOP_CSV_HEADER = "rho,prob,prob_std_error"
PROFILE_CSV_HEADER = "rho,step_index,h_mean,h_var,num_paths"

_KNOWN_SCHEMES = ("adaptive", "milstein", "tamed", "euler")
_RESERVED_SCHEMES = ("pmil", "ssbm")


def _check_scheme_name(name: str) -> None:
    if name in _KNOWN_SCHEMES:
        return
    if name in _RESERVED_SCHEMES:
        raise UsageError(
            f"scheme {name!r} is a reserved comparator name not enabled in this build"
        )
    raise UsageError(f"unknown scheme {name!r}; expected one of {_KNOWN_SCHEMES}")


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
            _check_scheme_name(s)
        if not self.h_max_values:
            raise UsageError("at least one h_max value is required")
        if self.num_paths < 2:
            raise UsageError("num_paths must be at least 2")
        if self.workers < 1:
            raise UsageError("workers must be at least 1")
        if not (1 <= self.reference_exponent < self.fine_exponent <= 30):
            raise UsageError(
                "need 1 <= reference_exponent < fine_exponent <= 30, got "
                f"{self.reference_exponent} and {self.fine_exponent}"
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
    reference (its mesh integrals and batched solve) and the generation
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


def _rms_stats(err_sq: list[float]) -> tuple[float, float, int]:
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


#: Cap on the window integrals one block of paths holds for its batched
#: fixed-step solves; blocks are cut smaller than this.
_BLOCK_BYTES = 32 << 20


def _seed_blocks(seeds, workers: int, windows_per_path: int, m: int) -> list[tuple]:
    """Contiguous blocks of seeds: at least one per worker, and small
    enough that a block's stored integrals stay under _BLOCK_BYTES."""
    per_path = max(1, windows_per_path) * (m + m * m) * 8
    size = max(1, _BLOCK_BYTES // per_path)
    count = max(workers, -(-len(seeds) // size))
    count = min(count, len(seeds))
    bounds = [len(seeds) * b // count for b in range(count + 1)]
    return [tuple(seeds[a:b]) for a, b in zip(bounds, bounds[1:])]


class _Meshes:
    """Stacked fixed-mesh integrals of a block of paths, filled path by path."""

    def __init__(self, paths: int, m: int, n_total: int, substeps: int):
        self.substeps = substeps
        n = n_total // substeps
        self.dW = np.empty((n, paths, m))
        self.I = np.empty((n, paths, m, m))
        self.tail = None
        if n * substeps < n_total:
            self.tail = [0.0, np.empty((paths, m)), np.empty((paths, m, m))]

    def fill(self, p: int, path) -> None:
        h, dw_all, ii_all, tail = mesh_integrals(path, self.substeps)
        self.h = h
        self.dW[:, p] = dw_all
        self.I[:, p] = ii_all
        if tail is not None:
            self.tail[0] = tail.h
            self.tail[1][p] = tail.dW
            self.tail[2][p] = tail.I

    def solve(self, problem: SdeProblem, scheme: str):
        tail = None if self.tail is None else tuple(self.tail)
        return integrate_fixed_batch(problem, scheme, self.h, self.dW, self.I, tail)


def _err_sq(ref_final: np.ndarray, final: np.ndarray) -> float:
    diff = ref_final - final
    return float(diff @ diff)


def _groups(seeds, dim_noise: int, fine_exp: int) -> list[tuple]:
    """Contiguous groups of seeds whose prefix arrays fit the group cap."""
    size = PathPrefixes.group_size(dim_noise, 1 << fine_exp)
    return [tuple(seeds[a : a + size]) for a in range(0, len(seeds), size)]


def _lockstep(problem, group, fine_exp, configs, on_path=None):
    """Generate the paths of a group, keep their prefix arrays, and run
    one adaptive lane per (path, config), path-major; with no configs
    only the paths are generated.

    ``on_path(index, path)`` sees each path before its increments are
    dropped. Returns (solutions per lane, CPU s of generation, CPU s of
    the prefix arrays and the solve).
    """
    clock = time.process_time
    gen_s = solve_s = 0.0
    if configs:
        prefixes = PathPrefixes.empty(
            len(group),
            problem.dim_noise,
            1 << fine_exp,
            problem.horizon * 2.0**-fine_exp,
            problem.horizon,
        )
    for q, seed in enumerate(group):
        t0 = clock()
        path = generate_path(seed, fine_exp, problem.dim_noise, problem.horizon)
        gen_s += clock() - t0
        if on_path is not None:
            on_path(q, path)
        t0 = clock()
        if configs:
            prefixes.fill(q, path.increments)
        solve_s += clock() - t0
        del path  # free it before the next path is generated
    if not configs:
        return [], gen_s, solve_s
    t0 = clock()
    batch = integrate_adaptive_batch(
        problem,
        list(configs) * len(group),
        prefixes,
        np.repeat(np.arange(len(group)), len(configs)),
    )
    solve_s += clock() - t0
    sols = [batch.solution(lane) for lane in range(len(batch.divergent))]
    return sols, gen_s, solve_s


def _adaptive_group(problem, group, fine_exp, configs, on_path):
    """The adaptive solves of a group of paths, summarized.

    Returns (per path, per config: (run, CPU s), where run is (final
    state, mean step, steps, flagged steps), or None if the lane
    diverged; CPU s of generation). Only this summary outlives the
    call, not the trajectories.
    """
    sols, gen_s, solve_s = _lockstep(problem, group, fine_exp, configs, on_path)
    # A lane's share of the solve: the steps it tried, the failed one included.
    tried = [sol.num_steps + sol.divergent for sol in sols]
    total = sum(tried)
    runs = []
    for q in range(len(group)):
        per_config = []
        for lane in range(q * len(configs), (q + 1) * len(configs)):
            sol = sols[lane]
            run_s = solve_s * tried[lane] / total
            if sol.divergent:
                per_config.append((None, run_s))
            else:
                flagged = int(sol.backstop_flags.sum())
                # a copy, since a view would keep the lane's trajectory alive
                run = (sol.final_state.copy(), sol.mean_step, sol.num_steps, flagged)
                per_config.append((run, run_s))
        runs.append(per_config)
    return runs, gen_s


def _block_reference(task):
    """Pass 1 for a contiguous block of seeds: per group of paths,
    generate them, keep their reference-mesh integrals and run one
    lockstep adaptive solve with a lane per (path, h_max); then one
    batched tamed reference for the block.

    Returns (generation CPU s, reference CPU s, reference endpoints
    (P, d), per-path adaptive records). A record per h_max is (err_sq,
    mean step, steps, flagged steps, CPU s); nan err_sq marks a
    divergent run.
    """
    problem, seeds, fine_exp, ref_units, h_values, rho, delta = task
    clock = time.process_time
    gen_s = ref_s = 0.0
    meshes = _Meshes(len(seeds), problem.dim_noise, 1 << fine_exp, ref_units)
    configs = [StrategyConfig(h_max=h, rho=rho, delta=delta) for h in h_values]
    runs = []
    for group in _groups(seeds, problem.dim_noise, fine_exp):
        first = len(runs)

        def keep_mesh(q, path):
            nonlocal ref_s
            t0 = clock()
            meshes.fill(first + q, path)
            ref_s += clock() - t0

        group_runs, group_gen_s = _adaptive_group(
            problem, group, fine_exp, configs, keep_mesh
        )
        runs.extend(group_runs)
        gen_s += group_gen_s
    t0 = clock()
    ref = meshes.solve(problem, "tamed")
    ref_s += clock() - t0
    if ref.divergent.any():
        seed = seeds[int(np.argmax(ref.divergent))]
        raise ExperimentError(f"reference solution diverged for seed {seed}")
    recs = []
    for p, per_h in enumerate(runs):
        rec = []
        for run, run_s in per_h:
            if run is None:
                rec.append((math.nan, math.nan, 0, 0, run_s))
            else:
                final, mean_step, steps, flagged = run
                err = _err_sq(ref.final_states[p], final)
                rec.append((err, mean_step, steps, flagged, run_s))
        recs.append(rec)
    return gen_s, ref_s, ref.final_states, recs


def _block_fixed(task):
    """Pass 2 for a contiguous block of seeds: per path, regenerate it
    (cheaper than shipping it between processes) and keep its integrals
    on each matched mesh; then one batched solve per (scheme, substeps)
    job against the reference endpoints of pass 1.

    Returns (generation CPU s, per-job (err_sq list, CPU s)); the CPU
    time of a job is its batched solve plus the extraction of its mesh
    integrals.
    """
    problem, seeds, fine_exp, jobs, ref_final = task
    clock = time.process_time
    n_total = 1 << fine_exp
    meshes = {
        k: _Meshes(len(seeds), problem.dim_noise, n_total, k)
        for k in dict.fromkeys(k for _, k in jobs)
    }
    mesh_s = dict.fromkeys(meshes, 0.0)
    gen_s = 0.0
    for p, seed in enumerate(seeds):
        t0 = clock()
        path = generate_path(seed, fine_exp, problem.dim_noise, problem.horizon)
        gen_s += clock() - t0
        for k, mesh in meshes.items():
            t0 = clock()
            mesh.fill(p, path)
            mesh_s[k] += clock() - t0
        del path  # free it before the next path is generated
    out = []
    for scheme, k in jobs:
        t0 = clock()
        sol = meshes[k].solve(problem, scheme)
        err = [
            math.nan if sol.divergent[p] else _err_sq(ref_final[p], sol.final_states[p])
            for p in range(len(seeds))
        ]
        out.append((err, mesh_s[k] + clock() - t0))
    return gen_s, out


def _run_reference(problem, seeds, fine_exp, ref_units, h_values, rho, delta, workers):
    """Pass 1 over every seed, in contiguous blocks."""
    blocks = _seed_blocks(
        seeds, workers, (1 << fine_exp) // ref_units, problem.dim_noise
    )
    tasks = [
        (problem, block, fine_exp, ref_units, h_values, rho, delta) for block in blocks
    ]
    return blocks, _map_tasks(_block_reference, tasks, workers)


def _run_fixed(problem, blocks, results, fine_exp, jobs, workers):
    """Pass 2: the (scheme, substeps) jobs over the pass-1 blocks'
    reference endpoints. Returns (generation s, per-job (err_sq over
    all seeds in order, CPU s))."""
    tasks = [
        (problem, block, fine_exp, tuple(jobs), r[2])
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
    gen_total = sum(r[0] for r in results)
    ref_total = sum(r[1] for r in results)
    recs = [rec for r in results for rec in r[3]]
    rows: list[ErrorRow] = []
    adaptive_rows: dict[float, ErrorRow] = {}
    matched_step: dict[float, float] = {}
    h_ref = problem.horizon * 2.0 ** -fine_exp
    for j, h_max in enumerate(config.h_max_values):
        err_sq = [r[j][0] for r in recs]
        rms, se, bad = _rms_stats(err_sq)
        means = [r[j][1] for r in recs if not math.isnan(r[j][1])]
        h_mean = float(np.mean(means)) if means else math.nan
        steps = sum(r[j][2] for r in recs)
        flagged = sum(r[j][3] for r in recs)
        adaptive_rows[h_max] = ErrorRow(
            scheme="adaptive",
            h_max=h_max,
            rms_error=rms,
            rms_std_error=se,
            h_mean=h_mean,
            cpu_seconds=sum(r[j][4] for r in recs),
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


def efficiency_table(config: ExperimentConfig) -> ErrorTable:
    """Same computation as :func:`convergence_table`; read the result
    through :meth:`ErrorTable.frontier` as (rms, cpu) pairs.
    """
    return convergence_table(config)


@dataclass(frozen=True)
class RmsResult:
    rms_error: float
    rms_std_error: float
    h_mean: float
    backstop_rate: float
    divergent_count: int
    cpu_seconds: float


def rms_error(
    problem: SdeProblem | str,
    scheme: str,
    *,
    h_max: float,
    rho: float,
    num_paths: int,
    reference_exponent: int = 16,
    fine_exponent: int = 20,
    base_seed: int = DEFAULT_BASE_SEED,
    delta: float | None = None,
    fixed_step: float | None = None,
    workers: int = 1,
) -> RmsResult:
    """Strong error of one scheme at one resolution.

    For "adaptive" the controller uses (h_max, rho, delta). For a fixed
    scheme the step is ``fixed_step`` if given, else h_max itself (no
    mean-step matching here; use :func:`convergence_table` for matched
    comparisons).
    """
    config = ExperimentConfig(
        problem=problem,
        h_max_values=(h_max,),
        rho=rho,
        schemes=("adaptive",),
        num_paths=num_paths,
        reference_exponent=reference_exponent,
        fine_exponent=fine_exponent,
        base_seed=base_seed,
        delta=delta,
        workers=workers,
    )
    prob = config.problem
    if scheme == "adaptive":
        table = convergence_table(config)
        r = table.rows[0]
        return RmsResult(
            rms_error=r.rms_error,
            rms_std_error=r.rms_std_error,
            h_mean=r.h_mean,
            backstop_rate=r.backstop_rate,
            divergent_count=r.divergent_count,
            cpu_seconds=r.cpu_seconds,
        )
    _check_scheme_name(scheme)
    fine_exp = config.fine_exponent
    n_total = 1 << fine_exp
    h_ref = prob.horizon * 2.0**-fine_exp
    k = fixed_substeps(h_max if fixed_step is None else fixed_step, h_ref, n_total)
    blocks, results = _run_reference(
        prob,
        config.seeds,
        fine_exp,
        1 << (fine_exp - config.reference_exponent),
        (),
        rho,
        delta,
        config.workers,
    )
    _, [(err_sq, cpu)] = _run_fixed(
        prob, blocks, results, fine_exp, [(scheme, k)], config.workers
    )
    rms, se, bad = _rms_stats(err_sq)
    # Every path that completes takes the same mesh.
    positions = np.minimum(np.arange(-(-n_total // k) + 1) * k, n_total)
    mean_step = float(np.diff(positions * h_ref).mean())
    return RmsResult(
        rms_error=rms,
        rms_std_error=se,
        h_mean=mean_step if bad < len(err_sq) else math.nan,
        backstop_rate=0.0,
        divergent_count=bad,
        cpu_seconds=cpu,
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


def _backstop_group(task):
    """One lockstep solve over a group of seeds, a lane per (seed, rho).
    Returns per seed, per rho: (backstop engaged, step sizes)."""
    problem, group, fine_exp, h_max, rhos, delta = task
    configs = [StrategyConfig(h_max=h_max, rho=rho, delta=delta) for rho in rhos]
    sols, _, _ = _lockstep(problem, group, fine_exp, configs)
    out = []
    for q, seed in enumerate(group):
        per_rho = []
        for rho, sol in zip(rhos, sols[q * len(rhos) : (q + 1) * len(rhos)]):
            if sol.divergent:
                raise ExperimentError(
                    f"adaptive run diverged for seed {seed} at rho {rho:g}"
                )
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
        (problem, group, fine_exponent, h_max, rhos, delta)
        for group in _groups(seeds, problem.dim_noise, fine_exponent)
    ]
    results = [r for out in _map_tasks(_backstop_group, tasks, workers) for r in out]

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
