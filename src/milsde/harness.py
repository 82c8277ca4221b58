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
when ``workers > 1``. Pass 1 generates the block's paths together, in
slabs of consecutive fine steps drawn from each path's open stream
(:class:`~milsde.wiener.PathStreams`); slabs end on reference-window
boundaries. Each slab's reference-mesh integrals are kept, and its
prefix arrays join a sliding window
(:class:`~milsde.wiener.PathPrefixes`) that feeds one lockstep adaptive
solve with a lane per (path, h_max) of the block. A lane whose next
window ends beyond the slabs drawn so far waits; when every lane waits,
the next slab is drawn and the nodes behind the slowest lane are
dropped. The window and one slab's increments stay within a fixed
2 MiB cap of the library (not an option), and a block is cut small
enough that its slabs are at least half as wide as the widest lane's
h_max. Only a single path whose widest window alone exceeds the cap
holds more: that window plus one reference window. A whole path is
held only where it fits the cap. Slabs left once every lane is done
are drawn for the reference alone. After the solve, one batched tamed
reference advances every path of the block together. Pass 2
regenerates each path, keeps its integrals on each matched comparator
mesh, and runs one batched solve per (scheme, matched step).
Rows and lanes never mix inside a batched solve, so results do not
depend on the split into blocks or slabs. ``backstop_probability`` runs
one task per block of paths: a streamed lockstep solve with a lane per
(path, rho).

``cpu_seconds`` per row is the CPU time (``time.process_time``, taken
in the process that did the work and summed over workers) of that
row's own solves. An adaptive row is charged its lanes' share of each
block's lockstep solve and prefix arrays, split between the lanes in
proportion to the steps they tried (a failed step included). A fixed
row is charged its batched solve plus the extraction of its mesh
integrals. Path generation (the slab draws of pass 1 and the whole
paths of pass 2) is charged once, to ``ErrorTable.generation_seconds``,
and the reference (its mesh integrals and solve) to
``ErrorTable.reference_seconds``; neither is in any row.

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

from .adaptive import (
    StrategyConfig,
    fixed_substeps,
    integrate_adaptive_batch,
    integrate_fixed_batch,
    mesh_integrals,
)
from .errors import ExperimentError, UsageError
from .problems import SdeProblem, make_builtin
from .wiener import PathPrefixes, PathStreams, _uniform_windows, generate_path

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


#: Cap on the window integrals one block of paths holds for its batched
#: fixed-step solves; blocks are cut smaller than this.
_BLOCK_BYTES = 32 << 20


def _seed_blocks(seeds, workers: int, size: int) -> list[tuple]:
    """Contiguous blocks of seeds: at least one per worker, and at most
    ``size`` seeds each."""
    count = min(len(seeds), max(workers, -(-len(seeds) // max(1, size))))
    bounds = [len(seeds) * b // count for b in range(count + 1)]
    return [tuple(seeds[a:b]) for a, b in zip(bounds, bounds[1:])]


def _widest(problem: SdeProblem, fine_exp: int, h_max: float) -> int:
    """Fine steps of the widest window a lane with ``h_max`` can take."""
    return math.ceil(h_max / (problem.horizon * 2.0**-fine_exp))


class _Meshes:
    """Stacked fixed-mesh integrals of a block of paths, filled path by
    path (:meth:`fill`) or slab by slab (:meth:`fill_slabs`)."""

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

    def fill_slabs(self, first: int, slabs: np.ndarray, resolution: float) -> None:
        """The windows from window ``first`` on, of every path, from
        (P, m, s) increments that start on window ``first``; s must be a
        whole number of windows, and the mesh must have no tail."""
        count, self.h, dw_all, ii_all = _uniform_windows(slabs, resolution, self.substeps)
        self.dW[first : first + count] = dw_all
        self.I[first : first + count] = ii_all

    def solve(self, problem: SdeProblem, scheme: str):
        tail = None if self.tail is None else tuple(self.tail)
        return integrate_fixed_batch(problem, scheme, self.h, self.dW, self.I, tail)


def _err_sq(ref_final: np.ndarray, final: np.ndarray) -> float:
    diff = ref_final - final
    return float(diff @ diff)


def _lockstep(problem, count, fine_exp, configs, draw, unit):
    """One lockstep adaptive solve over a block of ``count`` paths, a
    lane per (path, config), path-major. The paths are streamed in
    slabs of whole multiples of ``unit`` fine steps: ``draw(steps)``
    returns the next increments of every path, (count, m, steps), and
    the block's prefix arrays keep a sliding window of them (see
    :meth:`PathPrefixes.streamed`)."""
    prefixes = PathPrefixes.streamed(
        count,
        problem.dim_noise,
        1 << fine_exp,
        problem.horizon * 2.0**-fine_exp,
        problem.horizon,
        draw,
        widest=_widest(problem, fine_exp, max(c.h_max for c in configs)),
        unit=unit,
    )
    rows = np.repeat(np.arange(count), len(configs))
    return integrate_adaptive_batch(problem, list(configs) * count, prefixes, rows)


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
    streams. Each slab's reference-mesh integrals are kept, and its
    prefix arrays feed one lockstep adaptive solve with a lane per
    (path, h_max); the slabs left once every lane is done are drawn for
    the reference alone. Then one batched tamed reference runs over the
    block. Slab draws are charged to generation, the reference-mesh
    integrals to the reference, and the rest of the lockstep to the
    lanes, split by the steps each lane tried (a failed step included).
    """
    problem, seeds, fine_exp, ref_units, h_values, rho, delta = task
    clock = time.process_time
    n = 1 << fine_exp
    h_ref = problem.horizon * 2.0**-fine_exp
    streams = PathStreams(seeds, fine_exp, problem.dim_noise, problem.horizon)
    meshes = _Meshes(len(seeds), problem.dim_noise, n, ref_units)
    spent = [0.0, 0.0]  # CPU s of slab draws and of reference-mesh integrals

    def draw(steps):
        t0 = clock()
        first = streams.drawn // ref_units
        slabs = streams.draw(steps)
        t1 = clock()
        meshes.fill_slabs(first, slabs, h_ref)
        spent[0] += t1 - t0
        spent[1] += clock() - t1
        return slabs

    configs = [StrategyConfig(h_max=h, rho=rho, delta=delta) for h in h_values]
    batch = None
    if configs:
        t0 = clock()
        batch = _lockstep(problem, len(seeds), fine_exp, configs, draw, ref_units)
        solve_s = clock() - t0 - sum(spent)
    slab = PathPrefixes.slab_steps(len(seeds), problem.dim_noise, n, 0, ref_units)
    while streams.drawn < n:
        draw(min(slab, n - streams.drawn))
    t0 = clock()
    ref = meshes.solve(problem, "tamed")
    ref_s = spent[1] + clock() - t0
    if ref.divergent.any():
        seed = seeds[int(np.argmax(ref.divergent))]
        raise ExperimentError(f"reference solution diverged for seed {seed}")
    shape = (len(seeds), len(configs))
    err_sq, mean_step = np.full(shape, math.nan), np.full(shape, math.nan)
    steps, flagged = np.zeros(shape, dtype=np.int64), np.zeros(shape, dtype=np.int64)
    cpu_s = np.zeros(shape)
    if batch is not None:
        # A lane's share of the solve: the steps it tried, the failed one included.
        tried = (batch.num_steps + batch.divergent).reshape(shape)
        cpu_s = solve_s * tried / tried.sum()
        for lane in range(len(batch.divergent)):
            sol = batch.solution(lane)
            p, j = divmod(lane, len(configs))
            if not sol.divergent:
                err_sq[p, j] = _err_sq(ref.final_states[p], sol.final_state)
                mean_step[p, j] = sol.mean_step
                steps[p, j] = sol.num_steps
                flagged[p, j] = sol.backstop_flags.sum()
    runs = _AdaptiveRuns(err_sq, mean_step, steps, flagged, cpu_s)
    return _Pass1(spent[0], ref_s, ref.final_states, runs)


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
    """Pass 1 over every seed, in contiguous blocks: each block's
    reference-mesh integrals fit _BLOCK_BYTES, and its streamed window
    fits the prefix cap with slabs at least half as wide as the widest
    lane's window."""
    m = problem.dim_noise
    size = _BLOCK_BYTES // (((1 << fine_exp) // ref_units) * (m + m * m) * 8)
    if h_values:
        widest = _widest(problem, fine_exp, max(h_values))
        size = min(size, PathPrefixes.stream_size(m, widest))
    blocks = _seed_blocks(seeds, workers, size)
    tasks = [
        (problem, block, fine_exp, ref_units, h_values, rho, delta) for block in blocks
    ]
    return blocks, _map_tasks(_block_reference, tasks, workers)


def _run_fixed(problem, blocks, results, fine_exp, jobs, workers):
    """Pass 2: the (scheme, substeps) jobs over the pass-1 blocks'
    reference endpoints. Returns (generation s, per-job (err_sq over
    all seeds in order, CPU s))."""
    tasks = [
        (problem, block, fine_exp, tuple(jobs), r.ref_final)
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


def _backstop_block(task):
    """One lockstep solve over a block of seeds, a lane per (seed, rho).
    Returns per seed, per rho: (backstop engaged, step sizes)."""
    problem, block, fine_exp, h_max, rhos, delta = task
    configs = [StrategyConfig(h_max=h_max, rho=rho, delta=delta) for rho in rhos]
    streams = PathStreams(block, fine_exp, problem.dim_noise, problem.horizon)
    batch = _lockstep(problem, len(block), fine_exp, configs, streams.draw, 1)
    out = []
    for q, seed in enumerate(block):
        per_rho = []
        for j, rho in enumerate(rhos):
            sol = batch.solution(q * len(rhos) + j)
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
