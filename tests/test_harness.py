import dataclasses
import gc
import io
import math
import time
import warnings
import weakref

import numpy as np
import pytest

import milsde.harness
import milsde.wiener
from milsde import (
    BACKSTOP_CSV_HEADER,
    CSV_HEADER,
    DEFAULT_BASE_SEED,
    ErrorRow,
    ErrorTable,
    ExperimentConfig,
    ExperimentError,
    SdeProblem,
    UsageError,
    backstop_probability,
    convergence_table,
    make_builtin,
)

SMALL = dict(num_paths=6, reference_exponent=8, fine_exponent=12)


# ---------------------------------------------------------------------------
# Configuration validation
# ---------------------------------------------------------------------------


def test_config_resolves_builtin_names_and_seeds():
    cfg = ExperimentConfig(
        problem="scalar_mult", h_max_values=(2.0**-4,), rho=8.0, **SMALL
    )
    assert cfg.problem.name == "scalar_mult"
    assert cfg.reference_step == 2.0**-8
    assert cfg.seeds == tuple(DEFAULT_BASE_SEED ^ k for k in range(6))


def test_config_validation():
    ok = dict(problem="scalar_mult", h_max_values=(2.0**-4,), rho=8.0)
    cases = [
        (dict(schemes=()), "scheme"),
        (dict(schemes=("pmil",)), "reserved"),
        (dict(schemes=("ssbm",)), "reserved"),
        (dict(schemes=("heun",)), "unknown scheme"),
        (dict(h_max_values=()), "h_max"),
        (dict(h_max_values=(0.3,)), "multiple"),
        (dict(h_max_values=(2.0,)), r"\(0, horizon\]"),
        (dict(num_paths=1), "num_paths"),
        (dict(workers=0), "workers"),
        (dict(rho=1.0), "rho"),
        (dict(rho=2.0**10), "floor"),
        (dict(delta=1.0), "delta"),
        (dict(reference_exponent=10), "at least 4"),
        (dict(reference_exponent=0), "reference_exponent"),
        (dict(fine_exponent=31), "reference_exponent"),
        (dict(h_max_values=(2.0**-4, 2.0**-4)), "repeat"),
        (dict(schemes=("euler", "adaptive", "euler")), "repeat"),
    ]
    for overrides, match in cases:
        with pytest.raises(UsageError, match=match):
            ExperimentConfig(**{**ok, **SMALL, **overrides})


def test_rms_error_rejects_bad_scheme_names():
    # A reserved or unknown name among the measured schemes is refused
    # before any path is drawn, also beside a valid scheme and when a
    # valid config is rebuilt with it.
    common = dict(
        problem="scalar_mult", h_max_values=(2.0**-4,), rho=8.0, **SMALL
    )
    good = ExperimentConfig(**common)
    for bad, match in (("ssbm", "reserved"), ("pmil", "reserved"),
                       ("heun", "unknown scheme")):
        with pytest.raises(UsageError, match=match):
            convergence_table(ExperimentConfig(**common, schemes=("adaptive", bad)))
        with pytest.raises(UsageError, match=match):
            dataclasses.replace(good, schemes=(bad,))


def test_a_table_refuses_a_label_its_problem_contradicts():
    problem = dataclasses.replace(make_builtin("scalar_mult"), structure="additive")
    config = ExperimentConfig(problem=problem, h_max_values=(2.0**-4,), rho=8.0, **SMALL)
    with pytest.raises(UsageError, match="labelled 'additive'"):
        convergence_table(config)


# ---------------------------------------------------------------------------
# Strong-error measurement
# ---------------------------------------------------------------------------


def test_coupled_reference_gives_exactly_zero_error():
    # From 0.5 the adaptive steps never leave h_max, so the tamed row runs
    # at the reference step: that run IS the reference run, and the
    # coupled difference must be identically zero, not just small.
    problem = dataclasses.replace(
        make_builtin("scalar_mult"), initial_state=np.array([0.5])
    )
    cfg = ExperimentConfig(
        problem=problem,
        h_max_values=(2.0**-6,),
        rho=16.0,
        schemes=("adaptive", "tamed"),
        num_paths=4,
        reference_exponent=6,
        fine_exponent=10,
    )
    (r,) = convergence_table(cfg).rows_for("tamed")
    assert r.h_max == 2.0**-6 == cfg.reference_step
    assert r.rms_error == 0.0
    assert r.rms_std_error == 0.0
    assert r.divergent_count == 0


def test_error_halves_per_octave():
    # First-order scheme: rms at h and h/2 should sit near ratio 2.
    cfg = ExperimentConfig(
        problem="scalar_mult",
        h_max_values=(2.0**-5, 2.0**-6),
        rho=16.0,
        schemes=("adaptive",),
        num_paths=40,
        reference_exponent=12,
        fine_exponent=16,
    )
    table = convergence_table(cfg)
    coarse, fine = table.rows
    assert coarse.h_max == 2.0**-5 and fine.h_max == 2.0**-6
    ratio = coarse.rms_error / fine.rms_error
    assert 1.48 <= ratio <= 2.7, f"octave ratio {ratio:.3f}"
    slope = table.slopes()["adaptive"]
    assert 0.85 <= slope <= 1.15
    assert table.reference_seconds > 0.0


def test_standard_error_shrinks_with_path_count():
    def row(num_paths):
        cfg = ExperimentConfig(
            problem="scalar_add",
            h_max_values=(2.0**-5,),
            rho=16.0,
            num_paths=num_paths,
            reference_exponent=10,
            fine_exponent=14,
        )
        return convergence_table(cfg).rows[0]

    small, large = row(60), row(240)
    ratio = small.rms_std_error / large.rms_std_error
    # 4x the paths halves the standard error, up to Monte Carlo noise
    assert 1.4 <= ratio <= 2.86, f"se ratio {ratio:.3f}"
    assert abs(small.rms_error - large.rms_error) <= 4.0 * (
        small.rms_std_error + large.rms_std_error
    )


# ---------------------------------------------------------------------------
# Table layout, matched comparator steps, CSV
# ---------------------------------------------------------------------------


def _structure_config(**overrides):
    base = dict(
        problem="scalar_mult",
        h_max_values=(2.0**-4, 2.0**-5),
        rho=8.0,
        schemes=("adaptive", "euler", "tamed"),
        **SMALL,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_table_layout_and_matched_steps():
    table = convergence_table(_structure_config())
    rows = table.rows
    assert [r.scheme for r in rows] == ["adaptive"] * 2 + ["euler"] * 2 + ["tamed"] * 2
    h_ref = 2.0**-12
    for k, h in enumerate((2.0**-4, 2.0**-5)):
        adaptive = rows[k]
        assert adaptive.h_max == h
        assert 0.0 < adaptive.h_mean <= h
        assert 0.0 <= adaptive.backstop_rate <= 1.0
        matched = max(1, round(adaptive.h_mean / h_ref)) * h_ref
        for fixed in (rows[2 + k], rows[4 + k]):
            # comparator runs at the adaptive mean step, recorded in
            # both step columns
            assert fixed.h_max == matched
            assert fixed.h_mean == matched
            assert fixed.backstop_rate == 0.0
            units = fixed.h_max / h_ref
            assert units == round(units)
        assert rows[2 + k].rms_error != rows[4 + k].rms_error
    assert all(r.divergent_count == 0 for r in rows)
    assert all(r.cpu_seconds > 0.0 for r in rows)


def test_a_step_matched_by_two_h_max_values_runs_once(monkeypatch):
    # Here h_max 2^-4 and 2^-3 both match euler to 202 fine steps; the
    # job was queued twice and the first run's CPU was charged nowhere.
    # Each window is kept, so no two blocks' windows share an id.
    built = []
    solves = milsde.harness.FixedSolves

    def recording(problem, scheme, k, window, *args):
        built.append((window, (scheme, k)))
        return solves(problem, scheme, k, window, *args)

    monkeypatch.setattr(milsde.harness, "FixedSolves", recording)
    config = ExperimentConfig(
        problem="scalar_mult",
        h_max_values=(2.0**-4, 2.0**-3),
        rho=64.0,
        delta=2.0**-6,
        schemes=("adaptive", "euler"),
        num_paths=6,
        reference_exponent=8,
        fine_exponent=14,
    )
    euler = convergence_table(config).rows_for("euler")
    assert ("euler", 202) in {job for _, job in built}
    pairs = [(id(window), job) for window, job in built]
    assert len(set(pairs)) == len(pairs), pairs
    assert euler[0] == euler[1] and euler[0].h_max == 202 * 2.0**-14


def test_table_csv_round_trip():
    table = convergence_table(_structure_config())
    buf = io.StringIO()
    table.to_csv(buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert (
        CSV_HEADER == "scheme,h_max,rms_error,rms_std_error,h_mean,"
        "cpu_seconds,backstop_rate,divergent_count"
    )
    assert len(lines) == 1 + len(table.rows)
    for line, row in zip(lines[1:], table.rows):
        toks = line.split(",")
        assert len(toks) == 8
        assert toks[0] == row.scheme
        assert float(toks[1]) == row.h_max
        assert float(toks[2]) == row.rms_error
        assert float(toks[3]) == row.rms_std_error
        assert float(toks[4]) == row.h_mean
        assert float(toks[6]) == row.backstop_rate
        assert int(toks[7]) == row.divergent_count


def test_table_is_deterministic_apart_from_timings():
    a = convergence_table(_structure_config())
    b = convergence_table(_structure_config())
    for ra, rb in zip(a.rows, b.rows):
        assert ra.scheme == rb.scheme
        assert ra.h_max == rb.h_max
        assert ra.rms_error == rb.rms_error
        assert ra.rms_std_error == rb.rms_std_error
        assert ra.h_mean == rb.h_mean
        assert ra.backstop_rate == rb.backstop_rate
        assert ra.divergent_count == rb.divergent_count


def test_worker_pool_matches_serial():
    serial = convergence_table(_structure_config(workers=1))
    pooled = convergence_table(_structure_config(workers=2))
    for ra, rb in zip(serial.rows, pooled.rows):
        assert ra.scheme == rb.scheme
        assert ra.rms_error == rb.rms_error
        assert ra.rms_std_error == rb.rms_std_error
        assert ra.h_mean == rb.h_mean
        assert ra.backstop_rate == rb.backstop_rate
        assert ra.divergent_count == rb.divergent_count


def test_worker_pool_is_no_larger_than_its_tasks(monkeypatch):
    # A forked pool starts every worker at its first submit, so a pool of
    # 4,096 for two blocks would fork 4,096 processes. The stand-in pool
    # records its size and runs the tasks in this process.
    sizes = []

    class Pool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    serial = convergence_table(_structure_config(num_paths=2))
    monkeypatch.setattr(milsde.harness, "ProcessPoolExecutor", Pool)
    pooled = convergence_table(_structure_config(num_paths=2, workers=4096))
    backstop_probability(
        "scalar_probe", (2.0, 4.0), h_max=2.0**-6, num_paths=3, fine_exponent=10, workers=4096
    )
    assert sizes == [2, 2, 3]
    for ra, rb in zip(serial.rows, pooled.rows):
        assert dataclasses.replace(ra, cpu_seconds=0.0) == dataclasses.replace(
            rb, cpu_seconds=0.0
        )


def test_criterion_1_runs_one_block_per_worker(monkeypatch):
    # 25 of criterion 1's paths fit the 2 MiB cap with slabs of half its
    # widest window (2^12 fine steps), so the cap grows with the block
    # and each worker gets one block, not four blocks of 25. The blocks
    # are read from the first pass's tasks; no path is solved.
    cut = []

    class Cut(Exception):
        pass

    def tasks(fn, blocks, workers):
        cut.append([len(task[1]) for task in blocks])
        raise Cut

    monkeypatch.setattr(milsde.harness, "_map_tasks", tasks)
    for workers in (1, 2):
        config = ExperimentConfig(
            problem="scalar_mult",
            h_max_values=tuple(2.0**-k for k in range(12, 7, -1)),
            rho=16.0,
            schemes=("adaptive", "euler"),
            num_paths=100,
            workers=workers,
        )
        with pytest.raises(Cut):
            convergence_table(config)
    assert cut == [[100], [50, 50]]
    assert milsde.wiener.PathPrefixes.stream_size(1, 1 << 12) is None
    assert milsde.wiener.PathPrefixes.slab_steps(100, 1, 1 << 20, 1 << 12, 16) == (
        milsde.wiener.PathPrefixes.slab_steps(25, 1, 1 << 20, 1 << 12, 16)
    )


def test_block_split_does_not_change_results(monkeypatch):
    # Paths are solved in contiguous blocks; one path per block must
    # give the same table as one block for all paths.
    whole = convergence_table(_structure_config())
    monkeypatch.setattr(
        milsde.wiener.PathPrefixes, "stream_size", staticmethod(lambda dim_noise, widest: 1)
    )
    split = convergence_table(_structure_config())
    for ra, rb in zip(whole.rows, split.rows):
        assert dataclasses.replace(ra, cpu_seconds=0.0) == dataclasses.replace(
            rb, cpu_seconds=0.0
        )


def test_comparator_windows_across_slabs_do_not_change_results(monkeypatch):
    # A cap of 1,000 bytes cuts pass 2 into slabs of one reference
    # window, 16 fine steps, so comparator windows straddle slabs, some
    # span three or more, and matched steps that do not divide 2^12 end
    # on a shorter last window. The rows must not change, on one worker
    # or two.
    configs = [
        _structure_config(problem=problem, workers=workers)
        for problem in ("scalar_mult", "twod_noncommutative")
        for workers in (1, 2)
    ]
    wholes = [convergence_table(config) for config in configs]
    slab_ends = []
    advance = milsde.adaptive.FixedSolves.advance

    def spy(self):
        advance(self)
        slab_ends.append(((self.k,), self.prefixes.frontier))

    monkeypatch.setattr(milsde.adaptive.FixedSolves, "advance", spy)
    monkeypatch.setattr(milsde.wiener, "_GROUP_BYTES", 1000)
    for config, whole in zip(configs, wholes):
        split = convergence_table(config)
        for ra, rb in zip(whole.rows, split.rows):
            assert dataclasses.replace(ra, cpu_seconds=0.0) == dataclasses.replace(
                rb, cpu_seconds=0.0
            )
        units = [round(r.h_max * 2**12) for r in split.rows if r.scheme != "adaptive"]
        assert any((1 << 12) % k for k in units)
        assert max(units) > 2 * 16
    comparators = [(ks, end) for ks, end in slab_ends if ks != (16,)]
    assert any(end % k for ks, end in comparators for k in ks if end < 1 << 12)
    assert {end for _, end in comparators if end < 1 << 12} >= {16, 32, 48}


def test_blocks_free_their_windows_without_the_cyclic_collector(monkeypatch):
    # A window caught in a reference cycle would keep its prefix arrays
    # alive until the cyclic collector runs, raising the peak memory of
    # every block. With the collector off, every window a table or a
    # backstop curve streams through is gone once it returns.
    made = []
    streamed = milsde.wiener.PathPrefixes.streamed.__func__

    def spy(cls, *args, **kwargs):
        window = streamed(cls, *args, **kwargs)
        made.append(weakref.ref(window))
        return window

    monkeypatch.setattr(milsde.wiener.PathPrefixes, "streamed", classmethod(spy))
    gc.collect()
    gc.disable()
    try:
        convergence_table(_structure_config(problem="twod_noncommutative"))
        backstop_probability(
            "scalar_probe", (2.0, 4.0), h_max=2.0**-6, num_paths=4, fine_exponent=10
        )
        windows = {id(w()) for w in made if w() is not None}
        left = [o for o in gc.get_objects() if id(o) in windows]
    finally:
        gc.enable()
    assert len(made) >= 3
    assert not left


def _curve_text(curve) -> str:
    buf = io.StringIO()
    curve.to_csv(buf)
    curve.profiles_to_csv(buf)
    return buf.getvalue()


def test_group_size_does_not_change_results(monkeypatch):
    # Adaptive lanes run in groups of paths under a byte cap; one path
    # per group must give the same tables and curves as the default cap.
    config = _structure_config(problem="twod_noncommutative")
    whole = convergence_table(config)
    curve = _curve_text(
        backstop_probability(
            "scalar_probe", (2.0, 3.0, 6.0), h_max=2.0**-8, num_paths=6, fine_exponent=12
        )
    )
    monkeypatch.setattr(milsde.wiener, "_GROUP_BYTES", 1)
    split = convergence_table(config)
    for ra, rb in zip(whole.rows, split.rows):
        assert dataclasses.replace(ra, cpu_seconds=0.0) == dataclasses.replace(
            rb, cpu_seconds=0.0
        )
    assert (
        _curve_text(
            backstop_probability(
                "scalar_probe", (2.0, 3.0, 6.0), h_max=2.0**-8, num_paths=6, fine_exponent=12
            )
        )
        == curve
    )


def test_backstop_curve_worker_pool_matches_serial():
    kwargs = dict(h_max=2.0**-8, num_paths=12, fine_exponent=12)
    serial = backstop_probability("scalar_probe", (2.0, 4.0, 6.0), **kwargs)
    pooled = backstop_probability("scalar_probe", (2.0, 4.0, 6.0), workers=2, **kwargs)
    assert _curve_text(serial) == _curve_text(pooled)


def test_shared_costs_are_charged_once():
    # Path generation and the reference run once per table and are
    # reported beside the rows, not inside them. On one worker every
    # charge is positive and all of them together stay within the CPU
    # time the table took, also where two comparator schemes share a
    # matched step and split the reads of its windows.
    for problem in ("scalar_mult", "twod_noncommutative"):
        t0 = time.process_time()
        table = convergence_table(_structure_config(problem=problem))
        spent = time.process_time() - t0
        shared = {r.h_max for r in table.rows_for("euler")}
        assert shared & {r.h_max for r in table.rows_for("tamed")}
        assert table.generation_seconds > 0.0
        assert table.reference_seconds > 0.0
        assert all(r.cpu_seconds > 0.0 for r in table.rows)
        rows = sum(r.cpu_seconds for r in table.rows)
        assert table.generation_seconds + table.reference_seconds + rows <= spent


def test_efficiency_view():
    table = convergence_table(_structure_config())
    pts = table.frontier()
    assert len(pts) == len(table.rows)
    for (scheme, rms, cpu), row in zip(pts, table.rows):
        assert scheme == row.scheme
        assert rms == row.rms_error
        assert cpu == row.cpu_seconds


def test_slopes_need_two_usable_rows():
    row = ErrorRow(
        scheme="adaptive",
        h_max=2.0**-4,
        rms_error=1e-3,
        rms_std_error=1e-4,
        h_mean=2.0**-4,
        cpu_seconds=0.1,
        backstop_rate=0.0,
        divergent_count=0,
    )
    nan_row = dataclasses.replace(row, h_max=2.0**-5, rms_error=math.nan)
    table = ErrorTable(rows=(row, nan_row))
    assert math.isnan(table.slopes()["adaptive"])


def test_slopes_count_rows_that_share_an_h_max_once():
    # Both h_max values match one comparator count, so each fixed scheme
    # prints one row under both. A line through points of equal h_max is
    # no slope: it is nan, and numpy's RankWarning no longer leaks.
    config = ExperimentConfig(
        problem="scalar_mult",
        h_max_values=(2.0**-4, 2.0**-3),
        rho=64.0,
        delta=2.0**-6,
        schemes=("adaptive", "euler", "tamed"),
        num_paths=6,
        reference_exponent=8,
        fine_exponent=14,
    )
    table = convergence_table(config)
    for scheme in ("euler", "tamed"):
        first, second = table.rows_for(scheme)
        assert first == second
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        slopes = table.slopes()
    assert math.isnan(slopes["euler"]) and math.isnan(slopes["tamed"])
    assert math.isfinite(slopes["adaptive"])


# ---------------------------------------------------------------------------
# Divergence accounting
# ---------------------------------------------------------------------------


def test_divergent_paths_are_counted_not_averaged():
    problem = dataclasses.replace(
        make_builtin("scalar_mult"), initial_state=np.array([8.0])
    )
    cfg = ExperimentConfig(
        problem=problem,
        h_max_values=(0.125,),
        rho=16.0,
        schemes=("adaptive", "milstein"),
        **SMALL,
    )
    (r,) = convergence_table(cfg).rows_for("milstein")
    assert r.divergent_count == 6
    assert math.isnan(r.rms_error)


def test_a_comparator_step_cannot_be_matched_where_every_lane_diverged():
    # Zero noise makes every path the same. The coarsest lane overshoots
    # into the region where the drift is NaN; the tamed reference and the
    # finer lane decay to 1. A comparator at that h_max has no mean step.
    problem = SdeProblem(
        dim_state=1,
        dim_noise=1,
        drift=lambda x: np.where(x > 1.25, np.nan, -40.0 * (x - 1.0)),
        diffusion_column=lambda x, i: np.zeros(1),
        diffusion_jacobian=lambda x, i: np.zeros((1, 1)),
        structure="additive",
        initial_state=np.array([1.2]),
        horizon=1.0,
    )
    config = dict(problem=problem, h_max_values=(2.0**-8, 2.0**-2), rho=4.0, num_paths=3)
    config.update(reference_exponent=8, fine_exponent=12)
    with pytest.raises(ExperimentError, match=r"diverged at h_max 0\.25$"):
        convergence_table(ExperimentConfig(schemes=("adaptive", "euler"), **config))
    fine, coarse = convergence_table(ExperimentConfig(schemes=("adaptive",), **config)).rows
    assert fine.divergent_count == 0 and not math.isnan(fine.rms_error)
    assert coarse.h_max == 0.25 and coarse.divergent_count == 3
    assert math.isnan(coarse.rms_error) and math.isnan(coarse.h_mean)


# ---------------------------------------------------------------------------
# Backstop probability curve
# ---------------------------------------------------------------------------


def test_backstop_curve():
    curve = backstop_probability(
        "scalar_mult", (2.0, 4.0, 6.0), h_max=2.0**-8, num_paths=40, fine_exponent=14
    )
    by_rho = {p.rho: p for p in curve.points}
    # ||X0|| = 2 proposes exactly the floor at rho = 2, so every path
    # pins immediately; larger rho needs excursions that never happen.
    assert by_rho[2.0].prob == 1.0
    assert by_rho[2.0].prob_std_error == 0.0
    assert by_rho[6.0].prob == 0.0
    probs = [p.prob for p in curve.points]
    assert probs == sorted(probs, reverse=True)
    assert curve.h_max == 2.0**-8

    prof = {p.rho: p for p in curve.profiles}[4.0]
    # first step is state-determined, identical over paths
    assert prof.h_mean[0] == 2.0**-9
    assert prof.h_var[0] == 0.0
    assert prof.num_paths[0] == 40
    assert prof.num_paths[-1] >= 1
    assert len(prof.h_mean) == len(prof.h_var) == len(prof.num_paths)


def test_backstop_curve_csv():
    curve = backstop_probability(
        "scalar_mult", (2.0, 4.0), h_max=2.0**-8, num_paths=10, fine_exponent=14
    )
    buf = io.StringIO()
    curve.to_csv(buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == BACKSTOP_CSV_HEADER == "rho,prob,prob_std_error"
    assert len(lines) == 3
    rho, prob, se = lines[1].split(",")
    assert float(rho) == 2.0 and float(prob) == 1.0 and float(se) == 0.0
    buf2 = io.StringIO()
    curve.profiles_to_csv(buf2)
    assert buf2.getvalue().startswith("rho,step_index,h_mean,h_var,num_paths\n")


def test_backstop_curve_refuses_fewer_than_one_worker():
    # The curve used to run serially on 0 or -3 workers; it refuses them
    # as a table does.
    for workers in (0, -3):
        with pytest.raises(UsageError, match="workers must be at least 1"):
            backstop_probability(
                "scalar_probe", (2.0,), h_max=2.0**-6, num_paths=4, fine_exponent=10,
                workers=workers,
            )


def test_backstop_curve_refuses_an_unseparated_grid_before_the_pool_starts(monkeypatch):
    # h_min = 2.5 * 2^-4 / 1.2 rounds up to 3 fine steps of 2^-4 and h_max
    # down to 2; the curve used to start its workers, which then raised.
    def no_pool(*args, **kwargs):
        raise AssertionError("the worker pool started")

    monkeypatch.setattr(milsde.harness, "ProcessPoolExecutor", no_pool)
    with pytest.raises(UsageError, match="separate"):
        backstop_probability(
            "scalar_probe", (1.2,), h_max=2.5 * 2**-4, num_paths=4, fine_exponent=4, workers=2
        )


def test_backstop_validation():
    with pytest.raises(UsageError, match="rho"):
        backstop_probability("scalar_mult", (), h_max=2.0**-8, num_paths=10)
    with pytest.raises(UsageError, match="rho"):
        backstop_probability("scalar_mult", (1.0,), h_max=2.0**-8, num_paths=10)
    with pytest.raises(UsageError, match="num_paths"):
        backstop_probability("scalar_mult", (2.0,), h_max=2.0**-8, num_paths=1)
    with pytest.raises(UsageError, match="floor"):
        backstop_probability(
            "scalar_mult", (2.0**10,), h_max=2.0**-8, num_paths=10, fine_exponent=14
        )
    with pytest.raises(UsageError, match=r"\(0, horizon\]"):
        backstop_probability("scalar_mult", (2.0,), h_max=2.0, num_paths=10)
    with pytest.raises(UsageError, match="repeat"):
        backstop_probability(
            "scalar_probe", (2.0, 3.0, 2.0), h_max=2.0**-8, num_paths=4, fine_exponent=12
        )
