import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import milsde.adaptive
from milsde import (
    BUILTIN_NAMES,
    FIXED_SCHEMES,
    PathPrefixes,
    PathStreams,
    SdeProblem,
    SolutionPath,
    StrategyConfig,
    FixedSolves,
    IteratedIntegrals,
    UsageError,
    generate_path,
    integrals_over,
    integrate_adaptive,
    integrate_adaptive_batch,
    integrate_fixed,
    make_builtin,
    propose_step,
    uniform_integrals,
)
from milsde.cli import main
from milsde.steppers import advance_state

H_MAX = 2.0**-8
CFG = StrategyConfig(h_max=H_MAX, rho=16.0)


def _constant_problem(initial, name="frozen"):
    # Zero drift, zero noise: the state never moves, which isolates the
    # controller's mesh decisions from the dynamics.
    d = len(initial)
    return SdeProblem(
        dim_state=d,
        dim_noise=1,
        drift=lambda y: np.zeros(d),
        diffusion_column=lambda y, i: np.zeros(d),
        diffusion_jacobian=lambda y, i: np.zeros((d, d)),
        structure="additive",
        initial_state=np.array(initial, dtype=float),
        horizon=1.0,
        name=name,
    )


# ---------------------------------------------------------------------------
# StrategyConfig and the controller map
# ---------------------------------------------------------------------------


def test_config_validation():
    assert CFG.h_min == 2.0**-12
    assert CFG.scale == H_MAX
    assert StrategyConfig(h_max=H_MAX, rho=4.0, delta=H_MAX / 2).scale == H_MAX / 2
    for bad in (
        dict(h_max=0.0, rho=2.0),
        dict(h_max=-1.0, rho=2.0),
        dict(h_max=math.inf, rho=2.0),
        dict(h_max=H_MAX, rho=1.0),
        dict(h_max=H_MAX, rho=math.nan),
        dict(h_max=H_MAX, rho=2.0, delta=0.0),
        dict(h_max=H_MAX, rho=2.0, delta=2 * H_MAX),
    ):
        with pytest.raises(UsageError):
            StrategyConfig(**bad)


def test_propose_step_examples():
    # ||y|| = 2: raw = 2^-9, inside the band.
    assert propose_step(CFG, np.array([2.0])) == (2.0**-9, False)
    # ||y|| = 2^10: raw = 2^-18 below the floor 2^-12.
    assert propose_step(CFG, np.array([2.0**10])) == (CFG.h_min, True)
    # tiny and zero states cap at the ceiling
    assert propose_step(CFG, np.array([1e-10])) == (H_MAX, False)
    assert propose_step(CFG, np.array([0.0])) == (H_MAX, False)
    # delta override rescales the proposal
    half = StrategyConfig(h_max=H_MAX, rho=16.0, delta=H_MAX / 2)
    assert propose_step(half, np.array([2.0])) == (2.0**-10, False)


def test_propose_step_extreme_states():
    # Finite states whose squared norm overflows must pin, not raise.
    assert propose_step(CFG, np.array([1e308, 1e308])) == (CFG.h_min, True)
    assert propose_step(CFG, np.array([1e155])) == (CFG.h_min, True)
    # ...and so must a finite state whose norm itself overflows to inf.
    assert propose_step(CFG, np.array([1.7e308, 1.7e308])) == (CFG.h_min, True)
    with pytest.raises(UsageError):
        propose_step(CFG, np.array([math.inf]))
    with pytest.raises(UsageError):
        propose_step(CFG, np.array([math.nan, 1.0]))


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.floats(min_value=-1e100, max_value=1e100, allow_nan=False),
        min_size=1,
        max_size=3,
    )
)
def test_propose_step_properties(xs):
    h, pinned = propose_step(CFG, np.array(xs))
    assert CFG.h_min <= h <= CFG.h_max
    norm = math.hypot(*xs)
    if norm == 0.0:
        assert h == CFG.h_max and not pinned
        return
    raw = CFG.scale / norm
    assert pinned == (raw <= CFG.h_min)
    if pinned:
        assert h == CFG.h_min
    else:
        assert h <= raw
        # path bound: the step the controller grants keeps ||y|| h <= scale
        assert norm * h <= CFG.scale * (1.0 + 1e-12)


# ---------------------------------------------------------------------------
# Adaptive mesh invariants
# ---------------------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(
    delta_frac=st.floats(min_value=0.1, max_value=1.0),
    y0=st.floats(min_value=0.05, max_value=8.0),
    seed=st.integers(min_value=0, max_value=2**16),
)
# raw = 100 (1 - 1e-12) fine units: a 1e-9 rounding slack took 100.
@example(delta_frac=100 * 2.0**-8 * (1.0 - 1e-12), y0=1.0, seed=0)
def test_steps_never_exceed_the_raw_proposal(delta_frac, y0, seed):
    # Non-dyadic delta: every non-pinned, non-clamped step is a whole
    # number of fine steps and at most scale / ||Y_n||, exactly.
    h_ref = 2.0**-16
    cfg = StrategyConfig(h_max=H_MAX, rho=16.0, delta=delta_frac * H_MAX)
    problem = dataclasses.replace(
        make_builtin("scalar_mult"), initial_state=np.array([y0])
    )
    sol = integrate_adaptive(problem, cfg, generate_path(seed, 16, 1))
    units = sol.step_sizes / h_ref
    np.testing.assert_array_equal(units, np.floor(units))
    for n in range(sol.num_steps - 1):
        if not sol.backstop_flags[n]:
            raw = cfg.scale / math.hypot(*sol.states[n])
            assert sol.step_sizes[n] <= raw


def test_mesh_invariants():
    problem = make_builtin("scalar_mult")
    h_ref = 2.0**-16
    k_min, k_max = 16, 256
    for seed in range(20):
        path = generate_path(seed, 16, 1)
        sol = integrate_adaptive(problem, CFG, path)
        assert not sol.divergent
        assert sol.times[0] == 0.0
        assert sol.final_time == 1.0
        # every node sits on the fine grid and the steps sum exactly
        units = sol.times / h_ref
        np.testing.assert_array_equal(units, np.rint(units))
        assert float(np.sum(sol.step_sizes)) == 1.0
        step_units = np.rint(np.diff(units)).astype(int)
        assert step_units.min() >= 1
        assert step_units.max() <= k_max
        assert np.all(step_units[:-1] >= k_min)
        # flags are a pure function of the pre-step state
        assert len(sol.backstop_flags) == sol.num_steps
        for n in range(sol.num_steps - 1):
            _, pinned = propose_step(CFG, sol.states[n])
            assert sol.backstop_flags[n] == pinned
            if not pinned:
                norm = float(np.linalg.norm(sol.states[n]))
                assert norm * sol.step_sizes[n] <= CFG.scale * (1.0 + 1e-12)
        if sol.backstop_flags[-1]:
            assert propose_step(CFG, sol.states[-2])[1]
            assert step_units[-1] == k_min


def test_first_step_size():
    # ||X0|| = 2 proposes 2^-9 exactly, a whole multiple of 2^-16.
    problem = make_builtin("scalar_mult")
    sol = integrate_adaptive(problem, CFG, generate_path(0, 16, 1))
    assert sol.times[1] == 2.0**-9
    assert not sol.backstop_flags[0]


def test_pinned_step_off_grid_floor_rounds_up():
    # rho = 1.5 makes h_min = 2^-8 / 1.5, which is 170.67 fine units:
    # the pinned step must round up to 171 units, never below the floor.
    problem = make_builtin("scalar_probe")
    cfg = StrategyConfig(h_max=H_MAX, rho=1.5)
    sol = integrate_adaptive(problem, cfg, generate_path(5, 16, 1))
    assert bool(sol.backstop_flags[0])
    assert sol.times[1] == 171 * 2.0**-16
    assert 171 * 2.0**-16 >= cfg.h_min


def test_off_grid_floor_pins_a_proposal_it_cannot_round_down():
    # rho = 1.5 puts h_min at 170.67 fine units and k_min at 171. From
    # ||Y|| = 256 / 170.8 the raw proposal is 170.8 units: rounding it
    # down would go below the floor, so the step is pinned (tamed and
    # flagged) rather than rounded up past the proposal.
    problem = _constant_problem([256 / 170.8])
    cfg = StrategyConfig(h_max=H_MAX, rho=1.5)
    sol = integrate_adaptive(problem, cfg, generate_path(0, 16, 1))
    units = np.rint(sol.step_sizes / 2.0**-16).astype(int)
    assert np.all(units[:-1] == 171)
    assert sol.backstop_flags[:-1].all()
    for n in range(sol.num_steps - 1):
        if not sol.backstop_flags[n]:
            assert math.hypot(*sol.states[n]) * sol.step_sizes[n] <= cfg.scale


def test_zero_state_runs_at_the_ceiling():
    problem = _constant_problem([0.0])
    cfg = StrategyConfig(h_max=2.0**-4, rho=4.0)
    sol = integrate_adaptive(problem, cfg, generate_path(1, 8, 1))
    assert sol.num_steps == 16
    np.testing.assert_array_equal(sol.step_sizes, np.full(16, 2.0**-4))
    assert not sol.backstop_flags.any()
    np.testing.assert_array_equal(sol.states, np.zeros((17, 1)))


def test_final_step_clamps_to_horizon_unflagged():
    # A constant state of norm 20 pins every step at 171 fine units;
    # 2^16 = 383 * 171 + 43, so the run ends with a short clamped step
    # that is below the floor and must not be flagged.
    problem = _constant_problem([20.0])
    cfg = StrategyConfig(h_max=H_MAX, rho=1.5)
    sol = integrate_adaptive(problem, cfg, generate_path(2, 16, 1))
    assert sol.num_steps == 384
    units = np.rint(sol.step_sizes / 2.0**-16).astype(int)
    assert np.all(units[:-1] == 171)
    assert units[-1] == 43
    assert sol.backstop_flags[:-1].all()
    assert not sol.backstop_flags[-1]
    assert sol.step_sizes[-1] < cfg.h_min
    assert float(np.sum(sol.step_sizes)) == 1.0
    assert sol.backstop_flags.sum() == 383


def test_adaptive_is_deterministic():
    problem = make_builtin("twod_noncommutative")
    path = generate_path(9, 14, 2)
    cfg = StrategyConfig(h_max=2.0**-6, rho=8.0)
    a = integrate_adaptive(problem, cfg, path)
    b = integrate_adaptive(problem, cfg, path)
    np.testing.assert_array_equal(a.times, b.times)
    np.testing.assert_array_equal(a.states, b.states)
    np.testing.assert_array_equal(a.backstop_flags, b.backstop_flags)


# ---------------------------------------------------------------------------
# Divergence handling
# ---------------------------------------------------------------------------


def test_fixed_coarse_step_diverges_from_large_state():
    # X0 = 8 with h = 1/8 overflows the cubic drift in a handful of
    # steps; the solution is truncated at the last finite state.
    problem = dataclasses.replace(
        make_builtin("scalar_mult"), initial_state=np.array([8.0])
    )
    sol = integrate_fixed(problem, "milstein", 0.125, generate_path(3, 8, 1))
    assert sol.divergent
    assert sol.final_time < 1.0
    assert len(sol.times) == len(sol.states)
    assert len(sol.backstop_flags) == sol.num_steps
    assert np.all(np.isfinite(sol.states))


def test_huge_finite_state_is_not_divergent():
    # [1e308, 1e308] is finite although its sum overflows; a frozen
    # problem must carry it to the horizon unchanged on both drivers.
    problem = _constant_problem([1e308, 1e308])
    path = generate_path(3, 8, 1)
    sols = [integrate_fixed(problem, s, 2.0**-4, path) for s in FIXED_SCHEMES]
    sols.append(
        integrate_adaptive(problem, StrategyConfig(h_max=2.0**-4, rho=4.0), path)
    )
    for sol in sols:
        assert not sol.divergent
        assert sol.final_time == 1.0
        np.testing.assert_array_equal(sol.final_state, problem.initial_state)


def test_adaptive_completes_from_large_state():
    # Same problem and X0: path-bounded steps plus the tamed backstop
    # bring the state down instead of exploding.
    problem = dataclasses.replace(
        make_builtin("scalar_mult"), initial_state=np.array([8.0])
    )
    cfg = StrategyConfig(h_max=H_MAX, rho=4.0)
    sol = integrate_adaptive(problem, cfg, generate_path(3, 16, 1))
    assert not sol.divergent
    assert sol.final_time == 1.0
    assert sol.backstop_flags.any()
    assert abs(float(sol.final_state[0])) < 2.0


# ---------------------------------------------------------------------------
# Fixed-mesh integrator
# ---------------------------------------------------------------------------


def test_fixed_mesh_with_remainder():
    problem = make_builtin("scalar_add")
    path = generate_path(4, 4, 1)
    sol = integrate_fixed(problem, "milstein", 3 * 2.0**-4, path)
    np.testing.assert_array_equal(
        sol.times, np.array([0, 3, 6, 9, 12, 15, 16]) / 16.0
    )
    assert not sol.backstop_flags.any()
    assert float(np.sum(sol.step_sizes)) == 1.0


def test_fixed_step_must_sit_on_the_grid():
    problem = make_builtin("scalar_add")
    path = generate_path(4, 4, 1)
    with pytest.raises(UsageError, match="multiple"):
        integrate_fixed(problem, "milstein", 0.1, path)
    # A non-finite step used to escape as ValueError (nan) and
    # OverflowError (inf) from rounding it to fine steps.
    for step in (math.nan, math.inf, -math.inf):
        with pytest.raises(UsageError, match="multiple"):
            integrate_fixed(problem, "euler", step, path)
    with pytest.raises(UsageError, match="scheme"):
        integrate_fixed(problem, "rk4", 0.25, path)


# ---------------------------------------------------------------------------
# Batched fixed-step solve
# ---------------------------------------------------------------------------


def _paths(problem, seeds, level=10):
    return [generate_path(s, level, problem.dim_noise) for s in seeds]


def _solve_in_slabs(problem, jobs, seeds, sizes, level=10, **kwargs):
    """The jobs over the paths of ``seeds``, streamed through a sliding
    window of prefix arrays in slabs of ``sizes`` fine steps (cycled);
    returns the results and the slab ends."""
    n = 1 << level
    streams = PathStreams(seeds, level, problem.dim_noise)
    widest = max(k for _, k in jobs) + max(sizes)
    window = PathPrefixes.streamed(len(seeds), problem.dim_noise, n, 1.0, widest)
    solves = [FixedSolves(problem, scheme, k, window, **kwargs) for scheme, k in jobs]
    ends = []
    while window.frontier < n:
        window.slab = sizes[len(ends) % len(sizes)]
        window.advance(min(solve.position for solve in solves), streams.draw)
        for solve in solves:
            solve.advance()
        ends.append(window.frontier)
    return [solve.result() for solve in solves], ends


def _assert_rows_equal_single(problem, scheme, k, batch, paths, **kwargs):
    for p, path in enumerate(paths):
        sol = integrate_fixed(problem, scheme, k * path.resolution, path, **kwargs)
        assert batch.divergent[p] == sol.divergent
        assert batch.num_steps[p] == sol.num_steps
        np.testing.assert_array_equal(batch.final_states[p], sol.final_state)
        assert batch.ends[p] * batch.resolution == sol.final_time and batch.flagged[p] == 0
        row = batch.solution(p)
        for name in ("times", "states", "backstop_flags"):
            np.testing.assert_array_equal(getattr(row, name), getattr(sol, name))


def _assert_batch_equals_single(problem, scheme, step, seeds):
    k = round(step * 2**10)
    [batch], _ = _solve_in_slabs(problem, [(scheme, k)], seeds, (1 << 10,), record=True)
    _assert_rows_equal_single(problem, scheme, k, batch, _paths(problem, seeds))
    return batch


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_batched_solve_equals_single_paths_bitwise(name):
    problem = make_builtin(name)
    for scheme in FIXED_SCHEMES:
        # 3 * 2^-6 leaves a shorter last window onto the horizon.
        for step in (2.0**-6, 3 * 2.0**-6):
            batch = _assert_batch_equals_single(problem, scheme, step, range(5))
            assert not batch.divergent.any()


def test_batched_solve_isolates_divergent_rows():
    # From y0 = 4.25 at h = 1/8 the Milstein map blows up on some paths
    # only; from y0 = 8 on every path.
    base = make_builtin("scalar_mult")
    mixed = dataclasses.replace(base, initial_state=np.array([4.25]))
    batch = _assert_batch_equals_single(mixed, "milstein", 0.125, range(8))
    assert 0 < batch.divergent.sum() < 8
    assert np.isfinite(batch.final_states).all()
    wild = dataclasses.replace(base, initial_state=np.array([8.0]))
    batch = _assert_batch_equals_single(wild, "milstein", 0.125, range(3))
    assert batch.divergent.all()


def test_slab_fed_solve_equals_single_paths_bitwise():
    # Slabs of 7, 100, 33 and 300 fine steps end inside the windows of
    # every job but k = 1, so windows straddle two slabs or more (k =
    # 160), and 48 and 160 leave a shorter last window. Every job reads
    # the same slabs, and each row equals its path's one-slab solve.
    jobs = [(scheme, k) for scheme in FIXED_SCHEMES for k in (1, 48, 160, 1024)]
    for name in ("scalar_mult", "twod_noncommutative"):
        problem = make_builtin(name)
        paths = _paths(problem, range(4))
        for zero_area in (False, True):
            results, ends = _solve_in_slabs(
                problem, jobs, range(4), (7, 100, 33, 300),
                record=True, zero_levy_area=zero_area,
            )
            assert ends[:4] == [7, 107, 140, 440]
            for (scheme, k), batch in zip(jobs, results):
                _assert_rows_equal_single(
                    problem, scheme, k, batch, paths, zero_levy_area=zero_area
                )


def test_fixed_steps_replay_the_mesh_windows():
    # Whole windows carry uniform_integrals' bits and the shorter last
    # one integrals_over's, so each step is the step map over them.
    problem = make_builtin("twod_noncommutative")
    path = generate_path(5, 10, 2)
    for zero_area in (False, True):
        sol = integrate_fixed(problem, "milstein", 48 * path.resolution, path, zero_area)
        count, h, dW, I = uniform_integrals(path, 48, zero_area=zero_area)
        last = integrals_over(path, count * 48, path.num_steps)
        if zero_area:
            last = IteratedIntegrals.from_components(last.h, last.dW, np.zeros_like(last.A))
        windows = [(h, dW[n], I[n]) for n in range(count)] + [(last.h, last.dW, last.I)]
        assert sol.num_steps == len(windows) == 22
        for n, window in enumerate(windows):
            np.testing.assert_array_equal(
                sol.states[n + 1], advance_state(problem, "milstein", sol.states[n], *window)
            )


def test_slab_fed_solve_stops_a_row_inside_a_slab():
    # From y0 = 4.7 three of eight Milstein rows blow up at k = 96, on
    # their tenth window, which ends inside a slab; the rows beside them
    # run on, slab after slab.
    mixed = dataclasses.replace(make_builtin("scalar_mult"), initial_state=np.array([4.7]))
    paths = _paths(mixed, range(8))
    jobs = [("milstein", 96), ("euler", 96), ("tamed", 128)]
    results, ends = _solve_in_slabs(mixed, jobs, range(8), (100, 37), record=True)
    batch = results[0]
    assert batch.divergent.sum() == 3
    failed_at = (batch.num_steps[batch.divergent] + 1) * 96
    assert (failed_at == 960).all() and 960 not in ends
    for (scheme, k), batch in zip(jobs, results):
        _assert_rows_equal_single(mixed, scheme, k, batch, paths)


def _assert_unchecked_equals_checked(problem, jobs, seeds, sizes):
    # Without record, a job whose rows all run steps a call's windows
    # unchecked and replays them, checked, when one went non-finite;
    # record=True checks every step. Both must stop the same rows at the
    # same windows.
    checked, ends = _solve_in_slabs(problem, jobs, seeds, sizes, record=True)
    unchecked, _ = _solve_in_slabs(problem, jobs, seeds, sizes)
    for a, b in zip(checked, unchecked):
        assert b.states is None
        for name in ("ends", "final_states", "num_steps", "flagged", "divergent"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
    return unchecked, ends


def test_unchecked_steps_stop_the_rows_the_checked_steps_stop():
    def at(y0):
        return dataclasses.replace(make_builtin("scalar_mult"), initial_state=np.array([y0]))

    # The divergent setups of the tests above: whole paths, then slabs.
    for y0, seeds in ((4.25, range(8)), (8.0, range(3))):
        [batch], _ = _assert_unchecked_equals_checked(
            at(y0), [("milstein", 128)], seeds, (1 << 10,)
        )
        assert batch.divergent.any()
    jobs = [("milstein", 96), ("euler", 96), ("tamed", 128)]
    results, _ = _assert_unchecked_equals_checked(at(4.7), jobs, range(8), (100, 37))
    assert results[0].divergent.sum() == 3
    # A slab ending at 900 leaves the window [864, 960), where three rows
    # blow up, as the first window of the next call.
    [batch], ends = _assert_unchecked_equals_checked(
        at(4.7), [("milstein", 96)], range(8), (900, 124)
    )
    assert ends == [900, 1024]
    assert batch.divergent.sum() == 3 and (batch.num_steps[batch.divergent] == 9).all()
    # Every row overflows on the first window of the first call.
    [batch], _ = _assert_unchecked_equals_checked(
        at(1e110), [("milstein", 128)], range(3), (1 << 10,)
    )
    assert batch.divergent.all() and not batch.num_steps.any()


def test_unchecked_steps_survive_a_drift_that_refuses_non_finite_states():
    # The unchecked pass feeds a blown-up row back into the drift, which
    # raises here; the call is replayed checked, so the row is reported
    # divergent at the same window, with no exception.
    base = dataclasses.replace(make_builtin("scalar_mult"), initial_state=np.array([4.7]))

    def strict(x):
        if not np.isfinite(x).all():
            raise FloatingPointError("non-finite state")
        return base.drift(x)

    problem = dataclasses.replace(base, drift=strict, name="strict")
    jobs = [("milstein", 96), ("euler", 96), ("tamed", 128)]
    for sizes in ((100, 37), (900, 124), (1 << 10,)):
        results, _ = _assert_unchecked_equals_checked(problem, jobs, range(8), sizes)
        plain, _ = _solve_in_slabs(base, jobs, range(8), sizes)
        for a, b in zip(results, plain):
            np.testing.assert_array_equal(a.final_states, b.final_states)
            np.testing.assert_array_equal(a.num_steps, b.num_steps)
            np.testing.assert_array_equal(a.divergent, b.divergent)
        assert results[0].divergent.sum() == 3


def test_step_maps_are_built_once_per_solve(monkeypatch):
    # One map per FixedSolves job and two (the scheme and the tamed
    # backstop) per lockstep solve, however many windows or slabs run.
    built = []
    step_map = milsde.adaptive._step_map

    def spy(problem, kind):
        built.append(kind)
        return step_map(problem, kind)

    monkeypatch.setattr(milsde.adaptive, "_step_map", spy)
    problem = make_builtin("twod_noncommutative")
    jobs = [("milstein", 16), ("euler", 48), ("tamed", 16)]
    _, ends = _solve_in_slabs(problem, jobs, range(3), (7, 100, 33))
    assert len(ends) > 10
    assert built == ["milstein", "euler", "tamed"]
    built.clear()
    _, batch = _lockstep(problem, LANE_CONFIGS, range(3), scheme="euler")
    assert batch.num_steps.min() > 10
    assert built == ["euler", "tamed"]


def test_slab_fed_solve_refuses_what_does_not_fit():
    problem = make_builtin("scalar_mult")
    streams = PathStreams((0, 1), 4, 1)
    window = PathPrefixes.streamed(2, 1, 16, 1.0, 4)
    window.slab = 10
    solves = FixedSolves(problem, "euler", 4, window)
    with pytest.raises(UsageError, match="noise components"):
        FixedSolves(make_builtin("twod_noncommutative"), "euler", 4, window)
    window.advance(0, streams.draw)
    solves.advance()
    assert solves.position == 8
    with pytest.raises(UsageError, match="taken"):
        solves.result()
    # A window that dropped the start of a job's next window is refused.
    window.advance(window.frontier, streams.draw)
    with pytest.raises(UsageError, match="no longer held"):
        solves.advance()
    with pytest.raises(UsageError, match="substeps"):
        FixedSolves(problem, "euler", 17, window)


def _three_noise_problem():
    # Three noise columns that do not commute: each rotates the state's
    # components, so the Milstein correction reads every Levy area.
    def column(x, i):
        return 0.2 * np.roll(x, i + 1, axis=-1)

    def jacobian(x, i):
        return 0.2 * np.roll(np.eye(3), i + 1, axis=0)

    return SdeProblem(
        dim_state=3,
        dim_noise=3,
        drift=lambda x: x - x**3,
        diffusion_column=column,
        diffusion_jacobian=jacobian,
        structure="general",
        initial_state=np.array([1.0, -0.5, 0.25]),
        horizon=1.0,
        name="three_noise",
    )


def test_fixed_meshes_read_the_exact_levy_areas():
    # Fixed meshes used to sum each window's area in floats: on these
    # paths hundreds of the 1,024 windows of 16 fine steps differed from
    # integrals_over in their last bits. Every window, and every step of
    # a fixed solve, now carries integrals_over's bits.
    for problem in (make_builtin("twod_noncommutative"), _three_noise_problem()):
        m = problem.dim_noise
        path = generate_path(31, 14, m)
        count, h, dW, I = uniform_integrals(path, 16)
        exact = [integrals_over(path, 16 * n, 16 * (n + 1)) for n in range(count)]
        assert count == 1024 and h == 16 * path.resolution
        np.testing.assert_array_equal(dW, [w.dW for w in exact])
        np.testing.assert_array_equal(I, [w.I for w in exact])
        assert np.count_nonzero([w.A for w in exact]) > 0
        sol = integrate_fixed(problem, "milstein", h, path)
        assert sol.num_steps == count and not sol.divergent
        for n, w in enumerate(exact):
            step = advance_state(problem, "milstein", sol.states[n], w.h, w.dW, w.I)
            np.testing.assert_array_equal(sol.states[n + 1], step)


def _custom_2d(column):
    return SdeProblem(
        dim_state=2,
        dim_noise=1,
        drift=lambda x: -x,
        diffusion_column=column,
        diffusion_jacobian=lambda x, i: np.eye(2),
        structure="diagonal",
        initial_state=np.array([1.0, 2.0]),
        horizon=1.0,
    )


def test_batched_solve_rejects_single_state_coefficients():
    # Columns written for (d,) states only: x[0] and x[1] pick rows of a
    # batch, so they must be refused, not silently mis-broadcast.
    for column in (
        lambda x, i: np.array([x[0], x[1]]),
        lambda x, i: np.array([x[1], x[0]]),
        lambda x, i: np.array([0.5 * x[0], 0.1 * x[1]]),
    ):
        problem = _custom_2d(column)
        with pytest.raises(UsageError, match=r"\(\.\.\., d\)|x\[\.\.\., k\]"):
            FixedSolves(problem, "milstein", 64, PathPrefixes.streamed(2, 1, 1024, 1.0, 64))
        with pytest.raises(UsageError, match="last axis"):
            integrate_fixed(problem, "milstein", 2.0**-4, generate_path(0, 8, 1))
    # The same columns written on the last axis are accepted.
    ok = _custom_2d(lambda x, i: np.stack([x[..., 0], x[..., 1]], axis=-1))
    _assert_batch_equals_single(ok, "milstein", 2.0**-4, range(3))


def test_an_additive_label_on_multiplicative_noise_is_refused():
    # "additive" makes every step skip the Milstein correction: scalar_mult
    # so labelled ran Milstein as Euler-Maruyama, bit for bit, unchecked.
    problem = dataclasses.replace(make_builtin("scalar_mult"), structure="additive")
    path = generate_path(1, 12, 1)
    with pytest.raises(UsageError, match="labelled 'additive'"):
        integrate_fixed(problem, "milstein", 2.0**-6, path)
    with pytest.raises(UsageError, match="labelled 'additive'"):
        integrate_adaptive(problem, StrategyConfig(h_max=2.0**-6, rho=4.0), path)


def test_a_commuting_label_on_noncommuting_noise_is_refused():
    # twod_noncommutative has a commutator defect of 0.12 on the probe
    # states; a "diagonal" or "commutative" label was accepted.
    path = generate_path(1, 12, 2)
    for label in ("diagonal", "commutative"):
        problem = dataclasses.replace(make_builtin("twod_noncommutative"), structure=label)
        with pytest.raises(UsageError, match=f"labelled '{label}'.*does not commute"):
            integrate_fixed(problem, "milstein", 2.0**-6, path)
        with pytest.raises(UsageError, match="does not commute"):
            integrate_adaptive(problem, StrategyConfig(h_max=2.0**-6, rho=4.0), path)


def test_labels_the_coefficients_allow_are_accepted():
    # Every builtin's own label, "general" on any of them, and any label
    # but "additive" with one noise component, which always commutes.
    for name in BUILTIN_NAMES:
        problem = make_builtin(name)
        labels = {problem.structure, "general"}
        if problem.dim_noise == 1 and problem.structure != "additive":
            labels |= {"diagonal", "commutative"}
        for label in labels:
            relabelled = dataclasses.replace(problem, structure=label)
            for count in (1, 3, 100):
                window = PathPrefixes.streamed(count, problem.dim_noise, 16, 1.0, 1)
                FixedSolves(relabelled, "milstein", 1, window)


# ---------------------------------------------------------------------------
# Lockstep adaptive solve
# ---------------------------------------------------------------------------

LANE_CONFIGS = [
    StrategyConfig(h_max=2.0**-6, rho=4.0),
    StrategyConfig(h_max=2.0**-5, rho=3.0),
    StrategyConfig(h_max=2.0**-4, rho=8.0, delta=2.0**-5),
    StrategyConfig(h_max=2.0**-6, rho=1.5),
]


def _assert_lane_equals_single(sol, one):
    assert sol.divergent == one.divergent
    np.testing.assert_array_equal(sol.times, one.times)
    np.testing.assert_array_equal(sol.states, one.states)
    np.testing.assert_array_equal(sol.backstop_flags, one.backstop_flags)


def _lockstep(problem, configs, seeds, level=12, **kwargs):
    """Every (seed, config) lane in one lockstep solve, seed-major."""
    paths = [generate_path(s, level, problem.dim_noise) for s in seeds]
    pref = PathPrefixes.of(np.stack([path.increments for path in paths]), 1.0)
    rows = np.repeat(np.arange(len(paths)), len(configs))
    batch = integrate_adaptive_batch(problem, configs * len(paths), pref, rows, **kwargs)
    return paths, batch


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_lockstep_lanes_equal_one_lane_solves_bitwise(name):
    problem = make_builtin(name)
    for scheme in FIXED_SCHEMES:
        for zero_area in (False, True):
            paths, batch = _lockstep(
                problem, LANE_CONFIGS, range(3), scheme=scheme, zero_levy_area=zero_area
            )
            assert not batch.divergent.any()
            for lane, (path, cfg) in enumerate(
                (p, c) for p in paths for c in LANE_CONFIGS
            ):
                one = integrate_adaptive(
                    problem, cfg, path, scheme=scheme, zero_levy_area=zero_area
                )
                _assert_lane_equals_single(batch.solution(lane), one)


def _stiff_problem():
    # A stiff drift that is undefined above 1.25: coarse plain steps
    # overshoot into that region and go non-finite, fine ones decay to 1.
    return SdeProblem(
        dim_state=1,
        dim_noise=1,
        drift=lambda x: np.where(x > 1.25, np.nan, -40.0 * (x - 1.0)),
        diffusion_column=lambda x, i: np.zeros(1),
        diffusion_jacobian=lambda x, i: np.zeros((1, 1)),
        structure="additive",
        initial_state=np.array([1.2]),
        horizon=1.0,
    )


STIFF_CONFIGS = [
    StrategyConfig(h_max=2.0**-8, rho=4.0),
    StrategyConfig(h_max=2.0**-2, rho=4.0),
    StrategyConfig(h_max=2.0**-6, rho=8.0),
]


def test_lockstep_divergent_lane_leaves_the_others_alone():
    # On the stiff problem the coarse lane goes non-finite; the lanes
    # beside it must end exactly where their one-lane solves do.
    problem, configs = _stiff_problem(), STIFF_CONFIGS
    paths, batch = _lockstep(problem, configs, range(2))
    np.testing.assert_array_equal(batch.divergent, [False, True, False] * 2)
    for lane, (path, cfg) in enumerate((p, c) for p in paths for c in configs):
        _assert_lane_equals_single(batch.solution(lane), integrate_adaptive(problem, cfg, path))
    assert np.isfinite(batch.states).all()
    assert batch.solution(1).final_time < 1.0


def test_lockstep_keeps_only_what_is_asked():
    # "steps" and "totals" keep less of the same solve: what they keep,
    # and every per-lane total, equals what the full records give, bit
    # for bit: on divergent lanes (the stiff problem) and on lanes with
    # pinned steps (scalar_mult from 8).
    large = dataclasses.replace(make_builtin("scalar_mult"), initial_state=np.array([8.0]))
    for problem, configs in ((_stiff_problem(), STIFF_CONFIGS), (large, LANE_CONFIGS)):
        _, full = _lockstep(problem, configs, range(3))
        assert full.divergent.any() or full.flagged.all()
        for keep in ("steps", "totals"):
            _, batch = _lockstep(problem, configs, range(3), keep=keep)
            assert batch.states is None
            for name in ("ends", "final_states", "num_steps", "flagged", "divergent"):
                np.testing.assert_array_equal(getattr(batch, name), getattr(full, name))
            for lane in range(len(full.divergent)):
                sol = full.solution(lane)
                assert batch.num_steps[lane] == sol.num_steps
                assert batch.flagged[lane] == sol.backstop_flags.sum()
                assert batch.ends[lane] * batch.resolution == sol.final_time
                np.testing.assert_array_equal(batch.final_states[lane], sol.final_state)
                if keep == "steps":
                    kept = batch.solution(lane)
                    np.testing.assert_array_equal(kept.times, sol.times)
                    np.testing.assert_array_equal(kept.backstop_flags, sol.backstop_flags)
    with pytest.raises(UsageError, match="keep"):
        _lockstep(large, LANE_CONFIGS, range(1), keep="ends")


def test_lockstep_rejects_mismatched_lanes_and_single_state_coefficients():
    problem = make_builtin("scalar_mult")
    path = generate_path(0, 12, 1)
    with pytest.raises(UsageError, match="row"):
        integrate_adaptive_batch(problem, LANE_CONFIGS, path.prefixes(), [0])
    single = _custom_2d(lambda x, i: np.array([x[0], x[1]]))
    with pytest.raises(UsageError, match="last axis"):
        integrate_adaptive(single, StrategyConfig(2.0**-4, 4.0), generate_path(0, 8, 1))


def test_batched_solves_refuse_rows_and_substeps_they_would_wrap_or_round():
    # Row -1 used to solve the last path, 1.7 path 1, and 5 raised a raw
    # IndexError; substeps 4.5 ran as 4, "4" was accepted and True ran as
    # 1. A bool is no integer, as a row or as substeps.
    problem = make_builtin("scalar_mult")
    paths = [generate_path(s, 12, 1) for s in range(2)]
    prefixes = PathPrefixes.of(np.stack([path.increments for path in paths]), 1.0)
    for row in (-1, 1.7, 5, 2, True):
        with pytest.raises(UsageError, match=r"rows must be integers in \[0, 2\)"):
            integrate_adaptive_batch(problem, [CFG], prefixes, [row])
    for k in (4.5, "4", 4.0, True, np.True_):
        with pytest.raises(UsageError, match="substeps"):
            FixedSolves(problem, "euler", k, prefixes)
    batch = integrate_adaptive_batch(problem, [CFG], prefixes, np.array([1], dtype=np.uint8))
    assert batch.num_steps[0] > 0
    assert FixedSolves(problem, "euler", np.int64(4), prefixes).k == 4


def test_a_batch_refuses_lanes_it_cannot_read():
    # A batch that kept no steps raised a raw TypeError, lane -1 gave an
    # empty path at t = 0 with the last lane's divergent flag, and lane
    # L a raw IndexError.
    problem = make_builtin("scalar_mult")
    paths = [generate_path(s, 12, 1) for s in range(2)]
    prefixes = PathPrefixes.of(np.stack([path.increments for path in paths]), 1.0)
    solve = FixedSolves(problem, "euler", 4, prefixes)
    solve.advance()
    totals = integrate_adaptive_batch(problem, [CFG, CFG], prefixes, [0, 1], keep="totals")
    for batch in (solve.result(), totals):
        with pytest.raises(UsageError, match="kept no steps"):
            batch.solution(0)
    kept = integrate_adaptive_batch(problem, [CFG, CFG], prefixes, [0, 1])
    for lane in (-1, 2, 0.5, "0", True, np.True_, 1.0):
        with pytest.raises(UsageError, match=r"lane must be an integer in \[0, 2\)"):
            kept.solution(lane)
    sol = kept.solution(np.int64(1))
    np.testing.assert_array_equal(sol.states, integrate_adaptive(problem, CFG, paths[1]).states)


# ---------------------------------------------------------------------------
# Compatibility validation
# ---------------------------------------------------------------------------


def test_compatibility_errors():
    problem = make_builtin("scalar_mult")
    with pytest.raises(UsageError, match="noise components"):
        integrate_adaptive(problem, CFG, generate_path(1, 16, 2))
    with pytest.raises(UsageError, match="horizon"):
        integrate_adaptive(problem, CFG, generate_path(1, 16, 1, horizon=2.0))
    with pytest.raises(UsageError, match="scheme"):
        integrate_adaptive(problem, CFG, generate_path(1, 16, 1), scheme="rk4")
    with pytest.raises(UsageError, match="exceeds the horizon"):
        integrate_adaptive(
            problem, StrategyConfig(h_max=2.0, rho=4.0), generate_path(1, 16, 1)
        )
    # floor below the path resolution
    with pytest.raises(UsageError, match="resolution"):
        integrate_adaptive(problem, CFG, generate_path(1, 8, 1))
    # grid too coarse to separate floor from ceiling
    cfg = StrategyConfig(h_max=2.5 * 2.0**-4, rho=1.2)
    with pytest.raises(UsageError, match="separate"):
        integrate_adaptive(problem, cfg, generate_path(1, 4, 1))


# ---------------------------------------------------------------------------
# Levy-area stripping
# ---------------------------------------------------------------------------


def test_zero_area_is_harmless_when_noise_commutes():
    # On a commutative problem the area terms cancel identically, so
    # stripping them changes nothing beyond rounding; the meshes remain
    # identical as well.
    problem = make_builtin("twod_commutative")
    cfg = StrategyConfig(h_max=2.0**-6, rho=8.0)
    for seed in range(5):
        path = generate_path(100 + seed, 12, 2)
        a = integrate_adaptive(problem, cfg, path)
        b = integrate_adaptive(problem, cfg, path, zero_levy_area=True)
        np.testing.assert_array_equal(a.times, b.times)
        assert float(np.max(np.abs(a.final_state - b.final_state))) <= 1e-10


def test_zero_area_is_exact_on_diagonal_noise():
    problem = make_builtin("twod_diagonal")
    path = generate_path(7, 12, 2)
    a = integrate_fixed(problem, "milstein", 2.0**-6, path)
    b = integrate_fixed(problem, "milstein", 2.0**-6, path, zero_levy_area=True)
    np.testing.assert_array_equal(a.states, b.states)


def test_zero_area_matters_without_commutativity():
    problem = make_builtin("twod_noncommutative")
    gaps = []
    for seed in range(5):
        path = generate_path(100 + seed, 12, 2)
        a = integrate_fixed(problem, "milstein", 2.0**-6, path)
        b = integrate_fixed(problem, "milstein", 2.0**-6, path, zero_levy_area=True)
        gaps.append(float(np.max(np.abs(a.final_state - b.final_state))))
    assert max(gaps) > 1e-4
    assert min(gaps) > 1e-6


# ---------------------------------------------------------------------------
# SolutionPath container
# ---------------------------------------------------------------------------


def test_solution_path_trivial_properties():
    sol = SolutionPath(
        times=np.array([0.0]),
        states=np.array([[1.0]]),
        backstop_flags=np.zeros(0, dtype=bool),
    )
    assert sol.num_steps == 0
    assert sol.backstop_flags.sum() == 0
    assert sol.step_sizes.size == 0


def test_solution_csv_round_trip(tmp_path):
    problem = make_builtin("twod_noncommutative")
    cfg = StrategyConfig(h_max=2.0**-5, rho=4.0)
    sol = integrate_adaptive(problem, cfg, generate_path(12, 10, 2))
    argv = ["single-path", "--out-dir", str(tmp_path), "--problem", "twod_noncommutative",
            "--h-max", "2^-5", "--rho", "4", "--seed", "12", "--fine-exponent", "10"]
    assert main(argv) == 0
    lines = (tmp_path / "single_path.csv").read_text().strip().split("\n")
    assert lines[0] == "t,y0,y1,backstop"
    assert len(lines) == len(sol.times) + 1
    for n, line in enumerate(lines[1:]):
        t, y0, y1, flag = line.split(",")
        assert float(t) == sol.times[n]
        assert float(y0) == sol.states[n, 0]
        assert float(y1) == sol.states[n, 1]
        expected_flag = 0 if n == 0 else int(sol.backstop_flags[n - 1])
        assert int(flag) == expected_flag
