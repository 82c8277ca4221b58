"""Streamed generation: paths drawn in slabs, and lockstep solves over a
sliding window of prefix arrays."""

import math
import os
import random
import tracemalloc

import numpy as np
import numpy.random.bit_generator
import pytest

import milsde.adaptive
import milsde.wiener
from milsde import (
    BUILTIN_NAMES,
    FIXED_SCHEMES,
    INCREMENT_GRID,
    PathPrefixes,
    PathStreams,
    StrategyConfig,
    UsageError,
    backstop_probability,
    convergence_table,
    generate_path,
    integrals_over,
    integrate_adaptive_batch,
    make_builtin,
    moment_check,
    uniform_integrals,
)

# ---------------------------------------------------------------------------
# Generation in slabs
# ---------------------------------------------------------------------------


def _draw_in_chunks(streams, sizes):
    parts = []
    while streams.drawn < streams.num_steps:
        size = sizes[len(parts) % len(sizes)]
        parts.append(streams.draw(min(size, streams.num_steps - streams.drawn)))
    return np.concatenate(parts, axis=2)


def test_chunked_draws_equal_generate_path():
    # Each path of a block continues its own streams, so drawing in
    # chunks that do not divide 2^L gives generate_path's increments.
    for level, m, horizon in [(20, 1, 1.0), (14, 2, 1.0), (12, 2, 2.5), (16, 3, 1.0), (5, 2, 1.0)]:
        seeds = (77, 3, (1 << 64) + 5)
        streams = PathStreams(seeds, level, m, horizon)
        joined = _draw_in_chunks(streams, (1, 7, 1000, 4096))
        for g, seed in enumerate(seeds):
            path = generate_path(seed, level, m, horizon)
            np.testing.assert_array_equal(joined[g] * INCREMENT_GRID, path.increments)
        with pytest.raises(UsageError, match="left"):
            streams.draw(1)


def test_uniform_integrals_over_slabs_equal_the_whole_path():
    # The windows a streamed block's prefix arrays hold, slab after slab
    # of whole windows, have, for each path of the block, the bits
    # uniform_integrals gives the whole path.
    for level, m, substeps in [(14, 2, 16), (12, 3, 8), (10, 1, 4), (10, 2, 1)]:
        seeds = (5, 6, 7)
        streams = PathStreams(seeds, level, m)
        sizes = [substeps * k for k in (1, 3, 50, 9)]
        window = PathPrefixes.streamed(3, m, 1 << level, 2.0**-level, 1.0, max(sizes), substeps)
        parts = [[], []]
        while window.frontier < window.num_steps:
            window.slab = sizes[len(parts[0]) % 4]
            first = window.frontier
            window.advance(first, streams.draw)
            steps = window.frontier - first
            count = steps // substeps
            start = np.repeat(first + substeps * np.arange(count), 3)
            rows = np.tile(np.arange(3), count)
            h, dW, A = window.windows(rows, start, start + substeps)
            assert steps % substeps == 0 and (h == substeps * 2.0**-level).all()
            parts[0].append(dW.reshape(count, 3, m))
            I = milsde.wiener.double_integrals(h[:, None], dW, A)
            parts[1].append(I.reshape(count, 3, m, m))
        dW, I = (np.concatenate(p) for p in parts)
        for g, seed in enumerate(seeds):
            _, _, whole_dW, whole_I = uniform_integrals(generate_path(seed, level, m), substeps)
            np.testing.assert_array_equal(dW[:, g], whole_dW)
            np.testing.assert_array_equal(I[:, g], whole_I)


def test_generating_a_path_draws_no_os_entropy(monkeypatch):
    # Streams are keyed by (seed, component); a fresh Philox built from a
    # key would also draw OS entropy for a seed sequence it then ignores.
    def refuse(*args):
        raise AssertionError("OS entropy drawn")

    monkeypatch.setattr(numpy.random.bit_generator, "randbits", refuse, raising=False)
    monkeypatch.setattr(random, "_urandom", refuse, raising=False)
    monkeypatch.setattr(os, "urandom", refuse)
    generate_path(11, 10, 2)
    PathStreams([1, 2], 8, 2).draw(100)
    moment_check(orders=(2,), num_windows=100, resolution_exponent=6)


# ---------------------------------------------------------------------------
# Lockstep over streamed prefix arrays
# ---------------------------------------------------------------------------

LANE_CONFIGS = [
    StrategyConfig(h_max=2.0**-6, rho=4.0),
    StrategyConfig(h_max=2.0**-5, rho=3.0),
    StrategyConfig(h_max=2.0**-4, rho=8.0, delta=2.0**-5),
    StrategyConfig(h_max=2.0**-6, rho=1.5),
]
# h_max is the horizon: this lane's window spans the path.
WHOLE_HORIZON = StrategyConfig(h_max=1.0, rho=8.0)


def _lockstep(problem, configs, prefixes, draw=None, **kwargs):
    """The lanes over whole arrays, or, given the ``draw`` of a streamed
    window, driven as the harness's block solve drives them: resumed
    until every lane waits, then the window advanced by a slab."""
    rows = np.repeat(np.arange(len(prefixes.sums)), len(configs))
    lanes = configs * len(prefixes.sums)
    if draw is None:
        return integrate_adaptive_batch(problem, lanes, prefixes, rows, **kwargs)
    rounds = milsde.adaptive._lockstep(problem, lanes, prefixes, rows, **kwargs)
    while True:
        try:
            keep_from = next(rounds)
        except StopIteration as done:
            return done.value
        prefixes.advance(keep_from, draw)


def _whole(problem, seeds, level):
    paths = [generate_path(seed, level, problem.dim_noise).increments for seed in seeds]
    return PathPrefixes.of(np.stack(paths), 2.0**-level, 1.0)


def _streamed(problem, seeds, level, configs, unit):
    """A streamed window over the paths of ``seeds``, and its draw."""
    streams = PathStreams(seeds, level, problem.dim_noise)
    widest = max(math.ceil(c.h_max * 2**level) for c in configs)
    window = PathPrefixes.streamed(
        len(seeds), problem.dim_noise, 1 << level, 2.0**-level, 1.0, widest, unit
    )
    return window, streams.draw


def _assert_batches_equal(a, b):
    for name in ("offsets", "positions", "states", "backstop_flags", "divergent"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_streamed_lockstep_equals_the_whole_path_lockstep_bitwise(name, monkeypatch):
    # With the cap at one byte every slab is one unit of 37 fine steps,
    # so lanes' windows straddle slab ends, and the window slides.
    problem = make_builtin(name)
    seeds, level = (0, 1, 2), 12
    whole = _whole(problem, seeds, level)
    monkeypatch.setattr(milsde.wiener, "_GROUP_BYTES", 1)
    for configs in (LANE_CONFIGS, LANE_CONFIGS + [WHOLE_HORIZON]):
        for scheme in FIXED_SCHEMES:
            for zero_area in (False, True):
                kwargs = dict(scheme=scheme, zero_levy_area=zero_area)
                streamed, draw = _streamed(problem, seeds, level, configs, 37)
                batch = _lockstep(problem, configs, streamed, draw, **kwargs)
                _assert_batches_equal(batch, _lockstep(problem, configs, whole, **kwargs))
                assert streamed.slab == 37
                assert streamed.frontier == streamed.num_steps
                assert streamed.start > 0
                if configs is LANE_CONFIGS:
                    assert streamed.sums.shape[2] == 256 + 37 < (1 << level) + 1


def _overflowing_problem():
    # From 0, one step of h = 1 goes to 2^1023 (1 + dW): finite where
    # the path ends below 1, non-finite where it ends above.
    c = 2.0**1023
    return milsde.SdeProblem(
        dim_state=1,
        dim_noise=1,
        drift=lambda x: np.full_like(x, c),
        diffusion_column=lambda x, i: np.full_like(x, c),
        diffusion_jacobian=lambda x, i: np.zeros((1, 1)),
        structure="additive",
        initial_state=np.array([0.0]),
        horizon=1.0,
        name="overflowing",
    )


def test_lane_that_diverges_on_the_horizon_step(monkeypatch):
    # Seed 1's path ends at 2.15 and seed 0's at -0.40, so on the first
    # round the whole-horizon lane of seed 1 goes non-finite on the step
    # that lands on the horizon, while seed 0's finishes there. The
    # first is divergent at node 0 with no step counted; each lane of
    # the batch equals its one-lane solve, on whole and streamed arrays.
    problem, seeds, level = _overflowing_problem(), (1, 0), 10
    configs = LANE_CONFIGS + [WHOLE_HORIZON]
    whole = _lockstep(problem, configs, _whole(problem, seeds, level))
    monkeypatch.setattr(milsde.wiener, "_GROUP_BYTES", 1)
    streamed, draw = _streamed(problem, seeds, level, configs, 16)
    batch = _lockstep(problem, configs, streamed, draw)
    _assert_batches_equal(batch, whole)
    for name in ("ends", "final_states", "num_steps", "flagged"):
        np.testing.assert_array_equal(getattr(batch, name), getattr(whole, name))
    diverged, finished = len(configs) - 1, 2 * len(configs) - 1
    assert whole.divergent[diverged] and not whole.divergent[finished]
    assert (whole.ends[diverged], whole.num_steps[diverged]) == (0, 0)
    assert (whole.ends[finished], whole.num_steps[finished]) == (1 << level, 1)
    np.testing.assert_array_equal(whole.final_states[diverged], problem.initial_state)
    assert np.isfinite(whole.final_states).all()
    for lane, (seed, config) in enumerate((s, c) for s in seeds for c in configs):
        one = milsde.integrate_adaptive(problem, config, generate_path(seed, level, 1))
        sol = whole.solution(lane)
        assert sol.divergent == one.divergent
        for name in ("times", "states", "backstop_flags"):
            np.testing.assert_array_equal(getattr(sol, name), getattr(one, name))


def test_lockstep_groups_records_by_lane():
    # Records are split by lane once; each lane's are its steps in order.
    problem = make_builtin("twod_noncommutative")
    batch = _lockstep(problem, LANE_CONFIGS, _whole(problem, (4, 5), 10))
    for lane in range(len(batch.divergent)):
        sol = batch.solution(lane)
        assert batch.num_steps[lane] == sol.num_steps
        assert (np.diff(sol.times) > 0).all()
        assert sol.final_time == 1.0


def test_streamed_window_refuses_a_lane_wider_than_it_holds(monkeypatch):
    problem = make_builtin("scalar_mult")
    monkeypatch.setattr(milsde.wiener, "_GROUP_BYTES", 1)
    narrow, draw = _streamed(problem, (0,), 10, [StrategyConfig(h_max=2.0**-8, rho=2.0)], 4)
    with pytest.raises(UsageError, match="window"):
        _lockstep(problem, [StrategyConfig(h_max=2.0**-2, rho=2.0)], narrow, draw)


def test_the_public_lockstep_refuses_a_window_without_every_node(monkeypatch):
    # Only whole arrays run to the end in one call. A streamed window is
    # refused before its first slab, part way, and at the horizon once it
    # has dropped node 0.
    problem = make_builtin("scalar_mult")
    monkeypatch.setattr(milsde.wiener, "_GROUP_BYTES", 1)
    window, draw = _streamed(problem, (0, 1), 10, LANE_CONFIGS, 8)
    while True:
        with pytest.raises(UsageError, match="every node"):
            _lockstep(problem, LANE_CONFIGS, window)
        if window.frontier == window.num_steps:
            break
        window.advance(window.frontier, draw)
    assert window.start > 0


# ---------------------------------------------------------------------------
# The harness's windows
# ---------------------------------------------------------------------------


@pytest.fixture
def windows(monkeypatch):
    """(bytes held, nodes held, num_steps, paths, m) after every advance."""
    seen = []
    advance = PathPrefixes.advance

    def spy(self, keep_from, draw):
        advance(self, keep_from, draw)
        seen.append(
            (self.sums.nbytes, self.sums.shape[2], self.num_steps,
             len(self.sums), self.dim_noise)
        )

    monkeypatch.setattr(PathPrefixes, "advance", spy)
    return seen


def _table(**overrides):
    config = dict(
        problem="twod_noncommutative",
        h_max_values=tuple(2.0**-e for e in range(8, 3, -1)),
        rho=4.0,
        schemes=("adaptive",),
        num_paths=6,
        reference_exponent=10,
        fine_exponent=14,
    )
    config.update(overrides)
    return convergence_table(milsde.ExperimentConfig(**config))


def test_block_window_stays_within_the_cap(windows):
    # Pass 1 and the backstop curve hold a sliding window, not whole
    # paths, within the 2 MiB cap.
    _table()
    backstop_probability("scalar_probe", (2.0, 4.0), h_max=2.0**-8, num_paths=6, fine_exponent=18)
    assert len({w[2] for w in windows}) == 2
    for nbytes, nodes, n, _, _ in windows:
        assert nbytes <= milsde.wiener._GROUP_BYTES
        assert nodes < n + 1


def test_block_window_keeps_one_widest_window_below_the_cap(windows, monkeypatch):
    # With the cap below one window, the window holds the widest lane's
    # h_max plus one unit: a reference window (16 fine steps) in a table,
    # one fine step on the backstop curve.
    monkeypatch.setattr(milsde.wiener, "_GROUP_BYTES", 1)
    _table(num_paths=2)
    table_windows = list(windows)
    windows.clear()
    backstop_probability("scalar_probe", (2.0, 4.0), h_max=2.0**-8, num_paths=2, fine_exponent=12)
    for seen, widest, unit in ((table_windows, 2**10, 16), (windows, 2**4, 1)):
        assert seen
        for nbytes, nodes, _, paths, m in seen:
            assert nodes == widest + unit
            assert nbytes == paths * PathPrefixes.bytes_per_node(m) * nodes


def test_drawn_slabs_skip_the_grid_check(monkeypatch):
    # Slabs the library draws are grid units already; only floats from
    # outside (here, a WienerPath's window) are converted and checked.
    calls = []

    def spy(increments, _original=milsde.wiener._grid_units):
        calls.append(increments.shape)
        return _original(increments)

    monkeypatch.setattr(milsde.wiener, "_grid_units", spy)
    _table(num_paths=2, schemes=("adaptive", "milstein"))
    backstop_probability("scalar_probe", (2.0, 4.0), h_max=2.0**-8, num_paths=2, fine_exponent=12)
    moment_check(orders=(2,), num_windows=100, resolution_exponent=6)
    assert calls == []
    integrals_over(generate_path(1, 6, 2), 0, 64)
    assert calls == [(1, 2, 64)]


@pytest.mark.parametrize("m", [1, 2])
def test_advance_leaves_the_drawn_slab_unchanged(m, monkeypatch):
    # Each fill chunk adds W to its first increment and takes it off again.
    monkeypatch.setattr(milsde.wiener, "_FILL_CHUNK", 8)
    streams = PathStreams((3, 4), 10, m)
    window = PathPrefixes.streamed(2, m, 1 << 10, 2.0**-10, 1.0, 16, 8)
    slabs = []

    def draw(steps):
        slabs.append(streams.draw(steps))
        slabs.append(slabs[-1].copy())
        return slabs[-2]

    while window.frontier < window.num_steps:
        window.advance(window.frontier, draw)
    assert slabs
    for slab, drawn in zip(slabs[::2], slabs[1::2]):
        np.testing.assert_array_equal(slab, drawn)


def test_slabs_are_drawn_and_filled_under_the_callers_error_state(monkeypatch):
    # numpy's error state is a context variable: a slab drawn while the
    # lockstep sits suspended inside its errstate block would be drawn,
    # and its prefix nodes written, with the caller's warnings silenced.
    seen = []
    for cls, name in ((PathStreams, "draw"), (PathPrefixes, "_append")):
        def spy(self, *args, _original=getattr(cls, name)):
            seen.append(np.geterr())
            return _original(self, *args)

        monkeypatch.setattr(cls, name, spy)
    with np.errstate(all="warn"):
        caller = np.geterr()
        _table(num_paths=2, schemes=("adaptive", "euler"))
        backstop_probability("scalar_probe", (2.0, 4.0), h_max=2.0**-8, num_paths=2, fine_exponent=12)
    assert len(seen) > 4
    assert all(state == caller for state in seen)


def test_table_memory_stays_below_a_whole_path():
    # Two 2^20-step scalar_mult paths: pass 1 streams them through the
    # prefix window and the reference, pass 2 through the comparators,
    # so the table never holds a whole 8 MiB path or reference mesh.
    config = milsde.ExperimentConfig(
        problem="scalar_mult",
        h_max_values=(2.0**-8, 2.0**-7, 2.0**-6),
        rho=16.0,
        schemes=("adaptive", "euler"),
        num_paths=2,
        reference_exponent=8,
        fine_exponent=20,
    )
    tracemalloc.start()
    try:
        convergence_table(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 << 20, f"traced peak {peak / 2**20:.2f} MiB"
