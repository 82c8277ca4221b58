"""Streamed generation: paths drawn in slabs, and lockstep solves over a
sliding window of prefix arrays."""

import math
import os
import random

import numpy as np
import numpy.random.bit_generator
import pytest

import milsde.wiener
from milsde import (
    BUILTIN_NAMES,
    FIXED_SCHEMES,
    PathPrefixes,
    PathStreams,
    StrategyConfig,
    UsageError,
    backstop_probability,
    convergence_table,
    generate_path,
    integrate_adaptive_batch,
    make_builtin,
    moment_check,
    refine_path,
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
            np.testing.assert_array_equal(joined[g], path.increments)
        with pytest.raises(UsageError, match="left"):
            streams.draw(1)


def test_uniform_integrals_over_slabs_equal_the_whole_path():
    # Slabs that are whole numbers of windows give each window, of each
    # path of the stack, the bits uniform_integrals gives the whole path.
    for level, m, substeps in [(14, 2, 16), (12, 3, 8), (10, 1, 4), (10, 2, 1)]:
        seeds = (5, 6, 7)
        streams = PathStreams(seeds, level, m)
        sizes = [substeps * k for k in (1, 3, 50, 9)]
        parts = [[], []]
        while streams.drawn < streams.num_steps:
            steps = min(sizes[len(parts[0]) % 4], streams.num_steps - streams.drawn)
            count, h, dW, I = milsde.wiener._uniform_windows(
                streams.draw(steps), 2.0**-level, substeps
            )
            assert count == steps // substeps and h == substeps * 2.0**-level
            parts[0].append(dW)
            parts[1].append(I)
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
    path = generate_path(11, 10, 2)
    refine_path(path, 1)
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


def _lockstep(problem, configs, prefixes, **kwargs):
    rows = np.repeat(np.arange(len(prefixes.sums)), len(configs))
    return integrate_adaptive_batch(problem, configs * len(prefixes.sums), prefixes, rows, **kwargs)


def _whole(problem, seeds, level):
    prefixes = PathPrefixes.empty(len(seeds), problem.dim_noise, 1 << level, 2.0**-level, 1.0)
    for g, seed in enumerate(seeds):
        prefixes.fill(g, generate_path(seed, level, problem.dim_noise).increments)
    return prefixes


def _streamed(problem, seeds, level, configs, unit):
    streams = PathStreams(seeds, level, problem.dim_noise)
    widest = max(math.ceil(c.h_max * 2**level) for c in configs)
    return PathPrefixes.streamed(
        len(seeds), problem.dim_noise, 1 << level, 2.0**-level, 1.0, streams.draw, widest, unit
    )


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
                streamed = _streamed(problem, seeds, level, configs, 37)
                batch = _lockstep(problem, configs, streamed, **kwargs)
                _assert_batches_equal(batch, _lockstep(problem, configs, whole, **kwargs))
                assert streamed.slab == 37
                assert streamed.frontier == streamed.num_steps
                assert streamed.start > 0
                if configs is LANE_CONFIGS:
                    assert streamed.sums.shape[2] == 256 + 37 < (1 << level) + 1


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
    narrow = _streamed(problem, (0,), 10, [StrategyConfig(h_max=2.0**-8, rho=2.0)], 4)
    with pytest.raises(UsageError, match="window"):
        _lockstep(problem, [StrategyConfig(h_max=2.0**-2, rho=2.0)], narrow)


# ---------------------------------------------------------------------------
# The harness's windows
# ---------------------------------------------------------------------------


@pytest.fixture
def windows(monkeypatch):
    """(bytes held, nodes held, num_steps, paths, m) after every advance."""
    seen = []
    advance = PathPrefixes.advance

    def spy(self, keep_from):
        advance(self, keep_from)
        seen.append(
            (self.sums.nbytes + self.low.nbytes, self.sums.shape[2], self.num_steps,
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
