import dataclasses
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import milsde.wiener
from milsde import (
    INCREMENT_GRID,
    IteratedIntegrals,
    PathStreams,
    ResourceError,
    StrategyConfig,
    UsageError,
    euler_number,
    generate_path,
    integrals_over,
    integrate_adaptive,
    integrate_fixed,
    make_builtin,
    moment_check,
    moment_constant,
    uniform_integrals,
)

# ---------------------------------------------------------------------------
# Generation: shapes, determinism, law, quantization
# ---------------------------------------------------------------------------


def test_path_shapes_and_metadata():
    path = generate_path(3, 10, 2, horizon=1.0)
    assert path.increments.shape == (2, 1024)
    assert path.dim_noise == 2
    assert path.num_steps == 1024
    assert path.resolution == 2.0**-10
    assert path.resolution_exponent == 10
    assert path.num_steps * path.resolution == path.horizon


def test_generation_is_deterministic_per_seed():
    a = generate_path(42, 8, 2)
    b = generate_path(42, 8, 2)
    c = generate_path(43, 8, 2)
    np.testing.assert_array_equal(a.increments, b.increments)
    assert not np.array_equal(a.increments, c.increments)
    # components use independent streams
    assert not np.array_equal(a.increments[0], a.increments[1])


def test_increment_law():
    # One long component: mean and variance of N(0, h_ref) samples.
    path = generate_path(7, 17, 1)
    inc = path.increments[0]
    n = inc.size
    h = path.resolution
    assert abs(inc.mean()) <= 4.0 * math.sqrt(h / n)
    sample_var = inc.var(ddof=1)
    assert abs(sample_var - h) <= 4.0 * h * math.sqrt(2.0 / (n - 1))


def test_endpoint_variance():
    # W(1) ~ N(0, 1) across seeds.
    n = 2000
    finals = np.array(
        [integrals_over(generate_path(seed, 8, 1), 0, 256).dW[0] for seed in range(n)]
    )
    assert abs(finals.mean()) <= 4.0 / math.sqrt(n)
    assert abs(finals.var(ddof=1) - 1.0) <= 4.0 * math.sqrt(2.0 / (n - 1))


def test_increments_are_on_the_grid():
    path = generate_path(5, 12, 2)
    units = path.increments / INCREMENT_GRID
    np.testing.assert_array_equal(units, np.rint(units))


def test_window_sums_add_bit_exactly():
    path = generate_path(11, 12, 2)
    rng = np.random.default_rng(0)
    n = path.num_steps
    for _ in range(200):
        a, b, c = sorted(rng.integers(0, n + 1, size=3))
        if a == b or b == c:
            continue
        left = integrals_over(path, a, b).dW
        right = integrals_over(path, b, c).dW
        total = integrals_over(path, a, c).dW
        np.testing.assert_array_equal(left + right, total)
        # and both agree with direct summation of the slice
        np.testing.assert_array_equal(
            total, path.increments[:, a:c].sum(axis=1)
        )


def test_generation_stream_matches_the_explicit_formula():
    # Component i of seed s is the Philox stream keyed by (s, i), scaled
    # by sqrt(h_ref) and rounded to the 2^-32 grid, bit for bit.
    for level, m in [(20, 1), (14, 2), (12, 2), (16, 3)]:
        path = generate_path(77, level, m)
        h_ref = 2.0**-level
        for i in range(m):
            key = np.array([77, i], dtype=np.uint64)
            z = np.random.Generator(np.random.Philox(key=key)).standard_normal(1 << level)
            expected = np.rint(z * math.sqrt(h_ref) * 2.0**32) * 2.0**-32
            np.testing.assert_array_equal(path.increments[i], expected)


def test_generate_validation():
    with pytest.raises(UsageError):
        generate_path(1, 0, 1)
    with pytest.raises(UsageError):
        generate_path(1, 8, 0)
    with pytest.raises(UsageError):
        generate_path(1, 8, 1, horizon=0.0)
    with pytest.raises(ResourceError):
        generate_path(1, 30, 8)  # 64 GiB of increments
    # True drew a 2-step path; 12.5 passed the range check and raised a
    # raw TypeError further on.
    for level in (True, np.True_, 12.5, 4.0, "4"):
        with pytest.raises(UsageError, match="resolution_exponent"):
            generate_path(0, level, 1)
    assert generate_path(0, np.int64(4), 1).increments.shape == (1, 16)


def test_generate_path_holds_one_copy_of_its_increments():
    # The budget counts the float increments; drawn a slab at a time, a
    # path never holds a second whole copy of them as grid units.
    tracemalloc.start()
    try:
        path = generate_path(1, 20, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * path.increments.nbytes, f"traced peak {peak / 2**20:.2f} MiB"


@pytest.mark.parametrize("horizon", [1.0, 0.3, 2.5])
def test_the_grid_is_derived_from_the_horizon_and_the_step_count(horizon):
    # A path's resolution is T / n, with nothing to contradict it, so the
    # steps of every solve sum to the horizon exactly.
    level, n = 8, 1 << 8
    increments = generate_path(5, level, 1, horizon).increments
    path = milsde.wiener.WienerPath(increments, horizon)
    assert path.resolution == horizon / n
    assert path.resolution_exponent == level == math.log2(n)
    assert milsde.wiener.PathPrefixes.of(increments, horizon).resolution == horizon / n
    problem = dataclasses.replace(make_builtin("scalar_mult"), horizon=horizon)
    config = StrategyConfig(h_max=2.0**-4, rho=2.0)
    assert integrate_adaptive(problem, config, path).final_time == horizon
    assert integrate_fixed(problem, "milstein", 8 * path.resolution, path).final_time == horizon


def test_a_path_refuses_a_grid_it_cannot_be_on():
    with pytest.raises(UsageError, match="power of two"):
        milsde.wiener.WienerPath(np.zeros((1, 12)), 1.0)
    for horizon in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(UsageError, match="horizon"):
            milsde.wiener.WienerPath(np.zeros((1, 16)), horizon)


def test_horizons_whose_draws_cannot_be_held_as_grid_units_are_refused():
    # An infinite or huge horizon made every increment -2**31 (an int64
    # cast of inf or of values beyond its range), with only a warning.
    with pytest.raises(UsageError, match="horizon"):
        generate_path(0, 4, 1, horizon=math.inf)
    with pytest.raises(UsageError, match="horizon"):
        generate_path(0, 2, 1, horizon=1e30)
    with pytest.raises(UsageError, match="horizon"):
        PathStreams([0], 2, 1, 2.0**41)
    # The bound itself is held exactly: 2**11 standard deviations of W.
    path = generate_path(0, 2, 1, horizon=2.0**40)
    assert np.isfinite(path.increments).all()
    assert np.abs(path.increments).max() < 2.0**25


def test_horizons_too_small_to_form_a_grid_are_refused():
    # At 5e-324 the resolution T / n is 0, and the solves would divide
    # by it.
    with pytest.raises(UsageError, match="horizon"):
        generate_path(0, 4, 1, horizon=5e-324)
    with pytest.raises(UsageError, match="horizon"):
        dataclasses.replace(make_builtin("scalar_mult"), horizon=5e-324)
    with pytest.raises(UsageError, match="horizon"):
        PathStreams([0], 2, 1, 2.0**-41)


@pytest.mark.parametrize("name", ["scalar_mult", "twod_noncommutative"])
def test_the_smallest_horizon_still_forms_a_grid(name):
    horizon = 2.0**-40
    problem = dataclasses.replace(make_builtin(name), horizon=horizon)
    path = generate_path(5, 8, problem.dim_noise, horizon)
    fixed = integrate_fixed(problem, "milstein", 16 * path.resolution, path)
    config = StrategyConfig(h_max=horizon / 16, rho=2.0)
    adaptive = integrate_adaptive(problem, config, path)
    assert (fixed.final_time, fixed.num_steps) == (horizon, 16)
    assert (adaptive.final_time, adaptive.num_steps) == (horizon, 32)


# ---------------------------------------------------------------------------
# Iterated integrals
# ---------------------------------------------------------------------------


def test_integrals_window_validation():
    path = generate_path(2, 6, 2)
    with pytest.raises(UsageError):
        integrals_over(path, -1, 4)
    with pytest.raises(UsageError):
        integrals_over(path, 4, 4)
    with pytest.raises(UsageError):
        integrals_over(path, 0, 65)


def test_single_substep_window_has_zero_area():
    path = generate_path(9, 8, 3)
    ii = integrals_over(path, 17, 18)
    np.testing.assert_array_equal(ii.A, np.zeros((3, 3)))
    h = path.resolution
    dW = ii.dW
    assert ii.I[0, 0] == 0.5 * (dW[0] * dW[0] - h)
    assert ii.I[0, 1] == 0.5 * (dW[0] * dW[1])


def _exact_areas(path, a, b):
    # Left-point sum of W_i dW_j - W_j dW_i over [a, b) in Python
    # integers (2^-32 units), W taken relative to the window start, then
    # rounded once: A[i, j] = sum / 2 in 2^-64 units.
    units = [[round(v * 2**32) for v in row] for row in path.increments[:, a:b]]
    m = len(units)
    out = np.zeros((m, m))
    for i in range(m):
        for j in range(i + 1, m):
            wi = wj = total = 0
            for di, dj in zip(units[i], units[j]):
                total += wi * dj - wj * di
                wi += di
                wj += dj
            out[i, j] = total / 2**65
            out[j, i] = -out[i, j]
    return out


def test_areas_equal_the_exact_left_point_sum():
    # Random windows, one-step windows and whole paths: the O(1) prefix
    # area is the exact left-point sum, correctly rounded, and reading it
    # through the whole path's prefix arrays gives the same bits.
    rng = np.random.default_rng(5)
    for seed, level, m in [(1, 4, 2), (2, 8, 3), (3, 12, 2), (4, 16, 2), (5, 16, 3)]:
        path = generate_path(seed, level, m)
        n = path.num_steps
        pref = path.prefixes()
        windows = [(0, n), (n - 1, n)]
        for _ in range(12):
            a = int(rng.integers(0, n))
            windows.append((a, int(rng.integers(a + 1, min(n, a + 600) + 1))))
        for a, b in windows:
            exact = _exact_areas(path, a, b)
            np.testing.assert_array_equal(integrals_over(path, a, b).A, exact)
            _, _, area = pref.windows(np.zeros(1, dtype=int), np.array([a]), np.array([b]))
            np.testing.assert_array_equal(area[0], exact)


def test_areas_survive_prefix_chunk_boundaries(monkeypatch):
    # The exact cross sums carry across the chunks the prefix arrays are
    # built in; tiny chunks must give the same areas as one chunk.
    path = generate_path(8, 10, 3)
    windows = [(0, 1024), (3, 900), (511, 513), (100, 101)]
    whole = [integrals_over(path, a, b).A for a, b in windows]
    monkeypatch.setattr(milsde.wiener, "_FILL_CHUNK", 7)
    chunked = milsde.wiener.PathPrefixes.of(path.increments, 1.0)
    for (a, b), A in zip(windows, whole):
        _, _, area = chunked.windows(np.zeros(1, dtype=int), np.array([a]), np.array([b]))
        np.testing.assert_array_equal(area[0], A)


def _prefix_windows(increments, a, b):
    # (dW, per-pair areas) of [a, b) read from the whole path's prefix arrays.
    m = increments.shape[0]
    pref = milsde.wiener.PathPrefixes.of(increments, 1.0)
    _, dW, area = pref.windows(np.zeros(1, dtype=int), np.array([a]), np.array([b]))
    i, j = np.triu_indices(m, 1)
    return dW[0], area[0][i, j]


@pytest.mark.parametrize("m", [1, 2, 3])
def test_whole_window_sums_equal_the_prefix_arrays(monkeypatch, m):
    # A window read at the frontier of a streamed fill has the bits the
    # whole path's prefix arrays give it: whole paths at every L up to 16,
    # one-step windows (area exactly 0) and windows across the fill
    # chunks' and slabs' boundaries.
    i, j = np.triu_indices(m, 1)
    for level in range(1, 17):
        path = generate_path(100 + level, level, m)
        n = path.num_steps
        windows = {(0, n), (n - 1, n), (n // 3, n // 3 + 1), (n // 4, n - n // 4)}
        if n > 4096:
            windows |= {(4095, 4097), (4000, n), (1, min(n, 3 * 4096 + 5))}
        for a, b in sorted(windows):
            got = integrals_over(path, a, b)
            want_dW, want_area = _prefix_windows(path.increments, a, b)
            np.testing.assert_array_equal(got.dW, want_dW)
            np.testing.assert_array_equal(got.A[i, j], want_area)
            if b - a == 1:
                np.testing.assert_array_equal(got.A, 0.0)
    # Several rows at once, chunks that split every row and slabs of one
    # step change nothing.
    stack = np.stack([generate_path(s, 10, m).increments for s in (1, 2, 3)])

    def whole_windows():
        units = milsde.wiener._grid_units
        return milsde.wiener._whole_windows(3, m, 1024, lambda a, b: units(stack[..., a:b]))

    read = [whole_windows()]
    monkeypatch.setattr(milsde.wiener, "_FILL_CHUNK", 7)
    read.append(whole_windows())
    monkeypatch.setattr(milsde.wiener, "_GROUP_BYTES", 1)
    read.append(whole_windows())
    for g, inc in enumerate(stack):
        want_dW, want_area = _prefix_windows(inc, 0, 1024)
        for dW, area in read:
            np.testing.assert_array_equal(dW[g], want_dW)
            np.testing.assert_array_equal(area[g], want_area)


def test_whole_window_sums_near_the_limb_bounds():
    # |W| just below 2**10 and |dW| just below 2**4 over 64 steps put
    # n |W| |dW| at about 98 % of its 2**84 bound; the sums stay exact.
    rng = np.random.default_rng(3)
    grid = INCREMENT_GRID
    signs = np.where(rng.random((3, 64)) < 0.5, -1.0, 1.0)
    signs[0] = 1.0
    inc = signs * (16.0 - grid * rng.integers(1, 1000, size=(3, 64)))
    path = milsde.wiener.WienerPath(inc, 1.0)
    whole = integrals_over(path, 0, 64)
    want_dW, want_area = _prefix_windows(inc, 0, 64)
    np.testing.assert_array_equal(whole.dW, want_dW)
    np.testing.assert_array_equal(whole.A[np.triu_indices(3, 1)], want_area)
    np.testing.assert_array_equal(whole.A, _exact_areas(path, 0, 64))
    # Every window [a, b) read from the whole path's prefix arrays has the
    # bits integrals_over reads at the frontier of its own fill.
    a, b = np.triu_indices(65, 1)
    _, dW, A = milsde.wiener.PathPrefixes.of(inc, 1.0).windows(np.zeros_like(a), a, b)
    for n in range(len(a)):
        want = integrals_over(path, a[n], b[n])
        np.testing.assert_array_equal(dW[n], want.dW)
        np.testing.assert_array_equal(A[n], want.A)


@pytest.mark.parametrize(
    "inc, match",
    [(np.full((2, 4), 0.1), "grid"), (np.full((2, 64), 17.0), "2\\*\\*10")],
)
def test_whole_window_sums_refuse_what_the_prefix_arrays_refuse(inc, match):
    n = inc.shape[1]
    with pytest.raises(UsageError, match=match) as from_prefixes:
        milsde.wiener.PathPrefixes.of(inc, 1.0)
    path = milsde.wiener.WienerPath(inc, 1.0)
    with pytest.raises(UsageError, match=match) as from_sums:
        integrals_over(path, 0, n)
    assert str(from_sums.value) == str(from_prefixes.value)


def test_prefix_arrays_refuse_off_grid_increments():
    with pytest.raises(UsageError, match="grid"):
        milsde.wiener.PathPrefixes.of(np.full((1, 2, 4), 0.1), 1.0)


@pytest.mark.parametrize(
    "units", [math.nan, math.inf, -math.inf, 2.0**63, 2.0**64, -(2.0**64), 0.5, 3.0 + 2.0**-20]
)
def test_grid_units_refuse_what_int64_cannot_hold_exactly(units):
    # One bad increment among on-grid ones: off the 2^-32 grid, not
    # finite, or 2^63 grid units or more from zero.
    inc = np.full((1, 2, 8), 3.0 * INCREMENT_GRID)
    inc[0, 1, 5] = units * INCREMENT_GRID
    with np.errstate(invalid="ignore"), pytest.raises(UsageError, match="grid"):
        milsde.wiener._grid_units(inc)


def test_grid_units_are_exact_across_the_int64_range():
    units = [0, -3, 2**53 + 2, 2**63 - 1024, -(2**63)]
    inc = np.array(units, dtype=float)[None, None] * INCREMENT_GRID
    got = milsde.wiener._grid_units(inc)
    assert got.dtype == np.int64
    assert got.ravel().tolist() == units


def test_scalar_noise_has_no_area():
    path = generate_path(9, 8, 1)
    ii = integrals_over(path, 0, 64)
    np.testing.assert_array_equal(ii.A, [[0.0]])


def test_reconstruction_identities():
    # Diagonal and construction-form identities hold bitwise; the pair
    # sum I[i,j] + I[j,i] equals dW_i dW_j up to one rounding in each
    # addition; A is antisymmetric bitwise.
    rng = np.random.default_rng(99)
    for seed, m in [(1, 2), (2, 3), (3, 2), (4, 3)]:
        path = generate_path(seed, 10, m)
        for _ in range(25):
            a, b = sorted(rng.integers(0, path.num_steps + 1, size=2))
            if a == b:
                continue
            ii = integrals_over(path, a, b)
            dW, A, I, h = ii.dW, ii.A, ii.I, ii.h
            np.testing.assert_array_equal(A, -A.T)
            for i in range(m):
                assert I[i, i] == 0.5 * (dW[i] * dW[i] - h)
                for j in range(m):
                    if i == j:
                        continue
                    assert I[i, j] == 0.5 * (dW[i] * dW[j]) + A[i, j]
                    pair = I[i, j] + I[j, i]
                    prod = dW[i] * dW[j]
                    scale = max(abs(I[i, j]), abs(I[j, i]), abs(prod))
                    assert abs(pair - prod) <= 4.0 * np.finfo(float).eps * scale


def test_area_sign_convention():
    # A[i, j] = (I[i, j] - I[j, i]) / 2 with i the inner component.
    path = generate_path(21, 10, 2)
    ii = integrals_over(path, 0, 512)
    lhs = ii.A[0, 1]
    rhs = 0.5 * (ii.I[0, 1] - ii.I[1, 0])
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_without_area_zeroes_only_the_antisymmetric_part():
    path = generate_path(13, 9, 2)
    ii = integrals_over(path, 0, 512)
    stripped = IteratedIntegrals.from_components(ii.h, ii.dW, np.zeros((2, 2)))
    np.testing.assert_array_equal(stripped.A, np.zeros((2, 2)))
    assert stripped.I[0, 0] == ii.I[0, 0]
    assert stripped.I[0, 1] == stripped.I[1, 0]
    assert stripped.I[0, 1] == 0.5 * (ii.dW[0] * ii.dW[1])


def test_uniform_integrals_match_per_window():
    path = generate_path(31, 10, 2)
    count, h, dw_all, ii_all = uniform_integrals(path, 8)
    assert count == 128
    assert h == 8 * path.resolution
    for s in (0, 1, 63, 127):
        ii = integrals_over(path, s * 8, (s + 1) * 8)
        np.testing.assert_array_equal(dw_all[s], ii.dW)
        np.testing.assert_array_equal(ii_all[s], ii.I)


def test_uniform_integrals_scalar_and_zeroed():
    path = generate_path(31, 8, 1)
    count, h, dw_all, ii_all = uniform_integrals(path, 4)
    np.testing.assert_array_equal(
        ii_all[:, 0, 0], 0.5 * (dw_all[:, 0] ** 2 - h)
    )
    path2 = generate_path(31, 8, 2)
    _, _, dw2, ii2 = uniform_integrals(path2, 4, zero_area=True)
    np.testing.assert_array_equal(ii2[:, 0, 1], ii2[:, 1, 0])
    with pytest.raises(UsageError):
        uniform_integrals(path, 0)
    with pytest.raises(UsageError):
        uniform_integrals(path, 500)


# ---------------------------------------------------------------------------
# Moment constants: exact values against an independent oracle
# ---------------------------------------------------------------------------


def _sech_series(terms):
    # Invert the cosh power series in exact rationals: returns s with
    # sech(x) = sum_k s[k] x^(2k); then E_{2k} = s[k] * (2k)!.
    cosh = [Fraction(1, math.factorial(2 * k)) for k in range(terms)]
    s = [Fraction(1)]
    for k in range(1, terms):
        acc = Fraction(0)
        for j in range(1, k + 1):
            acc += cosh[j] * s[k - j]
        s.append(-acc)
    return s


def test_euler_numbers_match_series_inversion():
    s = _sech_series(11)
    for k in range(11):
        assert euler_number(2 * k) == s[k] * math.factorial(2 * k)
    assert euler_number(1) == 0
    assert euler_number(7) == 0
    with pytest.raises(UsageError):
        euler_number(-2)


def test_euler_numbers_known_values():
    known = {0: 1, 2: -1, 4: 5, 6: -61, 8: 1385, 10: -50521, 12: 2702765}
    for n, value in known.items():
        assert euler_number(n) == value


def test_moment_constants_exact_values():
    assert moment_constant(2).signed == Fraction(1, 4)
    assert moment_constant(4).signed == Fraction(5, 16)
    assert moment_constant(6).signed == Fraction(61, 64)
    assert moment_constant(8).signed == Fraction(1385, 256)
    for odd in (1, 3, 5, 7):
        assert moment_constant(odd).signed == 0
    assert isinstance(moment_constant(2).signed, Fraction)


def test_moment_constants_match_series_inversion():
    s = _sech_series(9)
    for k in range(1, 9):
        expected = Fraction((-1) ** k) * s[k] * math.factorial(2 * k) / 4**k
        assert moment_constant(2 * k).signed == expected


def test_absolute_bounds():
    assert moment_constant(1).absolute_bound == Fraction(1, 2)
    assert moment_constant(2).absolute_bound == Fraction(1, 4)
    assert moment_constant(3).absolute_bound == pytest.approx(
        math.sqrt(5.0 / 64.0)
    )
    assert moment_constant(5).absolute_bound == pytest.approx(
        math.sqrt((1385.0 / 256.0) * 0.25)
    )


def test_moment_constant_range():
    with pytest.raises(UsageError):
        moment_constant(0)
    with pytest.raises(UsageError):
        moment_constant(33)


def test_moment_check_small_run():
    # Orders 1-3 have small enough relative standard error for a cheap
    # run; order 4 is heavy-tailed (E A^8 / (E A^4)^2 ~ 55) and needs
    # the default sample count, exercised by the acceptance suite.
    rows = moment_check(orders=(1, 2, 3), num_windows=3000, resolution_exponent=8)
    by_order = {r.order: r for r in rows}
    assert set(by_order) == {1, 2, 3}
    for r in rows:
        assert r.passed, f"order {r.order}: {r}"
    # E|A| over unit windows sits well below the 1/2 bound
    assert by_order[1].absolute_estimate < 0.45
    assert by_order[2].signed_estimate == pytest.approx(0.25, abs=0.04)


#: float.hex of every field of moment_check's rows, as the prefix arrays
#: gave them before whole windows were summed directly.
GOLDEN_MOMENT_ROWS = {
    (137, 6): [
        (1, "0x0.0p+0", "-0x1.2f2c475ceb4f4p-5", "0x1.41ebeb0e584e9p-5",
         "0x1.0000000000000p-1", "0x1.6dfd12ef47daap-2"),
        (2, "0x1.0000000000000p-2", "0x1.b0eca862c09a3p-3", "0x1.c130f85bc6c82p-6",
         "0x1.0000000000000p-2", "0x1.b0eca862c09a3p-3"),
        (3, "0x0.0p+0", "-0x1.0b78d3cb91ad1p-8", "0x1.1d914dd95b528p-5",
         "0x1.1e3779b97f4a8p-2", "0x1.4c0e90cda9acfp-3"),
        (4, "0x1.4000000000000p-2", "0x1.2cdfd9c8c68fep-3", "0x1.49de85a42d38fp-5",
         "0x1.4000000000000p-2", "0x1.2cdfd9c8c68fep-3"),
        (8, "0x1.5a40000000000p+2", "0x1.efd23d8042390p-3", "0x1.34f85e120a52bp-3",
         "0x1.5a40000000000p+2", "0x1.efd23d8042390p-3"),
    ],
    (100, 1): [
        (1, "0x0.0p+0", "0x1.bdef160f74176p-7", "0x1.dcb4459d41cc3p-6",
         "0x1.0000000000000p-1", "0x1.bdf69d1cc7e83p-3"),
        (2, "0x1.0000000000000p-2", "0x1.580ad39901123p-4", "0x1.cf98be5d01dc6p-7",
         "0x1.0000000000000p-2", "0x1.580ad39901123p-4"),
        (3, "0x0.0p+0", "0x1.c206896d37acep-8", "0x1.7cccf8216babep-7",
         "0x1.1e3779b97f4a8p-2", "0x1.649f639457225p-5"),
        (4, "0x1.4000000000000p-2", "0x1.b841963fe2cf2p-6", "0x1.162f8cd4f9f0ep-7",
         "0x1.4000000000000p-2", "0x1.b841963fe2cf2p-6"),
        (8, "0x1.5a40000000000p+2", "0x1.01774b092d54dp-7", "0x1.eb91b7489ff06p-9",
         "0x1.5a40000000000p+2", "0x1.01774b092d54dp-7"),
    ],
}


@pytest.mark.parametrize(
    "num_windows, level, group",
    [(100, 1, None), (137, 6, None), (137, 6, 40)],
    ids=["100-1", "137-6", "137-6-groups-of-40"],
)
def test_moment_check_rows_are_golden(num_windows, level, group, monkeypatch):
    # L = 1 gives two-step paths. At the default cap each run is one
    # group; a cap of 40 paths' grid units cuts 137 windows into four
    # groups, the last one short, and the rows keep their bits.
    if group:
        monkeypatch.setattr(milsde.wiener, "_GROUP_BYTES", group * 8 * 2 << level)
    rows = moment_check(
        orders=(1, 2, 3, 4, 8), num_windows=num_windows, resolution_exponent=level
    )
    got = [
        (r.order,)
        + tuple(
            float(v).hex()
            for v in (
                r.signed_target,
                r.signed_estimate,
                r.signed_std_error,
                r.absolute_bound,
                r.absolute_estimate,
            )
        )
        for r in rows
    ]
    assert got == GOLDEN_MOMENT_ROWS[num_windows, level]


def test_moment_check_validation():
    with pytest.raises(UsageError):
        moment_check(num_windows=50)
    with pytest.raises(UsageError):
        moment_check(orders=(9,))
    with pytest.raises(UsageError, match="resolution_exponent"):
        moment_check(num_windows=100, resolution_exponent=8.5)  # was a raw TypeError


def test_iterated_integrals_validation():
    with pytest.raises(UsageError):
        IteratedIntegrals.from_components(0.0, np.array([0.1]), np.zeros((1, 1)))
    with pytest.raises(UsageError):
        IteratedIntegrals.from_components(
            1.0, np.array([0.1, 0.2]), np.zeros((1, 1))
        )
