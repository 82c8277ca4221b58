import dataclasses
import math

import numpy as np
import pytest

from milsde import (
    FIXED_SCHEMES,
    FixedSolves,
    IteratedIntegrals,
    SdeProblem,
    StrategyConfig,
    UsageError,
    generate_path,
    integrals_over,
    integrate_adaptive,
    integrate_adaptive_batch,
    integrate_fixed,
    make_builtin,
)
from milsde.steppers import advance_state, check_scheme

BUILTINS = (
    "scalar_mult",
    "scalar_add",
    "scalar_probe",
    "twod_diagonal",
    "twod_commutative",
    "twod_noncommutative",
)


def _step(problem, kind, y, ii):
    """The step map from the (d,) state ``y`` over the window ``ii``."""
    return advance_state(problem, kind, y, ii.h, ii.dW, ii.I)


def _random_inputs(problem, seed, count=20):
    """(state, window integrals) pairs: random states, random windows."""
    rng = np.random.default_rng(seed)
    path = generate_path(seed, 8, problem.dim_noise)
    out = []
    for _ in range(count):
        a = int(rng.integers(0, path.num_steps - 1))
        b = int(rng.integers(a + 1, path.num_steps + 1))
        y = rng.uniform(-3.0, 3.0, size=problem.dim_state)
        out.append((y, integrals_over(path, a, b)))
    return out


# ---------------------------------------------------------------------------
# Hand-checked values
# ---------------------------------------------------------------------------


def test_milstein_hand_value():
    # x=2, h=1/4, dW=1/10: f=-6, g=-1/5, Dg=-1/5,
    # I = (dW^2 - h)/2 = -0.12 (exact in float64 for these inputs), so
    # y' = 2 - 1.5 - 0.02 + (-0.2)(-0.2)(-0.12) = 0.4752.
    p = make_builtin("scalar_mult")
    ii = IteratedIntegrals.from_components(0.25, np.array([0.1]), np.zeros((1, 1)))
    assert ii.I[0, 0] == -0.12
    out = _step(p, "milstein", np.array([2.0]), ii)
    expected = ((2.0 + 0.25 * (-6.0)) + (-0.2) * 0.1) + (-0.2) * ((-0.2) * (-0.12))
    assert out.shape == (1,)
    assert out[0] == expected
    assert out[0] == pytest.approx(0.4752, rel=1e-15)


def test_euler_hand_value():
    p = make_builtin("scalar_mult")
    ii = IteratedIntegrals.from_components(0.25, np.array([0.1]), np.zeros((1, 1)))
    out = _step(p, "euler", np.array([2.0]), ii)
    # correction dropped: 2 - 1.5 - 0.02
    assert out[0] == (2.0 + 0.25 * (-6.0)) + (-0.2) * 0.1


def test_tamed_drift_hand_value():
    # Noise scaled to zero isolates the tamed drift: at x=2, h=1,
    # ||f|| = 6, so y' = 2 - 6/7 = 8/7.
    p = make_builtin("scalar_add", noise_scale=0.0)
    ii = IteratedIntegrals.from_components(1.0, np.array([0.3]), np.zeros((1, 1)))
    out = _step(p, "tamed", np.array([2.0]), ii)
    assert out[0] == 2.0 + (1.0 / 7.0) * (-6.0)
    assert out[0] == pytest.approx(8.0 / 7.0, rel=1e-15)


def test_twod_milstein_matches_componentwise_assembly():
    # Independent assembly of the full map with an explicit double loop
    # over the correction indices: sum_{i,j} Dg_i(y) g_j(y) I[j, i].
    for name in ("twod_diagonal", "twod_commutative", "twod_noncommutative"):
        p = make_builtin(name)
        for y, ii in _random_inputs(p, seed=7):
            expected = y + ii.h * p.drift(y)
            cols = [p.diffusion_column(y, i) for i in range(2)]
            for i in range(2):
                expected = expected + cols[i] * ii.dW[i]
            for i in range(2):
                for j in range(2):
                    expected = expected + p.diffusion_jacobian(y, i) @ cols[j] * ii.I[j, i]
            out = _step(p, "milstein", y, ii)
            np.testing.assert_allclose(out, expected, rtol=1e-12, atol=1e-14)


def test_correction_uses_inner_outer_convention():
    # Transposing the integral matrix changes the output on a
    # noncommutative problem by 2 A[1,0] (Dg_0 g_1 - Dg_1 g_0), so the
    # right and wrong index orders are far apart when A is large.
    p = make_builtin("twod_noncommutative")
    y = np.array([2.0, 3.0])
    dW = np.array([0.2, -0.4])
    A = np.array([[0.0, 0.3], [-0.3, 0.0]])
    ii = IteratedIntegrals.from_components(0.25, dW, A)
    out = _step(p, "milstein", y, ii)

    def assemble(I):
        acc = y + ii.h * p.drift(y)
        cols = [p.diffusion_column(y, i) for i in range(2)]
        for i in range(2):
            acc = acc + cols[i] * dW[i]
        for i in range(2):
            for j in range(2):
                acc = acc + p.diffusion_jacobian(y, i) @ cols[j] * I[j, i]
        return acc

    np.testing.assert_allclose(out, assemble(ii.I), rtol=1e-12)
    flipped = assemble(ii.I.T)
    gap = np.linalg.norm(out - flipped)
    defect = np.linalg.norm(
        p.diffusion_jacobian(y, 0) @ p.diffusion_column(y, 1)
        - p.diffusion_jacobian(y, 1) @ p.diffusion_column(y, 0)
    )
    assert gap == pytest.approx(2.0 * 0.3 * defect, rel=1e-10)
    assert gap > 1e-3


def test_batched_step_equals_single_steps_bitwise():
    # Rows of one batch: distinct states and distinct windows of the
    # same length, so one step map call covers every row.
    rng = np.random.default_rng(11)
    for name in BUILTINS:
        p = make_builtin(name)
        path = generate_path(21, 8, p.dim_noise)
        starts = rng.integers(0, path.num_steps - 8, size=6)
        windows = [integrals_over(path, int(a), int(a) + 8) for a in starts]
        y = rng.uniform(-3.0, 3.0, size=(6, p.dim_state))
        dW = np.stack([w.dW for w in windows])
        I = np.stack([w.I for w in windows])
        h = windows[0].h
        for kind in FIXED_SCHEMES:
            batch = advance_state(p, kind, y, h, dW, I)
            assert batch.shape == y.shape
            for k, w in enumerate(windows):
                single = advance_state(p, kind, y[k], h, w.dW, w.I)
                np.testing.assert_array_equal(batch[k], single)


# ---------------------------------------------------------------------------
# Scheme relations
# ---------------------------------------------------------------------------


def test_backstop_is_tamed_bitwise():
    # Every flagged step of an adaptive solve is the tamed map from the
    # previous node over that step's window, bit for bit; every other
    # step is the plain Milstein map. The start is put outside the norm
    # bound rho, so that each solve pins some steps.
    cfg = StrategyConfig(h_max=2.0**-6, rho=2.0)
    for seed, name in enumerate(BUILTINS):
        p = make_builtin(name)
        p = dataclasses.replace(p, initial_state=np.full(p.dim_state, 3.0))
        path = generate_path(100 + seed, 12, p.dim_noise)
        sol = integrate_adaptive(p, cfg, path)
        assert not sol.divergent
        assert sol.backstop_flags.any(), name
        nodes = np.rint(sol.times / path.resolution).astype(int)
        for n, flagged in enumerate(sol.backstop_flags):
            ii = integrals_over(path, nodes[n], nodes[n + 1])
            kind = "tamed" if flagged else "milstein"
            np.testing.assert_array_equal(
                sol.states[n + 1], _step(p, kind, sol.states[n], ii)
            )


def test_euler_equals_milstein_on_additive_noise():
    p = make_builtin("scalar_add")
    for y, ii in _random_inputs(p, seed=5, count=15):
        np.testing.assert_array_equal(
            _step(p, "euler", y, ii), _step(p, "milstein", y, ii)
        )


def test_euler_differs_from_milstein_on_multiplicative_noise():
    p = make_builtin("scalar_mult")
    ii = IteratedIntegrals.from_components(0.25, np.array([0.1]), np.zeros((1, 1)))
    y = np.array([2.0])
    assert _step(p, "milstein", y, ii)[0] != _step(p, "euler", y, ii)[0]


def test_taming_bound():
    # With the noise turned off the step reduces to the tamed drift;
    # its norm stays strictly below min(1, h ||f||) away from drift
    # zeros, for any step size.
    rng = np.random.default_rng(42)
    checked = 0
    for name in ("scalar_add", "twod_noncommutative"):
        p = make_builtin(name, noise_scale=0.0)
        m, d = p.dim_noise, p.dim_state
        zeros = np.zeros((m, m))
        for _ in range(250):
            y = rng.uniform(-5.0, 5.0, size=d)
            h = float(rng.uniform(0.001, 20.0))
            f_norm = float(np.linalg.norm(p.drift(y)))
            if h * f_norm < 1e-6:
                continue
            ii = IteratedIntegrals.from_components(h, np.zeros(m), zeros)
            out = _step(p, "tamed", y, ii)
            inc = float(np.linalg.norm(out - y))
            assert inc < 1.0
            assert inc < h * f_norm
            checked += 1
    assert checked > 400


def test_plain_drift_is_untamed():
    p = make_builtin("scalar_add", noise_scale=0.0)
    ii = IteratedIntegrals.from_components(1.0, np.array([0.0]), np.zeros((1, 1)))
    out = _step(p, "milstein", np.array([2.0]), ii)
    assert out[0] == 2.0 + 1.0 * (-6.0)


# ---------------------------------------------------------------------------
# Failure modes and dispatch
# ---------------------------------------------------------------------------


def test_overflow_flags_the_path_divergent():
    # From 1e200 the cubic drift overflows on the first step: the solve
    # stops there, flags the path and keeps its last finite state.
    p = dataclasses.replace(make_builtin("scalar_mult"), initial_state=np.array([1e200]))
    sol = integrate_fixed(p, "milstein", 0.25, generate_path(1, 4, 1))
    assert sol.divergent
    assert sol.num_steps == 0
    np.testing.assert_array_equal(sol.final_state, [1e200])
    assert np.all(np.isfinite(sol.states))


def test_nan_state_flags_the_path_divergent():
    # A problem cannot start from nan, so the drift turns nan above 1.5:
    # unit drift steps 1 -> 1.25 -> 1.5 -> 1.75, and the fourth step
    # gives nan. The solve keeps the last finite state, 1.75.
    p = SdeProblem(
        dim_state=1,
        dim_noise=1,
        drift=lambda y: np.where(y > 1.5, math.nan, 1.0),
        diffusion_column=lambda y, i: np.zeros(1),
        diffusion_jacobian=lambda y, i: np.zeros((1, 1)),
        structure="additive",
        initial_state=np.array([1.0]),
        horizon=1.0,
        name="nan_above",
    )
    sol = integrate_fixed(p, "milstein", 0.25, generate_path(1, 4, 1))
    assert sol.divergent
    assert sol.num_steps == 3
    assert sol.final_time == 0.75
    np.testing.assert_array_equal(sol.final_state, [1.75])


def test_dimension_validation():
    p = make_builtin("twod_noncommutative")
    with pytest.raises(UsageError, match="noise components"):
        integrate_fixed(p, "milstein", 0.25, generate_path(1, 4, 1))


def test_comparator_dispatch():
    # "tamed" is the one built comparator; the reserved names and unknown
    # ones are refused by the scheme check, and so by every integrator.
    assert check_scheme("tamed") == "tamed"
    p = make_builtin("scalar_mult")
    path = generate_path(1, 4, 1)
    cfg = StrategyConfig(h_max=0.25, rho=2.0)
    solves = [
        lambda s: check_scheme(s),
        lambda s: check_scheme(s, adaptive=True),
        lambda s: integrate_fixed(p, s, 0.25, path),
        lambda s: FixedSolves(p, s, 4, path.prefixes()),
        lambda s: integrate_adaptive_batch(p, [cfg], path.prefixes(), [0], s),
    ]
    for solve in solves:
        for reserved in ("pmil", "ssbm"):
            with pytest.raises(UsageError, match="reserved"):
                solve(reserved)
        with pytest.raises(UsageError, match="unknown scheme"):
            solve("heun")


def test_scheme_dispatch():
    # Each fixed scheme names its own map; "adaptive" names the
    # controller, which only the tables and the CLI take.
    p = make_builtin("twod_noncommutative")
    y, ii = _random_inputs(p, seed=11, count=1)[0]
    for name in FIXED_SCHEMES:
        assert check_scheme(name) == check_scheme(name, adaptive=True) == name
    outs = {name: _step(p, name, y, ii) for name in FIXED_SCHEMES}
    assert len({out.tobytes() for out in outs.values()}) == len(FIXED_SCHEMES)
    assert check_scheme("adaptive", adaptive=True) == "adaptive"
    with pytest.raises(UsageError, match="unknown scheme"):
        check_scheme("adaptive")
    with pytest.raises(UsageError, match="unknown scheme"):
        check_scheme("rk4", adaptive=True)
