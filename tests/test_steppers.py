import math

import numpy as np
import pytest

from milsde import (
    FIXED_SCHEMES,
    IteratedIntegrals,
    StepInput,
    StepOverflow,
    UsageError,
    backstop_step,
    comparator_step,
    euler_maruyama_step,
    generate_path,
    integrals_over,
    make_builtin,
    milstein_step,
    scheme_step,
    tamed_milstein_step,
)
from milsde.steppers import advance_state

BUILTINS = (
    "scalar_mult",
    "scalar_add",
    "scalar_probe",
    "twod_diagonal",
    "twod_commutative",
    "twod_noncommutative",
)


def _random_inputs(problem, seed, count=20):
    rng = np.random.default_rng(seed)
    path = generate_path(seed, 8, problem.dim_noise)
    out = []
    for _ in range(count):
        a = int(rng.integers(0, path.num_steps - 1))
        b = int(rng.integers(a + 1, path.num_steps + 1))
        y = rng.uniform(-3.0, 3.0, size=problem.dim_state)
        out.append(StepInput(state=y, integrals=integrals_over(path, a, b)))
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
    out = milstein_step(p, StepInput(state=np.array([2.0]), integrals=ii))
    expected = ((2.0 + 0.25 * (-6.0)) + (-0.2) * 0.1) + (-0.2) * ((-0.2) * (-0.12))
    assert out.shape == (1,)
    assert out[0] == expected
    assert out[0] == pytest.approx(0.4752, rel=1e-15)


def test_euler_hand_value():
    p = make_builtin("scalar_mult")
    ii = IteratedIntegrals.from_components(0.25, np.array([0.1]), np.zeros((1, 1)))
    out = euler_maruyama_step(p, StepInput(state=np.array([2.0]), integrals=ii))
    # correction dropped: 2 - 1.5 - 0.02
    assert out[0] == (2.0 + 0.25 * (-6.0)) + (-0.2) * 0.1


def test_tamed_drift_hand_value():
    # Noise scaled to zero isolates the tamed drift: at x=2, h=1,
    # ||f|| = 6, so y' = 2 - 6/7 = 8/7.
    p = make_builtin("scalar_add", noise_scale=0.0)
    ii = IteratedIntegrals.from_components(1.0, np.array([0.3]), np.zeros((1, 1)))
    out = tamed_milstein_step(p, StepInput(state=np.array([2.0]), integrals=ii))
    assert out[0] == 2.0 + (1.0 / 7.0) * (-6.0)
    assert out[0] == pytest.approx(8.0 / 7.0, rel=1e-15)


def test_twod_milstein_matches_componentwise_assembly():
    # Independent assembly of the full map with an explicit double loop
    # over the correction indices: sum_{i,j} Dg_i(y) g_j(y) I[j, i].
    for name in ("twod_diagonal", "twod_commutative", "twod_noncommutative"):
        p = make_builtin(name)
        for step in _random_inputs(p, seed=7):
            y, ii = step.state, step.integrals
            expected = y + ii.h * p.drift(y)
            cols = [p.diffusion_column(y, i) for i in range(2)]
            for i in range(2):
                expected = expected + cols[i] * ii.dW[i]
            for i in range(2):
                for j in range(2):
                    expected = expected + p.diffusion_jacobian(y, i) @ cols[j] * ii.I[j, i]
            out = milstein_step(p, step)
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
    out = milstein_step(p, StepInput(state=y, integrals=ii))

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
    for seed, name in enumerate(BUILTINS):
        p = make_builtin(name)
        for step in _random_inputs(p, seed=100 + seed, count=10):
            np.testing.assert_array_equal(
                backstop_step(p, step), tamed_milstein_step(p, step)
            )


def test_euler_equals_milstein_on_additive_noise():
    p = make_builtin("scalar_add")
    for step in _random_inputs(p, seed=5, count=15):
        np.testing.assert_array_equal(
            euler_maruyama_step(p, step), milstein_step(p, step)
        )


def test_euler_differs_from_milstein_on_multiplicative_noise():
    p = make_builtin("scalar_mult")
    ii = IteratedIntegrals.from_components(0.25, np.array([0.1]), np.zeros((1, 1)))
    step = StepInput(state=np.array([2.0]), integrals=ii)
    assert milstein_step(p, step)[0] != euler_maruyama_step(p, step)[0]


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
            out = tamed_milstein_step(p, StepInput(state=y, integrals=ii))
            inc = float(np.linalg.norm(out - y))
            assert inc < 1.0
            assert inc < h * f_norm
            checked += 1
    assert checked > 400


def test_plain_drift_is_untamed():
    p = make_builtin("scalar_add", noise_scale=0.0)
    ii = IteratedIntegrals.from_components(1.0, np.array([0.0]), np.zeros((1, 1)))
    out = milstein_step(p, StepInput(state=np.array([2.0]), integrals=ii))
    assert out[0] == 2.0 + 1.0 * (-6.0)


# ---------------------------------------------------------------------------
# Failure modes and dispatch
# ---------------------------------------------------------------------------


def test_overflow_raises_with_state():
    p = make_builtin("scalar_mult")
    ii = IteratedIntegrals.from_components(0.25, np.array([0.1]), np.zeros((1, 1)))
    with pytest.raises(StepOverflow) as info:
        milstein_step(p, StepInput(state=np.array([1e200]), integrals=ii))
    assert not np.all(np.isfinite(info.value.state))


def test_nan_state_raises_overflow():
    p = make_builtin("scalar_mult")
    ii = IteratedIntegrals.from_components(0.25, np.array([0.1]), np.zeros((1, 1)))
    with pytest.raises(StepOverflow):
        milstein_step(p, StepInput(state=np.array([math.nan]), integrals=ii))


def test_dimension_validation():
    p = make_builtin("twod_noncommutative")
    good = IteratedIntegrals.from_components(
        0.25, np.array([0.1, -0.2]), np.zeros((2, 2))
    )
    with pytest.raises(UsageError, match="state"):
        milstein_step(p, StepInput(state=np.array([1.0]), integrals=good))
    scalar_ii = IteratedIntegrals.from_components(0.25, np.array([0.1]), np.zeros((1, 1)))
    with pytest.raises(UsageError, match="noise components"):
        milstein_step(p, StepInput(state=np.array([1.0, 2.0]), integrals=scalar_ii))


def test_comparator_dispatch():
    p = make_builtin("scalar_mult")
    step = _random_inputs(p, seed=3, count=1)[0]
    np.testing.assert_array_equal(
        comparator_step("tamed", p, step), tamed_milstein_step(p, step)
    )
    for reserved in ("pmil", "ssbm"):
        with pytest.raises(UsageError, match="reserved"):
            comparator_step(reserved, p, step)
    with pytest.raises(UsageError, match="unknown comparator"):
        comparator_step("heun", p, step)


def test_scheme_step_dispatch():
    p = make_builtin("twod_noncommutative")
    step = _random_inputs(p, seed=11, count=1)[0]
    by_name = {
        "milstein": milstein_step,
        "tamed": tamed_milstein_step,
        "euler": euler_maruyama_step,
    }
    assert set(FIXED_SCHEMES) == set(by_name)
    for name, fn in by_name.items():
        result = scheme_step(p, name, step)
        assert not result.used_backstop
        np.testing.assert_array_equal(result.state, fn(p, step))
    back = scheme_step(p, "backstop", step)
    assert back.used_backstop
    np.testing.assert_array_equal(back.state, tamed_milstein_step(p, step))
    with pytest.raises(UsageError, match="unknown scheme"):
        scheme_step(p, "rk4", step)
