import dataclasses
import pickle

import numpy as np
import pytest

from milsde import (
    BUILTIN_NAMES,
    SdeProblem,
    UsageError,
    commutator_defect,
    make_builtin,
)

# Fixed seed for the random property-check points in [-5, 5]^d.
POINT_SEED = 1729


def random_points(dim, count=100):
    rng = np.random.default_rng(POINT_SEED)
    return rng.uniform(-5.0, 5.0, size=(count, dim))


def test_builtin_names_are_stable():
    assert BUILTIN_NAMES == (
        "scalar_mult",
        "scalar_add",
        "scalar_probe",
        "twod_diagonal",
        "twod_commutative",
        "twod_noncommutative",
    )


def test_unknown_builtin_rejected():
    with pytest.raises(UsageError, match="unknown builtin"):
        make_builtin("scalar_nope")


def test_unknown_parameter_rejected():
    with pytest.raises(UsageError, match="unknown problem parameters"):
        make_builtin("scalar_mult", sigma=0.5)


def test_scalar_mult_coefficients():
    p = make_builtin("scalar_mult")
    x = np.array([2.0])
    assert p.drift(x) == pytest.approx([-6.0], abs=0)
    assert p.diffusion_column(x, 0) == pytest.approx([-0.2])
    np.testing.assert_allclose(p.diffusion_jacobian(x, 0), [[-0.2]], rtol=0)
    assert p.structure == "diagonal"
    assert p.horizon == 1.0
    np.testing.assert_array_equal(p.initial_state, [2.0])


def test_scalar_add_is_additive():
    p = make_builtin("scalar_add")
    for x in ([0.0], [2.0], [-3.5]):
        x = np.array(x)
        np.testing.assert_array_equal(p.diffusion_column(x, 0), [0.2])
        np.testing.assert_array_equal(p.diffusion_jacobian(x, 0), [[0.0]])
    assert p.structure == "additive"


def test_scalar_probe_coefficients():
    p = make_builtin("scalar_probe")
    x = np.array([2.0])
    assert p.diffusion_column(x, 0) == pytest.approx([0.4])
    np.testing.assert_allclose(p.diffusion_jacobian(x, 0), [[0.2]], rtol=0)


def test_twod_drift():
    p = make_builtin("twod_diagonal")
    x = np.array([2.0, 3.0])
    assert p.drift(x) == pytest.approx([2.0 - 24.0, 3.0 - 81.0], abs=0)


def test_noise_scale_parameter():
    p = make_builtin("scalar_probe", noise_scale=0.4)
    assert p.diffusion_column(np.array([2.0]), 0) == pytest.approx([0.8])


def test_twod_noncommutative_products_differ():
    # Dg_1 g_2 and Dg_2 g_1 at X(0) = [2, 3]: hand values.
    p = make_builtin("twod_noncommutative")
    x = p.initial_state
    g1 = p.diffusion_column(x, 0)
    g2 = p.diffusion_column(x, 1)
    d1 = p.diffusion_jacobian(x, 0) @ g2
    d2 = p.diffusion_jacobian(x, 1) @ g1
    assert d1 == pytest.approx([0.18, 0.12], rel=1e-14)
    assert d2 == pytest.approx([0.12, 0.18], rel=1e-14)
    assert not np.allclose(d1, d2)


def test_structure_flags():
    expected = {
        "scalar_mult": "diagonal",
        "scalar_add": "additive",
        "scalar_probe": "diagonal",
        "twod_diagonal": "diagonal",
        "twod_commutative": "commutative",
        "twod_noncommutative": "general",
    }
    for name, structure in expected.items():
        assert make_builtin(name).structure == structure


def test_initial_states_and_horizons():
    for name in BUILTIN_NAMES:
        p = make_builtin(name)
        want = [2.0] if p.dim_state == 1 else [2.0, 3.0]
        np.testing.assert_array_equal(p.initial_state, want)
        assert p.horizon == 1.0
        assert p.dim_state == p.dim_noise


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_builtin_coefficients_act_row_by_row_on_a_batch(name):
    # One callable serves one state or a (P, d) batch: row p of the
    # batched call equals the (d,) call on row p, bit for bit.
    p = make_builtin(name)
    d = p.dim_state
    batch = random_points(d, count=7)

    def rows(fn, *args):
        return np.stack([fn(x, *args) for x in batch])

    np.testing.assert_array_equal(p.drift(batch), rows(p.drift))
    assert p.drift(batch).shape == (7, d)
    for i in range(p.dim_noise):
        np.testing.assert_array_equal(
            np.broadcast_to(p.diffusion_column(batch, i), (7, d)),
            rows(p.diffusion_column, i),
        )
        np.testing.assert_array_equal(
            np.broadcast_to(p.diffusion_jacobian(batch, i), (7, d, d)),
            rows(p.diffusion_jacobian, i),
        )


def _plain_coefficients(name, s):
    """The drift, the columns and the Jacobians of builtin ``name`` at
    noise scale ``s``, written out with Python-float constants in the
    builtins' operation order."""
    if name.startswith("scalar"):
        drift = lambda x: x - x * x * x  # noqa: E731
    else:
        drift = lambda x: x - 3.0 * x * x * x  # noqa: E731
    stack = lambda *c: np.stack(c, axis=-1)  # noqa: E731
    zero = lambda x: np.zeros(np.shape(x)[:-1])  # noqa: E731
    columns, jacobians = {
        "scalar_mult": ([lambda x: s * (1.0 - x)], [[[-s]]]),
        "scalar_add": ([lambda x: np.array([s])], [[[0.0]]]),
        "scalar_probe": ([lambda x: s * x], [[[s]]]),
        "twod_diagonal": (
            [lambda x: stack(s * x[..., 0], zero(x)), lambda x: stack(zero(x), s * x[..., 1])],
            [[[s, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, s]]],
        ),
        "twod_commutative": (
            [lambda x: stack(s * x[..., 0], s * x[..., 1]),
             lambda x: stack(s * x[..., 1], s * x[..., 0])],
            [[[s, 0.0], [0.0, s]], [[0.0, s], [s, 0.0]]],
        ),
        "twod_noncommutative": (
            [lambda x: stack(x[..., 0] * (1.5 * s), x[..., 1] * s),
             lambda x: stack(x[..., 1] * s, x[..., 0] * (1.5 * s))],
            [[[1.5 * s, 0.0], [0.0, s]], [[0.0, s], [1.5 * s, 0.0]]],
        ),
    }[name]
    return drift, columns, [np.array(j) for j in jacobians]


@pytest.mark.parametrize("scale", [0.2, 1.2])
@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_builtin_coefficients_equal_their_plain_formulas(name, scale):
    # The builtins bind their constants as 0-d arrays; the values must
    # keep the bits of the plain Python-float formulas.
    p = make_builtin(name, noise_scale=scale)
    drift, columns, jacobians = _plain_coefficients(name, scale)
    assert len(columns) == p.dim_noise
    batch = np.random.default_rng(POINT_SEED).standard_normal((100, p.dim_state)) * 3.0
    for x in (batch, batch[0]):
        assert np.array_equal(p.drift(x), drift(x))
        for i, (column, jacobian) in enumerate(zip(columns, jacobians)):
            assert np.array_equal(p.diffusion_column(x, i), column(x)), (name, i)
            assert np.array_equal(p.diffusion_jacobian(x, i), jacobian), (name, i)


def _jacobian_deviation(problem, points, fd_step=1e-5):
    """Largest entry of |Dg_i(x) - central difference of g_i at x| over
    the points and noise components."""
    d = problem.dim_state
    worst = 0.0
    for x in points:
        for i in range(problem.dim_noise):
            fd = np.empty((d, d))
            for k in range(d):
                e = np.zeros(d)
                e[k] = fd_step
                fd[:, k] = (
                    np.asarray(problem.diffusion_column(x + e, i))
                    - np.asarray(problem.diffusion_column(x - e, i))
                ) / (2.0 * fd_step)
            dev = np.abs(problem.diffusion_jacobian(x, i) - fd)
            worst = max(worst, float(np.max(dev)))
    return worst


def test_jacobian_consistency_all_builtins():
    # All builtin diffusions are affine, so central differences agree to
    # rounding; 1e-6 is the advertised tolerance.
    for name in BUILTIN_NAMES:
        p = make_builtin(name)
        deviation = _jacobian_deviation(p, random_points(p.dim_state))
        assert deviation < 1e-6, f"{name}: deviation {deviation}"


def test_jacobian_check_detects_perturbation():
    # The central-difference check above can fail: a Jacobian off by
    # 1e-3 shows a deviation of 1e-3.
    base = make_builtin("scalar_mult")
    wrong = dataclasses.replace(
        base, diffusion_jacobian=lambda x, i: np.array([[-0.2 + 1e-3]])
    )
    deviation = _jacobian_deviation(wrong, [np.array([2.0])])
    assert deviation == pytest.approx(1e-3, abs=1e-6)
    assert deviation > 1e-6


def test_commutator_defect_flag_soundness():
    for name in BUILTIN_NAMES:
        p = make_builtin(name)
        defect = commutator_defect(p, random_points(p.dim_state))
        if p.structure == "general":
            assert defect > 1e-3
        else:
            assert defect <= 1e-12, f"{name}: defect {defect}"


def test_commutator_defect_hand_value():
    p = make_builtin("twod_noncommutative")
    assert commutator_defect(p, [p.initial_state]) == pytest.approx(0.06, rel=1e-12)


def test_problem_validation():
    ok = dict(
        dim_state=1,
        dim_noise=1,
        drift=lambda x: -x,
        diffusion_column=lambda x, i: np.array([0.1]),
        diffusion_jacobian=lambda x, i: np.array([[0.0]]),
        structure="additive",
        initial_state=np.array([1.0]),
        horizon=1.0,
    )
    SdeProblem(**ok)
    with pytest.raises(UsageError, match="structure"):
        SdeProblem(**{**ok, "structure": "weird"})
    with pytest.raises(UsageError, match="horizon"):
        SdeProblem(**{**ok, "horizon": 0.0})
    with pytest.raises(UsageError, match="shape"):
        SdeProblem(**{**ok, "initial_state": np.array([1.0, 2.0])})
    with pytest.raises(UsageError, match="finite"):
        SdeProblem(**{**ok, "initial_state": np.array([np.inf])})
    with pytest.raises(UsageError, match="positive"):
        SdeProblem(**{**ok, "dim_state": 0})


def test_problem_is_frozen():
    p = make_builtin("scalar_mult")
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.horizon = 2.0


def test_builtin_jacobians_are_readonly():
    p = make_builtin("twod_commutative")
    jac = p.diffusion_jacobian(np.array([1.0, 1.0]), 0)
    with pytest.raises(ValueError):
        jac[0, 0] = 99.0


def test_builtins_pickle_for_process_pools():
    for name in BUILTIN_NAMES:
        p = make_builtin(name)
        q = pickle.loads(pickle.dumps(p))
        x = p.initial_state
        np.testing.assert_array_equal(p.drift(x), q.drift(x))
        for i in range(p.dim_noise):
            np.testing.assert_array_equal(
                p.diffusion_column(x, i), q.diffusion_column(x, i)
            )
            np.testing.assert_array_equal(
                p.diffusion_jacobian(x, i), q.diffusion_jacobian(x, i)
            )
