"""Desk-scale acceptance runs for the whole package.

Each test exercises one release criterion end to end at the documented
scale (100 paths, fine resolutions up to 2^-20) and records a one-line
PASS/FAIL verdict that conftest echoes in the terminal summary. The
module is deliberately heavier than the unit tests; expect a few
minutes single-core, dominated by the three convergence tables.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from conftest import record_criterion
from milsde import (
    ExperimentConfig,
    StrategyConfig,
    backstop_probability,
    convergence_table,
    generate_path,
    integrals_over,
    integrate_adaptive,
    integrate_fixed,
    make_builtin,
    moment_check,
    moment_constant,
    propose_step,
)

pytestmark = pytest.mark.acceptance

# 2^-12 .. 2^-8 and 2^-8 .. 2^-4, ascending.
GRID_FINE = tuple(2.0**-k for k in range(12, 7, -1))
GRID_COARSE = tuple(2.0**-k for k in range(8, 3, -1))

SLOPE_BAND = (0.8, 1.2)


def _criterion(num: int, passed: bool, detail: str) -> None:
    line = f"criterion {num}: {'PASS' if passed else 'FAIL'} - {detail}"
    record_criterion(line)
    print(line)
    assert passed, line


def _in_band(x: float, band: tuple[float, float]) -> bool:
    return band[0] <= x <= band[1]


@pytest.fixture(scope="module")
def mult_table():
    """scalar_mult convergence table, shared by criteria 1 and 9.

    The euler rows ride along so the fixed-step slope on this problem
    can be reported later without paying for a second table.
    """
    t0 = time.perf_counter()
    table = convergence_table(
        ExperimentConfig(
            problem="scalar_mult",
            h_max_values=GRID_FINE,
            rho=16.0,
            schemes=("adaptive", "euler"),
            num_paths=100,
        )
    )
    return table, time.perf_counter() - t0


def test_01_multiplicative_noise_adaptive_is_order_one(mult_table):
    table, elapsed = mult_table
    slope = table.slopes()["adaptive"]
    ok = _in_band(slope, SLOPE_BAND) and elapsed <= 180.0
    _criterion(
        1,
        ok,
        f"scalar_mult adaptive slope {slope:.3f} in [0.8, 1.2], "
        f"table in {elapsed:.0f}s (limit 180s)",
    )


def test_02_additive_noise_order_and_scheme_collapse():
    t0 = time.perf_counter()
    table = convergence_table(
        ExperimentConfig(
            problem="scalar_add",
            h_max_values=GRID_FINE,
            rho=16.0,
            num_paths=100,
        )
    )
    elapsed = time.perf_counter() - t0
    slope = table.slopes()["adaptive"]

    # Zero diffusion Jacobian: the correction term vanishes identically,
    # so adaptive milstein and adaptive euler must agree to the bit.
    problem = make_builtin("scalar_add")
    cfg = StrategyConfig(h_max=2.0**-8, rho=16.0)
    exact = True
    for seed in range(10):
        path = generate_path(seed, 16, problem.dim_noise)
        a = integrate_adaptive(problem, cfg, path, scheme="milstein")
        b = integrate_adaptive(problem, cfg, path, scheme="euler")
        exact = (
            exact
            and np.array_equal(a.times, b.times)
            and np.array_equal(a.states, b.states)
            and np.array_equal(a.backstop_flags, b.backstop_flags)
        )

    ok = _in_band(slope, SLOPE_BAND) and exact
    _criterion(
        2,
        ok,
        f"scalar_add adaptive slope {slope:.3f} in [0.8, 1.2] ({elapsed:.0f}s); "
        f"milstein == euler bitwise on 10 adaptive meshes: {exact}",
    )


def test_03_noncommutative_system_adaptive_is_order_one():
    t0 = time.perf_counter()
    table = convergence_table(
        ExperimentConfig(
            problem="twod_noncommutative",
            h_max_values=GRID_COARSE,
            rho=4.0,
            num_paths=100,
            reference_exponent=10,
            fine_exponent=14,
        )
    )
    elapsed = time.perf_counter() - t0
    slope = table.slopes()["adaptive"]
    ok = _in_band(slope, SLOPE_BAND) and elapsed <= 120.0
    _criterion(
        3,
        ok,
        f"twod_noncommutative adaptive slope {slope:.3f} in [0.8, 1.2], "
        f"table in {elapsed:.0f}s (limit 120s)",
    )


def test_04_backstop_probability_decays_with_rho():
    curve = backstop_probability(
        "scalar_probe", (2.0, 3.0, 4.0, 5.0, 6.0), h_max=2.0**-8, num_paths=100
    )
    probs = [p.prob for p in curve.points]
    ses = [p.prob_std_error for p in curve.points]
    monotone = all(
        probs[i + 1] <= probs[i] + 2.0 * math.hypot(ses[i], ses[i + 1])
        for i in range(len(probs) - 1)
    )
    ok = probs[0] > 0.0 and probs[-1] == 0.0 and monotone
    shown = ", ".join(f"{p:.2f}" for p in probs)
    _criterion(
        4,
        ok,
        f"trigger probability over rho=2..6: [{shown}]; positive at 2, "
        f"zero at 6, nonincreasing within 2 SE",
    )


def test_05_levy_area_moments_exact_and_sampled():
    t0 = time.perf_counter()
    exact = (
        moment_constant(2).signed == Fraction(1, 4)
        and moment_constant(4).signed == Fraction(5, 16)
        and moment_constant(3).signed == Fraction(0, 1)
        and moment_constant(1).absolute_bound == Fraction(1, 2)
    )
    rows = moment_check(orders=(1, 2, 4), num_windows=10_000)
    sampled = all(r.passed for r in rows)
    by_order = {r.order: r for r in rows}
    bound = by_order[1].absolute_estimate <= 0.5
    elapsed = time.perf_counter() - t0
    ok = exact and sampled and bound and elapsed <= 30.0
    _criterion(
        5,
        ok,
        f"I2=1/4, I4=5/16, I3=0 exact; sampled E[A^2]={by_order[2].signed_estimate:.4f}, "
        f"E[A^4]={by_order[4].signed_estimate:.4f} within 4 SE over 10^4 windows; "
        f"E|A|={by_order[1].absolute_estimate:.4f} <= 1/2; {elapsed:.1f}s (limit 30s)",
    )


def test_06_zero_area_is_exact_for_commuting_structures():
    worst_fixed = 0.0
    worst_adaptive = 0.0
    meshes_equal = True
    for name in ("twod_commutative", "twod_diagonal"):
        problem = make_builtin(name)
        cfg = StrategyConfig(h_max=2.0**-6, rho=8.0)
        for seed in range(20):
            path = generate_path(seed, 12, problem.dim_noise)
            a = integrate_fixed(problem, "milstein", 2.0**-6, path)
            b = integrate_fixed(problem, "milstein", 2.0**-6, path, zero_levy_area=True)
            rel = np.abs(a.states - b.states) / (1.0 + np.abs(a.states))
            worst_fixed = max(worst_fixed, float(rel.max()))

            ca = integrate_adaptive(problem, cfg, path)
            cb = integrate_adaptive(problem, cfg, path, zero_levy_area=True)
            if not np.array_equal(ca.times, cb.times):
                meshes_equal = False
                continue
            rel = np.abs(ca.states - cb.states) / (1.0 + np.abs(ca.states))
            worst_adaptive = max(worst_adaptive, float(rel.max()))
    ok = worst_fixed <= 1e-10 and meshes_equal and worst_adaptive <= 1e-8
    _criterion(
        6,
        ok,
        f"dropping the area moves commutative/diagonal trajectories by "
        f"{worst_fixed:.1e} fixed (tol 1e-10) and {worst_adaptive:.1e} adaptive "
        f"on identical meshes, 20 seeds each",
    )


def test_07_iterated_integral_reconstruction_identities():
    eps = np.finfo(float).eps
    rng = np.random.default_rng(2024)
    checked = 0
    ok = True
    for m in (2, 3):
        for seed in (11, 12, 13, 14, 15):
            path = generate_path(seed, 12, m)
            n = path.num_steps
            for _ in range(100):
                a = int(rng.integers(0, n - 1))
                b = int(rng.integers(a + 1, n + 1))
                ii = integrals_over(path, a, b)
                dW, A, I = ii.dW, ii.A, ii.I
                ok = ok and np.array_equal(A, -A.T)
                for i in range(m):
                    ok = ok and I[i, i] == (dW[i] * dW[i] - ii.h) / 2.0
                    for j in range(m):
                        if i == j:
                            continue
                        prod = dW[i] * dW[j]
                        # Off-diagonal entries carry the exact half
                        # product plus the area, so the pair sum equals
                        # the product up to a rounding unit of the
                        # cancelled area terms.
                        ok = ok and I[i, j] == 0.5 * prod + A[i, j]
                        scale = max(abs(I[i, j]), abs(I[j, i]), abs(prod))
                        ok = ok and abs(I[i, j] + I[j, i] - prod) <= 4.0 * eps * scale
                checked += 1
    ok = ok and checked == 1000
    _criterion(
        7,
        ok,
        f"{checked} random windows (m=2,3): diagonal identity and "
        f"I[i,j] = dWi dWj / 2 + A[i,j] bitwise, A antisymmetric bitwise, "
        f"pair sums within 4 eps of dWi dWj",
    )


def test_08_adaptive_mesh_invariants():
    # h_min = 2^-16 is exactly one fine-grid unit here, so every step,
    # the final horizon clamp included, must land in [h_min, h_max].
    problem = make_builtin("scalar_mult")
    cfg = StrategyConfig(h_max=2.0**-12, rho=16.0)
    ok = True
    runs = 0
    for seed in range(100):
        path = generate_path(seed, 16, problem.dim_noise)
        sol = integrate_adaptive(problem, cfg, path)
        hs = sol.step_sizes
        ok = ok and not sol.divergent
        ok = ok and sol.times[-1] == 1.0 and float(np.sum(hs)) == 1.0
        ok = ok and bool(np.all(hs >= cfg.h_min)) and bool(np.all(hs <= cfg.h_max))

        # Flags must be exactly the controller's verdict on the stored
        # states; the final step may clear the flag when the horizon,
        # not the floor, truncated it.
        norms = np.abs(sol.states[:-1, 0])
        pinned = cfg.scale / norms <= cfg.h_min
        flags = sol.backstop_flags
        ok = ok and bool(np.all(flags[:-1] == pinned[:-1]))
        ok = ok and (not flags[-1] or bool(pinned[-1]))

        # Path bound on every unclamped step.
        interior = np.arange(sol.num_steps) < sol.num_steps - 1
        free = interior & ~flags
        ok = ok and bool(np.all(norms[free] <= cfg.rho * (1.0 + 1e-12)))
        runs += 1
    ok = ok and runs == 100
    _criterion(
        8,
        ok,
        f"{runs} adaptive runs: sum h == T exactly, every h in [h_min, h_max], "
        f"flags match the controller, ||Y|| <= rho on unclamped steps",
    )


def test_09_pipeline_separates_half_order_from_first(mult_table):
    # Control problem where the orders genuinely differ on this grid:
    # scalar_mult's drift and diffusion both vanish at the attractor, so
    # fixed euler is first-order there and only the control can show the
    # half-order regime.
    control = make_builtin("scalar_probe", noise_scale=0.4)
    t0 = time.perf_counter()
    table = convergence_table(
        ExperimentConfig(
            problem=control,
            h_max_values=GRID_FINE,
            rho=16.0,
            schemes=("adaptive", "euler"),
            num_paths=100,
        )
    )
    elapsed = time.perf_counter() - t0
    slopes = table.slopes()
    euler = slopes["euler"]
    adaptive = slopes["adaptive"]
    mult_euler = mult_table[0].slopes()["euler"]
    ok = 0.3 <= euler <= 0.7 and _in_band(adaptive, SLOPE_BAND)
    _criterion(
        9,
        ok,
        f"fixed euler slope {euler:.3f} in [0.3, 0.7] vs adaptive {adaptive:.3f} "
        f"on the control ({elapsed:.0f}s); scalar_mult itself shows euler "
        f"{mult_euler:.3f} (degenerate at the attractor; reported, not asserted)",
    )


def test_10_backstop_engaged_adaptive_is_order_one():
    # The order-one claim covers the adaptive map and its backstop
    # together. Here every row pins some of its steps, and none is forced
    # by the initial state (||Y0|| = 2 < rho).
    t0 = time.perf_counter()
    table = convergence_table(
        ExperimentConfig(
            problem=make_builtin("scalar_probe", noise_scale=1.2),
            h_max_values=tuple(2.0**-k for k in range(10, 5, -1)),
            rho=2.5,
            num_paths=100,
            reference_exponent=14,
            fine_exponent=18,
        )
    )
    elapsed = time.perf_counter() - t0
    slope = table.slopes()["adaptive"]
    rates = [r.backstop_rate for r in table.rows]
    divergent = sum(r.divergent_count for r in table.rows)
    ok = _in_band(slope, SLOPE_BAND) and min(rates) >= 0.01 and divergent == 0
    _criterion(
        10,
        ok,
        f"scalar_probe (noise 1.2, rho 2.5) adaptive slope {slope:.3f} in [0.8, 1.2] "
        f"with backstop rates {min(rates):.1%}..{max(rates):.1%} (each >= 1%), "
        f"{divergent} divergent ({elapsed:.0f}s)",
    )
