"""The benchmark's own checks: each passes on good outputs and fails on bad ones.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import milsde  # noqa: E402
import milsde.cli  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, base_seed  # noqa: E402

MULT = WORKLOADS["mult_table"].spec
NONCOMM = WORKLOADS["noncomm_levy"].spec
BACKSTOP = WORKLOADS["backstop_moments"].spec


def failures(fn, *args, **kwargs) -> list[str]:
    tally = checks.Tally()
    fn(tally, *args, **kwargs)
    assert tally.attempted > 0
    return tally.failures


# ---------------------------------------------------------------------------
# convergence.csv
# ---------------------------------------------------------------------------


def table_csv(spec, slope=1.0, h_mean_factor=0.75, divergent=0, cpu=1.0) -> str:
    lines = [milsde.CSV_HEADER]
    for scheme in ("adaptive", spec.fixed_scheme):
        for e in sorted(spec.h_max_exponents, reverse=True):
            h = 2.0**-e
            rms = 0.01 * h**slope
            h_col = h if scheme == "adaptive" else h * h_mean_factor
            lines.append(
                f"{scheme},{h_col!r},{rms!r},{rms / 10!r},{h * h_mean_factor!r},"
                f"{cpu!r},0,{divergent}"
            )
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("spec", [MULT, NONCOMM])
def test_first_order_table_passes(spec):
    assert failures(checks.check_table, table_csv(spec), spec) == []


@pytest.mark.parametrize("slope", [0.5, 0.79, 1.21, 2.0])
def test_slope_outside_band_fails(slope):
    assert any("slope" in f for f in failures(checks.check_table, table_csv(MULT, slope=slope), MULT))


def test_divergent_row_fails():
    tally = checks.Tally()
    divergent = checks.check_table(tally, table_csv(NONCOMM, divergent=1), NONCOMM)
    assert divergent == 2 * len(NONCOMM.h_max_exponents)
    assert any("divergent" in f for f in tally.failures)


@pytest.mark.parametrize("factor", [1.01, 1.0 / 16.1])
def test_h_mean_outside_band_fails(factor):
    got = failures(checks.check_table, table_csv(MULT, h_mean_factor=factor), MULT)
    assert any("h_mean" in f for f in got)


def test_missing_row_fails():
    lines = [ln for ln in table_csv(MULT).splitlines() if not ln.startswith("adaptive,0.000244140625,")]
    assert any("rows" in f for f in failures(checks.check_table, "\n".join(lines) + "\n", MULT))


def test_units_may_differ_only_in_cpu_seconds():
    same = [table_csv(MULT, cpu=1.0), table_csv(MULT, cpu=2.5)]
    assert failures(checks.check_identical, "convergence.csv", same, ignore="cpu_seconds") == []
    other = [table_csv(MULT), table_csv(MULT, slope=1.01)]
    assert failures(checks.check_identical, "convergence.csv", other, ignore="cpu_seconds")
    assert failures(checks.check_identical, "convergence.csv", same, ignore=None)


# ---------------------------------------------------------------------------
# backstop_prob.csv and moments_check.csv
# ---------------------------------------------------------------------------


def curve_csv(probs, n=48) -> str:
    rows = [milsde.BACKSTOP_CSV_HEADER]
    for rho, p in zip(BACKSTOP.rhos, probs):
        rows.append(f"{rho!r},{p!r},{(p * (1 - p) / n) ** 0.5!r}")
    return "\n".join(rows) + "\n"


def test_decaying_curve_passes():
    assert failures(checks.check_backstop, curve_csv([1.0, 0.5, 0.1, 0.0, 0.0]), BACKSTOP.rhos) == []


@pytest.mark.parametrize(
    "probs, word",
    [
        ([0.0, 0.0, 0.0, 0.0, 0.0], "not positive"),
        ([1.0, 0.5, 0.2, 0.1, 1 / 48], "not zero"),
        ([0.2, 0.1, 0.5, 0.0, 0.0], "rises"),
    ],
)
def test_bad_curve_fails(probs, word):
    assert any(word in f for f in failures(checks.check_backstop, curve_csv(probs), BACKSTOP.rhos))


def moments_csv(estimates, se=0.01) -> str:
    rows = ["order,signed_target,signed_estimate,signed_std_error,absolute_estimate,absolute_bound,passed"]
    for b, est in zip(BACKSTOP.moment_orders, estimates):
        rows.append(f"{b},{checks.LEVY_MOMENTS[b]!r},{est!r},{se!r},0.3,0.5,1")
    return "\n".join(rows) + "\n"


def test_moments_within_four_se_pass():
    text = moments_csv([0.039, 0.25 - 0.039, 0.0, 5 / 16 + 0.01])
    assert failures(checks.check_moments, text, BACKSTOP.moment_orders) == []


def test_changed_moment_target_fails():
    text = moments_csv([0.0, 0.25, 0.0, 5 / 16])
    wrong = {**checks.LEVY_MOMENTS, 2: 1.0 / 3.0}
    got = failures(checks.check_moments, text, BACKSTOP.moment_orders, targets=wrong)
    assert any("E[A^2] estimate" in f for f in got)
    assert any("constant" in f for f in got)


def test_moment_beyond_four_se_fails():
    text = moments_csv([0.0, 0.25 + 0.041, 0.0, 5 / 16])
    assert any("E[A^2]" in f for f in failures(checks.check_moments, text, BACKSTOP.moment_orders))


# ---------------------------------------------------------------------------
# Endpoints recomputed in plain Python
# ---------------------------------------------------------------------------

# Matched comparator steps, in fine units: one divides the horizon and
# one leaves a shorter last step.
COMPARATORS = [2.0**-8, 100 * 2.0**-14]


def test_noncomm_endpoints_match_on_another_seed():
    seed = base_seed(7) ^ 3
    plain = checks.plain_endpoints(NONCOMM, seed, COMPARATORS, milsde)
    program = checks.program_endpoints(NONCOMM, seed, COMPARATORS, milsde)
    assert failures(checks.check_endpoints, seed, plain, program) == []


def test_zero_levy_area_is_rejected():
    # Dropping the area is the wrong scheme on non-commutative noise:
    # every adaptive row and comparator must fail the endpoint check.
    seed = base_seed(0)
    plain = checks.plain_endpoints(NONCOMM, seed, COMPARATORS, milsde)
    program = checks.program_endpoints(NONCOMM, seed, COMPARATORS, milsde, zero_levy_area=True)
    got = failures(checks.check_endpoints, seed, plain, program)
    assert len(got) == len(NONCOMM.h_max_exponents) + len(COMPARATORS)


def test_untamed_reference_is_rejected():
    seed = base_seed(0)
    problem = milsde.make_builtin(NONCOMM.problem)
    path = milsde.generate_path(seed, NONCOMM.fine_exponent, problem.dim_noise)
    plain = checks.plain_endpoints(NONCOMM, seed, [], milsde)
    program = checks.program_endpoints(NONCOMM, seed, [], milsde)
    untamed = milsde.integrate_fixed(problem, "milstein", 2.0**-NONCOMM.reference_exponent, path)
    program["reference"] = (list(untamed.final_state), untamed.num_steps, 0)
    got = failures(checks.check_endpoints, seed, plain, program)
    assert len(got) == 1 and "reference" in got[0]


def test_mult_endpoints_match():
    seed = base_seed(0)
    comparators = [203 * 2.0**-20]
    plain = checks.plain_endpoints(MULT, seed, comparators, milsde)
    program = checks.program_endpoints(MULT, seed, comparators, milsde)
    assert failures(checks.check_endpoints, seed, plain, program) == []


def test_plain_controller_pins_large_states():
    # From |y| = 3 > rho the floor pins the first step, which runs the
    # tamed map; the program must agree step for step.
    seed = base_seed(2)
    problem = milsde.make_builtin("twod_noncommutative")
    wp = milsde.generate_path(seed, 12, 2)
    cfg = milsde.StrategyConfig(h_max=2.0**-6, rho=2.0)
    sol = milsde.integrate_adaptive(problem, cfg, wp)
    y, steps, backstops = checks.plain_adaptive(
        checks.MODELS["twod_noncommutative"](), 2.0**-6, 2.0, checks.Driving(wp.increments, wp.resolution)
    )
    assert backstops > 0
    assert (steps, backstops) == (sol.num_steps, int(sol.backstop_flags.sum()))
    assert max(abs(a - b) for a, b in zip(y, sol.final_state)) <= checks.ENDPOINT_RTOL


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------

SMALL_TABLE = [
    "convergence", "--problem", "twod_noncommutative", "--h-max", "2^-6..2^-4",
    "--rho", "4", "--schemes", "adaptive,milstein", "--reference-exponent", "8",
    "--fine-exponent", "12", "--paths", "2",
]


def test_tracer_counts_repeat_and_originals_come_back(tmp_path, capsys):
    originals = {m: vars(getattr(milsde, m)).copy() for m in tracing.MODULES}
    tracer = tracing.Tracer(reference_step=2.0**-8)
    per_unit = []
    for k in range(2):
        tracer.install()
        try:
            assert milsde.cli.main(SMALL_TABLE + ["--out-dir", str(tmp_path / str(k))]) == 0
        finally:
            tracer.uninstall()
        per_unit.append(tracing.layer_metrics(tracer.reset(), harness_paths=2))
    assert tracer.missing == []
    for m in tracing.MODULES:
        assert vars(getattr(milsde, m)) == originals[m]
    first, second = per_unit
    counts = [n for n in first if tracing.LAYER_UNITS[n].startswith("count")]
    assert {n: first[n] for n in counts} == {n: second[n] for n in counts}
    assert first["adaptive.reference.steps"] == 2 * 2**8
    assert first["harness.generate_per_path"] == 2.0
    assert first["steppers.advance_state.calls"] == (
        first["adaptive.reference.steps"]
        + first["adaptive.comparator.steps"]
        + first["adaptive.integrate_adaptive.steps"]
    )
    # Self times never exceed the span they belong to.
    assert 0.0 < first["adaptive.self_s"] < (
        first["adaptive.reference.s"] + first["adaptive.comparator.s"]
        + first["adaptive.integrate_adaptive.s"]
    )


def test_missing_function_is_reported(monkeypatch):
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + (("wiener", "no_such_function"),))
    tracer = tracing.Tracer(reference_step=None)
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == ["wiener.no_such_function"]


# ---------------------------------------------------------------------------
# Whole runs
# ---------------------------------------------------------------------------


def test_run_passes_its_checks_on_a_non_default_seed():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "noncomm_levy",
         "--seed", "5", "--seconds", "1", "--trace", "0"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > 3 * 24
    assert set(result["metrics"]) == {"paths_per_s", "cpu_s", "setup_s", "peak_rss_mb"}


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, str(tmp_path / HERE.name / "run.py"), "--workload", "mult_table",
         "--seed", "1", "--seconds", "10", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
