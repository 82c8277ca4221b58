import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from milsde import BACKSTOP_CSV_HEADER, CSV_HEADER
from milsde.cli import (
    _build_parser,
    _parse_dyadic,
    _parse_h_values,
    _parse_scheme,
    _resolve,
    _write_resolved,
    main,
)
from milsde.errors import UsageError

TINY = [
    "--problem",
    "scalar_add",
    "--schemes",
    "adaptive,euler",
    "--h-max",
    "2^-4,2^-5",
    "--rho",
    "8",
    "--paths",
    "4",
    "--reference-exponent",
    "8",
    "--fine-exponent",
    "12",
]


def _read_config(path):
    out = {}
    for line in path.read_text().splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out


# ---------------------------------------------------------------------------
# Value parsers
# ---------------------------------------------------------------------------


def test_parse_dyadic():
    assert _parse_dyadic("2^-12") == 2.0**-12
    assert _parse_dyadic(" 2^3 ") == 8.0
    assert _parse_dyadic("0.25") == 0.25
    assert _parse_dyadic("1e-3") == 1e-3
    with pytest.raises(UsageError):
        _parse_dyadic("2^^3")
    with pytest.raises(UsageError):
        _parse_dyadic("step")


@given(st.integers(min_value=-40, max_value=40))
def test_parse_dyadic_exact_round_trip(e):
    assert _parse_dyadic(f"2^{e}") == 2.0**e


def test_parse_h_ranges():
    assert _parse_h_values("2^-12..2^-8") == tuple(
        2.0**e for e in range(-12, -7)
    )
    assert _parse_h_values("2^-8..2^-12") == tuple(
        2.0**e for e in range(-8, -13, -1)
    )
    assert _parse_h_values("2^-4") == (2.0**-4,)
    assert _parse_h_values("0.25, 2^-3") == (0.25, 0.125)
    with pytest.raises(UsageError, match="dyadic"):
        _parse_h_values("2^-12..0.3")


def test_parse_scheme():
    assert _parse_scheme("adaptive") == "adaptive"
    assert _parse_scheme(" euler ") == "euler"
    with pytest.raises(UsageError, match="reserved"):
        _parse_scheme("pmil")
    with pytest.raises(UsageError, match="unknown"):
        _parse_scheme("heun")


# ---------------------------------------------------------------------------
# Convergence command and config resolution
# ---------------------------------------------------------------------------


def test_convergence_run_writes_outputs(tmp_path):
    assert main(["convergence", "--out-dir", str(tmp_path)] + TINY) == 0
    csv = tmp_path / "convergence.csv"
    lines = csv.read_text().strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 4  # 2 schemes x 2 ceilings
    resolved = _read_config(tmp_path / "convergence_config.txt")
    # the resolved log covers every key, including untouched defaults
    assert set(resolved) == {
        "problem",
        "schemes",
        "h_max",
        "rho",
        "paths",
        "reference_exponent",
        "fine_exponent",
        "seed",
        "delta",
        "workers",
    }
    assert resolved["problem"] == "scalar_add"
    assert resolved["h_max"] == "2^-4,2^-5"
    assert resolved["seed"] == "12345"
    assert resolved["delta"] == "none"


_TABLE_DEFAULTS = """\
problem = scalar_mult
schemes = adaptive
h_max = 2^-12..2^-8
rho = 16
paths = 100
reference_exponent = 16
fine_exponent = 20
seed = 12345
delta = none
workers = 1
"""

DEFAULT_CONFIGS = {
    "convergence": _TABLE_DEFAULTS,
    "efficiency": _TABLE_DEFAULTS,
    "backstop-prob": """\
problem = scalar_probe
rho = 2,3,4,5,6
h_max = 2^-8
paths = 100
fine_exponent = 16
seed = 12345
delta = none
workers = 1
""",
    "single-path": """\
problem = scalar_probe
scheme = adaptive
rho = 2
h_max = 2^-8
seed = 12345
fine_exponent = 16
delta = none
""",
    "moments-check": """\
order = 1,2,3,4
samples = 10000
fine_exponent = 12
seed = 12345
""",
}


@pytest.mark.parametrize("command", sorted(DEFAULT_CONFIGS))
def test_default_resolved_config_of_every_command(command, tmp_path):
    # With no flags and no config file, each command resolves and writes
    # exactly its defaults, in this order; no experiment runs.
    _, merged = _resolve(command, _build_parser().parse_args([command]))
    path = _write_resolved(command, merged, tmp_path)
    assert path.name == command.replace("-", "_") + "_config.txt"
    assert path.read_text() == (
        f"# resolved configuration for: {command}\n" + DEFAULT_CONFIGS[command]
    )


def test_resolved_config_reproduces_run(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert main(["convergence", "--out-dir", str(a)] + TINY) == 0
    assert (
        main(
            [
                "convergence",
                "--config",
                str(a / "convergence_config.txt"),
                "--out-dir",
                str(b),
            ]
        )
        == 0
    )
    assert (a / "convergence_config.txt").read_text() == (
        b / "convergence_config.txt"
    ).read_text()
    rows_a = (a / "convergence.csv").read_text().strip().split("\n")
    rows_b = (b / "convergence.csv").read_text().strip().split("\n")
    assert len(rows_a) == len(rows_b)
    for ra, rb in zip(rows_a[1:], rows_b[1:]):
        ta, tb = ra.split(","), rb.split(",")
        # everything but the timing column reproduces bit for bit
        assert ta[:5] == tb[:5]
        assert ta[6:] == tb[6:]


def test_flag_beats_file_beats_default(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("# comment line\npaths = 6\nrho = 4\n")
    out = tmp_path / "out"
    code = main(
        [
            "convergence",
            "--config",
            str(cfg),
            "--out-dir",
            str(out),
            "--paths",
            "8",
            "--problem",
            "scalar_add",
            "--h-max",
            "2^-4",
            "--reference-exponent",
            "8",
            "--fine-exponent",
            "12",
        ]
    )
    assert code == 0
    resolved = _read_config(out / "convergence_config.txt")
    assert resolved["paths"] == "8"  # flag wins over file
    assert resolved["rho"] == "4"  # file wins over default
    assert resolved["schemes"] == "adaptive"  # untouched default


def test_usage_errors_exit_2(tmp_path):
    out = ["--out-dir", str(tmp_path)]
    assert main(["convergence", "--problem", "lorenz"] + out) == 2
    assert main(["convergence", "--schemes", "pmil"] + out) == 2
    assert main(["convergence", "--h-max", "2^-12..0.3"] + out) == 2
    assert main(["convergence", "--h-max", "2^-4,2^-4"] + out) == 2
    small = ["--paths", "4", "--fine-exponent", "12"]
    assert main(["backstop-prob", "--rho", "2,3,2"] + small + out) == 2
    assert main(["convergence", "--config", str(tmp_path / "missing.cfg")] + out) == 2
    bad = tmp_path / "bad.cfg"
    bad.write_text("colour = blue\n")
    assert main(["convergence", "--config", str(bad)] + out) == 2
    noeq = tmp_path / "noeq.cfg"
    noeq.write_text("just some words\n")
    assert main(["convergence", "--config", str(noeq)] + out) == 2


def test_backstop_prob_fewer_than_one_worker_exits_2(tmp_path, capsys):
    # backstop-prob ran serially on --workers 0 or -3 and exited 0, where
    # the tables exit 2.
    out = ["--out-dir", str(tmp_path), "--paths", "4", "--fine-exponent", "12"]
    for workers in ("0", "-3"):
        assert main(["backstop-prob", f"--workers={workers}"] + out) == 2, workers
        assert "workers must be at least 1" in capsys.readouterr().err


def test_single_path_non_finite_step_exits_2(tmp_path, capsys):
    # A fixed scheme steps at h_max; nan and inf used to escape the step
    # check as ValueError and OverflowError, with a traceback and exit 1.
    out = ["--out-dir", str(tmp_path), "--scheme", "euler"]
    for h_max in ("nan", "inf"):
        assert main(["single-path", "--h-max", h_max] + out) == 2, h_max
        assert "error:" in capsys.readouterr().err


def test_argparse_surface():
    with pytest.raises(SystemExit) as info:
        main(["--help"])
    assert info.value.code == 0
    with pytest.raises(SystemExit):
        main([])
    with pytest.raises(SystemExit):
        main(["warp"])


# ---------------------------------------------------------------------------
# Other commands
# ---------------------------------------------------------------------------


def test_backstop_prob_command(tmp_path):
    code = main(
        [
            "backstop-prob",
            "--out-dir",
            str(tmp_path),
            "--problem",
            "scalar_mult",
            "--rho",
            "2,4",
            "--h-max",
            "2^-8",
            "--paths",
            "6",
            "--fine-exponent",
            "14",
        ]
    )
    assert code == 0
    lines = (tmp_path / "backstop_prob.csv").read_text().strip().split("\n")
    assert lines[0] == BACKSTOP_CSV_HEADER
    assert len(lines) == 3
    rho, prob, se = lines[1].split(",")
    assert (float(rho), float(prob), float(se)) == (2.0, 1.0, 0.0)
    profile = (tmp_path / "backstop_h_profile.csv").read_text()
    assert profile.startswith("rho,step_index,h_mean,h_var,num_paths\n")
    assert (tmp_path / "backstop_prob_config.txt").is_file()


def test_single_path_is_reproducible(tmp_path):
    args = [
        "single-path",
        "--problem",
        "scalar_mult",
        "--scheme",
        "adaptive",
        "--rho",
        "4",
        "--h-max",
        "2^-6",
        "--fine-exponent",
        "12",
    ]
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert main(args + ["--out-dir", str(a)]) == 0
    assert main(args + ["--out-dir", str(b)]) == 0
    text = (a / "single_path.csv").read_text()
    assert text == (b / "single_path.csv").read_text()
    lines = text.strip().split("\n")
    assert lines[0] == "t,y0,backstop"
    first = lines[1].split(",")
    last = lines[-1].split(",")
    assert float(first[0]) == 0.0 and float(first[1]) == 2.0
    assert float(last[0]) == 1.0
    assert all(line.split(",")[2] in ("0", "1") for line in lines[1:])


def test_single_path_fixed_scheme(tmp_path):
    code = main(
        [
            "single-path",
            "--out-dir",
            str(tmp_path),
            "--problem",
            "scalar_add",
            "--scheme",
            "milstein",
            "--h-max",
            "2^-4",
            "--fine-exponent",
            "10",
        ]
    )
    assert code == 0
    lines = (tmp_path / "single_path.csv").read_text().strip().split("\n")
    assert len(lines) == 1 + 17  # uniform mesh of 16 steps
    times = [float(line.split(",")[0]) for line in lines[1:]]
    assert times == [k / 16 for k in range(17)]


def test_moments_check_pass_and_fail(tmp_path):
    ok = main(
        [
            "moments-check",
            "--out-dir",
            str(tmp_path),
            "--order",
            "2",
            "--samples",
            "600",
            "--fine-exponent",
            "8",
        ]
    )
    assert ok == 0
    lines = (tmp_path / "moments_check.csv").read_text().strip().split("\n")
    assert lines[0] == (
        "order,signed_target,signed_estimate,signed_std_error,"
        "absolute_estimate,absolute_bound,passed"
    )
    toks = lines[1].split(",")
    assert toks[0] == "2" and toks[6] == "1"
    assert math.isclose(float(toks[1]), 0.25)
    # order 4 at this sample count sits outside the tolerance band:
    # the command must propagate the failure as exit code 1
    fail = main(
        [
            "moments-check",
            "--out-dir",
            str(tmp_path),
            "--order",
            "4",
            "--samples",
            "3000",
            "--fine-exponent",
            "8",
        ]
    )
    assert fail == 1


def test_out_of_range_fine_exponent_exits_2(tmp_path):
    # The tables bounded the exponent, but the curve and the moment check
    # took any and crashed, or tried to allocate the whole grid. Both
    # share the bound 1 <= L <= 30 now; 31 is the first level past it.
    out = ["--out-dir", str(tmp_path)]
    for command in ("backstop-prob", "moments-check"):
        for level in ("70", "31", "0"):
            assert main([command, "--fine-exponent", level] + out) == 2, (command, level)


def test_single_path_fine_exponent_past_the_bound_exits_2(tmp_path):
    # single-path was bounded only by the path budget, so 31 ended in a
    # resource error (exit 1); it shares the 1 <= L <= 30 bound now. The
    # bound is checked before any path is allocated.
    out = ["--out-dir", str(tmp_path)]
    for scheme in ([], ["--scheme", "milstein"]):
        assert main(["single-path", "--fine-exponent", "31"] + scheme + out) == 2, scheme
