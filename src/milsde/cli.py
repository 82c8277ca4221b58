"""Experiment front end.

Five subcommands: ``convergence``, ``efficiency``, ``backstop-prob``,
``single-path``, ``moments-check``. Configuration comes from three
layers: built-in defaults, then an optional ``key = value`` config file
(``#`` starts a comment), then command-line flags; later layers win key
by key. Every run writes the fully resolved configuration next to its
outputs as ``<command>_config.txt``, and that file can be fed back via
``--config`` to reproduce the run bit for bit (timing columns aside).

Dyadic step sizes can be written ``2^-12``, and h_max grids as a range
``2^-12..2^-8`` (all experiment grids are dyadic) or a comma list.

Exit codes: 0 success, 1 experiment failure (including a failed
moments check), 2 configuration/usage error.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from pathlib import Path

from .adaptive import StrategyConfig, integrate_adaptive, integrate_fixed
from .errors import ExperimentError, ResourceError, UsageError
from .harness import (
    DEFAULT_BASE_SEED,
    ExperimentConfig,
    backstop_probability,
    convergence_table,
)
from .problems import BUILTIN_NAMES, make_builtin
from .steppers import check_scheme
from .wiener import generate_path, moment_check

__all__ = ["main"]


def _parse_dyadic(token: str) -> float:
    token = token.strip()
    m = re.fullmatch(r"2\^(-?\d+)", token)
    if m:
        return 2.0 ** int(m.group(1))
    try:
        return float(token)
    except ValueError:
        raise UsageError(f"cannot parse {token!r} as a number (use e.g. 0.25 or 2^-2)")


def _dyadic_exponent(token: str) -> int:
    m = re.fullmatch(r"2\^(-?\d+)", token.strip())
    if m is None:
        raise UsageError(
            f"range endpoints must be dyadic like 2^-12, got {token.strip()!r}"
        )
    return int(m.group(1))


def _parse_h_values(token: str) -> tuple[float, ...]:
    token = token.strip()
    if ".." in token:
        lo, hi = token.split("..", 1)
        a, b = _dyadic_exponent(lo), _dyadic_exponent(hi)
        step = 1 if b >= a else -1
        return tuple(2.0**e for e in range(a, b + step, step))
    return tuple(_parse_dyadic(t) for t in token.split(","))


def _parse_float_list(token: str) -> tuple[float, ...]:
    return tuple(_parse_dyadic(t) for t in token.split(","))


def _parse_int(token: str) -> int:
    try:
        return int(token.strip())
    except ValueError:
        raise UsageError(f"cannot parse {token!r} as an integer")


def _parse_int_list(token: str) -> tuple[int, ...]:
    return tuple(_parse_int(t) for t in token.split(","))


def _parse_problem(token: str) -> str:
    name = token.strip()
    if name not in BUILTIN_NAMES:
        raise UsageError(
            f"unknown problem {name!r}; built-ins: {', '.join(BUILTIN_NAMES)}"
        )
    return name


def _parse_scheme(token: str) -> str:
    return check_scheme(token.strip(), adaptive=True)


def _parse_scheme_list(token: str) -> tuple[str, ...]:
    return tuple(_parse_scheme(t) for t in token.split(","))


def _parse_delta(token: str) -> float | None:
    token = token.strip()
    if token.lower() == "none":
        return None
    return _parse_dyadic(token)


# One table per command: each configuration key with its parser and its
# default, in the order the resolved configuration is written. Flag names
# are the keys with underscores turned into dashes; the same keys work in
# config files. Defaults are kept as strings: resolution merges strings,
# the resolved log writes them back verbatim, and reloading the log
# reproduces the exact same parsed values.
_SEED = (_parse_int, str(DEFAULT_BASE_SEED))
_DELTA = (_parse_delta, "none")

_TABLE_OPTIONS = {
    "problem": (_parse_problem, "scalar_mult"),
    "schemes": (_parse_scheme_list, "adaptive"),
    "h_max": (_parse_h_values, "2^-12..2^-8"),
    "rho": (_parse_dyadic, "16"),
    "paths": (_parse_int, "100"),
    "reference_exponent": (_parse_int, "16"),
    "fine_exponent": (_parse_int, "20"),
    "seed": _SEED,
    "delta": _DELTA,
    "workers": (_parse_int, "1"),
}

_OPTIONS: dict[str, dict[str, tuple]] = {
    "convergence": _TABLE_OPTIONS,
    "efficiency": _TABLE_OPTIONS,
    "backstop-prob": {
        "problem": (_parse_problem, "scalar_probe"),
        "rho": (_parse_float_list, "2,3,4,5,6"),
        "h_max": (_parse_dyadic, "2^-8"),
        "paths": (_parse_int, "100"),
        "fine_exponent": (_parse_int, "16"),
        "seed": _SEED,
        "delta": _DELTA,
        "workers": (_parse_int, "1"),
    },
    "single-path": {
        "problem": (_parse_problem, "scalar_probe"),
        "scheme": (_parse_scheme, "adaptive"),
        "rho": (_parse_dyadic, "2"),
        "h_max": (_parse_dyadic, "2^-8"),
        "seed": _SEED,
        "fine_exponent": (_parse_int, "16"),
        "delta": _DELTA,
    },
    "moments-check": {
        "order": (_parse_int_list, "1,2,3,4"),
        "samples": (_parse_int, "10000"),
        "fine_exponent": (_parse_int, "12"),
        "seed": _SEED,
    },
}


def _read_config_file(path: str) -> dict[str, str]:
    p = Path(path)
    if not p.is_file():
        raise UsageError(f"config file {path!r} not found")
    out: dict[str, str] = {}
    for lineno, raw in enumerate(p.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _resolve(command: str, args: argparse.Namespace) -> tuple[dict, dict[str, str]]:
    """Merge defaults, config file, and flags; return (parsed values,
    merged raw strings)."""
    options = _OPTIONS[command]
    merged = {key: default for key, (_, default) in options.items()}
    if args.config is not None:
        for key, value in _read_config_file(args.config).items():
            if key not in options:
                raise UsageError(
                    f"unknown config key {key!r} for {command}; "
                    f"known keys: {', '.join(options)}"
                )
            merged[key] = value
    for key in options:
        flag_value = getattr(args, key)
        if flag_value is not None:
            merged[key] = flag_value
    values = {key: parse(merged[key]) for key, (parse, _) in options.items()}
    return values, merged


def _write_resolved(command: str, merged: dict[str, str], out_dir: Path) -> Path:
    path = out_dir / f"{command.replace('-', '_')}_config.txt"
    with open(path, "w") as f:
        f.write(f"# resolved configuration for: {command}\n")
        for key, value in merged.items():
            f.write(f"{key} = {value}\n")
    return path


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="milsde",
        description="Adaptive Milstein SDE experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    help_text = {
        "problem": "built-in problem name",
        "schemes": "comma list of schemes (adaptive, milstein, tamed, euler)",
        "h_max": "step ceiling(s); dyadic range 2^-12..2^-8 or comma list",
        "rho": "step ratio h_max/h_min (comma list for backstop-prob)",
        "paths": "number of Monte Carlo paths",
        "reference_exponent": "reference mesh is T*2^-this",
        "fine_exponent": "driving-path mesh is T*2^-this",
        "seed": "base seed (path k uses base^k)",
        "delta": "path-bound scale, 'none' for h_max",
        "workers": "worker processes",
        "scheme": "integration scheme for the single path",
        "order": "comma list of moment orders",
        "samples": "number of Monte Carlo windows",
    }
    for command, options in _OPTIONS.items():
        p = sub.add_parser(command, help=f"run the {command} experiment")
        p.add_argument("--config", default=None, help="key = value config file")
        p.add_argument("--out-dir", default=".", help="output directory")
        for key in options:
            p.add_argument(
                "--" + key.replace("_", "-"),
                dest=key,
                default=None,
                metavar="V",
                help=help_text[key],
            )
    return parser


def _run_table_command(command: str, values: dict, out_dir: Path) -> int:
    config = ExperimentConfig(
        problem=values["problem"],
        h_max_values=values["h_max"],
        rho=values["rho"],
        schemes=values["schemes"],
        num_paths=values["paths"],
        reference_exponent=values["reference_exponent"],
        fine_exponent=values["fine_exponent"],
        base_seed=values["seed"],
        delta=values["delta"],
        workers=values["workers"],
    )
    table = convergence_table(config)
    csv_path = out_dir / f"{command}.csv"
    with open(csv_path, "w") as f:
        table.to_csv(f)
    print(f"wrote {csv_path}")
    if command == "efficiency":
        for scheme, rms, cpu in table.frontier():
            print(f"  {scheme}: rms {rms:.3e} at {cpu:.2f} s")
    else:
        for scheme, slope in table.slopes().items():
            print(f"  {scheme}: fitted slope {slope:.3f}")
    print(f"  reference integration: {table.reference_seconds:.2f} s (not in rows)")
    print(f"  path generation: {table.generation_seconds:.2f} s (not in rows)")
    return 0


def _run_backstop(values: dict, out_dir: Path) -> int:
    curve = backstop_probability(
        values["problem"],
        rho_values=values["rho"],
        h_max=values["h_max"],
        num_paths=values["paths"],
        fine_exponent=values["fine_exponent"],
        base_seed=values["seed"],
        delta=values["delta"],
        workers=values["workers"],
    )
    csv_path = out_dir / "backstop_prob.csv"
    with open(csv_path, "w") as f:
        curve.to_csv(f)
    profile_path = out_dir / "backstop_h_profile.csv"
    with open(profile_path, "w") as f:
        curve.profiles_to_csv(f)
    print(f"wrote {csv_path}")
    print(f"wrote {profile_path}")
    for p in curve.points:
        print(f"  rho {p.rho:g}: trigger probability {p.prob:.3f} "
              f"(se {p.prob_std_error:.3f})")
    return 0


def _run_single_path(values: dict, out_dir: Path) -> int:
    problem = make_builtin(values["problem"])
    path = generate_path(
        values["seed"], values["fine_exponent"], problem.dim_noise, problem.horizon
    )
    if values["scheme"] == "adaptive":
        cfg = StrategyConfig(
            h_max=values["h_max"], rho=values["rho"], delta=values["delta"]
        )
        sol = integrate_adaptive(problem, cfg, path)
    else:
        # Fixed schemes step at h_max itself.
        sol = integrate_fixed(problem, values["scheme"], values["h_max"], path)
    csv_path = out_dir / "single_path.csv"
    with open(csv_path, "w") as f:
        sol.to_csv(f)
    print(f"wrote {csv_path}")
    flagged = int(sol.backstop_flags.sum())
    state = ", ".join(f"{v:.6g}" for v in sol.final_state)
    print(f"  {sol.num_steps} steps, {flagged} backstop, final state [{state}]")
    if sol.divergent:
        print("  warning: path diverged before the horizon", file=sys.stderr)
        return 1
    return 0


def _run_moments(values: dict, out_dir: Path) -> int:
    rows = moment_check(
        orders=values["order"],
        num_windows=values["samples"],
        resolution_exponent=values["fine_exponent"],
        base_seed=values["seed"],
    )
    csv_path = out_dir / "moments_check.csv"
    with open(csv_path, "w") as f:
        f.write(
            "order,signed_target,signed_estimate,signed_std_error,"
            "absolute_estimate,absolute_bound,passed\n"
        )
        for r in rows:
            f.write(
                f"{r.order},{float(r.signed_target):.17g},"
                f"{r.signed_estimate:.17g},{r.signed_std_error:.17g},"
                f"{r.absolute_estimate:.17g},{float(r.absolute_bound):.17g},"
                f"{int(r.passed)}\n"
            )
    print(f"wrote {csv_path}")
    all_ok = True
    for r in rows:
        z = (
            abs(r.signed_estimate - float(r.signed_target)) / r.signed_std_error
            if r.signed_std_error > 0
            else 0.0
        )
        verdict = "PASS" if r.passed else "FAIL"
        print(
            f"  order {r.order}: estimate {r.signed_estimate:+.6f} "
            f"target {float(r.signed_target):+.6f} |z| {z:.2f} "
            f"E|A|^b {r.absolute_estimate:.6f} <= {float(r.absolute_bound):.6f} "
            f"-> {verdict}"
        )
        all_ok = all_ok and r.passed
    if not all_ok:
        print("moment check failed", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        values, merged = _resolve(args.command, args)
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        resolved = _write_resolved(args.command, merged, out_dir)
        print(f"wrote {resolved}")
        if args.command in ("convergence", "efficiency"):
            return _run_table_command(args.command, values, out_dir)
        if args.command == "backstop-prob":
            return _run_backstop(values, out_dir)
        if args.command == "single-path":
            return _run_single_path(values, out_dir)
        return _run_moments(values, out_dir)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ExperimentError, ResourceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
