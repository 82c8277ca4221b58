"""Benchmark entry point: one run of one workload, or of all of them.

    python3 perfbench/run.py --workload mult_table --seed 0 --seconds 40 --trace 0

Run from the repository root. A run

1. times the set-up of fresh processes (interpreter start until
   `milsde.cli` is imported) several times and keeps the median;
2. starts the workload process (unit.py), which repeats the workload's
   unit for ``--seconds`` and reports each unit's wall and CPU time;
3. checks every unit's outputs, and the first paths of each table
   against a plain-Python recomputation, outside the timed region;
4. prints one JSON line: ``correct``, ``attempted``, ``failed`` and the
   end-to-end metrics (``--trace 0``) or the per-layer metrics
   (``--trace 1``).

It exits 2 without a result when milsde's sources are not next to it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
from tracing import LAYER_UNITS
from workloads import WORKLOADS, TableSpec, base_seed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_SAMPLES = 7
SETUP_TIMEOUT_S = 30.0
# A run must end within 180 s; the workload process gets what the
# set-up probes and the checks leave.
RUN_BUDGET_S = 170.0
CHECK_RESERVE_S = 25.0

PROBE = (
    "import sys, milsde.cli; "
    "sys.stdout.write(milsde.cli.__file__ + '\\n'); sys.stdout.flush()"
)


def _env() -> dict[str, str]:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def _from_src(module_file: str) -> bool:
    return Path(module_file.strip()).resolve().is_relative_to(SRC)


def measure_setup() -> list[float]:
    """Seconds from spawning a fresh interpreter until milsde is imported."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, "-c", PROBE],
            cwd=ROOT, env=_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        ) as p:
            line = p.stdout.readline()
            elapsed = time.perf_counter() - t0
            try:
                _, err = p.communicate(timeout=SETUP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                p.kill()
                p.communicate()
                raise RuntimeError("set-up probe did not exit")
        if p.returncode != 0 or not line or not _from_src(line):
            raise RuntimeError(f"cannot import milsde from {SRC}: {err.strip() or line.strip()}")
        samples.append(elapsed)
    return samples


def run_workload(name: str, seed: int, seconds: float, trace: int, out: Path, deadline: float) -> dict:
    cmd = [
        sys.executable, str(HERE / "unit.py"),
        "--workload", name, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace), "--out", str(out),
    ]
    with subprocess.Popen(cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE, text=True) as p:
        try:
            stdout, _ = p.communicate(timeout=max(1.0, deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            p.kill()
            p.communicate()
            raise RuntimeError("workload process overran the run's time budget")
    lines = stdout.strip().splitlines()
    if p.returncode != 0 or len(lines) < 2 or lines[0] != "ready":
        raise RuntimeError(f"workload process exited {p.returncode}")
    return json.loads(lines[-1])


def check_outputs(workload, units: list[dict], seed: int):
    """Runs every output check; returns (tally, failed paths)."""
    # Imported only now: the set-up probes have shown it is in SRC.
    sys.path.insert(0, str(SRC))
    import milsde

    tally = checks.Tally()
    spec = workload.spec
    failed_paths = 0
    done = []
    for u in units:
        if any(code != 0 for code in u["codes"]):
            failed_paths += workload.paths_per_unit
            tally.check(False, f"unit in {u['dir']} exited with {u['codes']}")
        else:
            done.append(Path(u["dir"]))
    if not done:
        return tally, failed_paths

    def texts(name: str) -> list[str]:
        return [(d / name).read_text() for d in done]

    if isinstance(spec, TableSpec):
        tables = texts("convergence.csv")
        checks.check_identical(tally, "convergence.csv", tables, ignore="cpu_seconds")
        for text in tables:
            failed_paths += checks.check_table(tally, text, spec)
        comparators = checks.comparator_steps(tables[0], spec.fixed_scheme)
        base = base_seed(seed)
        for k in range(spec.check_paths):
            path_seed = base ^ k  # milsde's seed for path k
            plain = checks.plain_endpoints(spec, path_seed, comparators, milsde)
            program = checks.program_endpoints(spec, path_seed, comparators, milsde)
            checks.check_endpoints(tally, path_seed, plain, program)
    else:
        for name in ("backstop_prob.csv", "backstop_h_profile.csv", "moments_check.csv"):
            checks.check_identical(tally, name, texts(name), ignore=None)
        for text in texts("backstop_prob.csv"):
            checks.check_backstop(tally, text, spec.rhos)
        for text in texts("moments_check.csv"):
            checks.check_moments(tally, text, spec.moment_orders)
    return tally, failed_paths


def run_one(workload, seed: int, seconds: float, trace: int) -> dict:
    """One run of one workload; returns the result object."""
    deadline = time.perf_counter() + RUN_BUDGET_S - CHECK_RESERVE_S
    out = OUT / f"{workload.name}-{os.getpid()}"
    shutil.rmtree(out, ignore_errors=True)
    try:
        setup = measure_setup()
        result = run_workload(workload.name, seed, seconds, trace, out, deadline)
        units = result["units"]
        tally, failed_paths = check_outputs(workload, units, seed)
    except BaseException:
        shutil.rmtree(out, ignore_errors=True)
        raise
    # Outputs stay for inspection when a check failed.
    if not tally.failures:
        shutil.rmtree(out, ignore_errors=True)
        if OUT.is_dir() and not any(OUT.iterdir()):
            OUT.rmdir()

    paths = workload.paths_per_unit
    plain = [u for u in units if not u["traced"]]
    wall = statistics.median(u["wall"] for u in plain)
    if trace:
        traced = [u for u in units if u["traced"]]
        traced_wall = statistics.median(u["wall"] for u in traced)
        layers = {
            name: statistics.median(u["layers"][name] for u in traced)
            for name in traced[0]["layers"]
        }
        layers["trace.paths_per_s"] = paths / traced_wall
        layers["trace.overhead_pct"] = 100.0 * (traced_wall / wall - 1.0)
        metrics = {name: {"value": v, "unit": LAYER_UNITS[name]} for name, v in layers.items()}
        for name in result["missing"]:
            print(f"traced function missing: {name}", file=sys.stderr)
    else:
        metrics = {
            "paths_per_s": {"value": paths / wall, "unit": "1/s"},
            "cpu_s": {"value": statistics.median(u["cpu"] for u in plain), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }

    for line in tally.failures:
        print(f"check failed: {line}", file=sys.stderr)
    print(
        f"{workload.name}: {len(units)} units of {paths} paths, "
        f"{tally.attempted} checks, {failed_paths} failed paths, {tally.failed} failed checks",
        file=sys.stderr,
    )
    return {
        "correct": tally.failed == 0 and failed_paths == 0,
        "attempted": len(units) * paths + tally.attempted,
        "failed": failed_paths + tally.failed,
        "metrics": metrics,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="Run benchmark workloads.")
    parser.add_argument(
        "--workload", required=True, choices=sorted(WORKLOADS) + ["all"],
        help="one workload, or all of them in turn",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {
            name: run_one(WORKLOADS[name], args.seed, args.seconds, args.trace)
            for name in names
        }
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        for name, result in results.items():
            print(f"{name}: correct {result['correct']}, "
                  f"{result['failed']} of {result['attempted']} operations failed")
            for metric, m in result["metrics"].items():
                print(f"  {metric} {m['value']:.6g} {m['unit']}")
    else:
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
