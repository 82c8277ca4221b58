"""Workload process: import milsde once, then repeat one workload's unit.

Started fresh by run.py for every run. It prints ``ready`` once milsde
is imported, runs the unit (one complete `milsde` experiment through
`milsde.cli.main`) until the run's length is used up, and prints one
JSON line with the wall and CPU seconds of each unit, the process's
peak memory and, in a traced run, the span totals of each traced unit.

In a traced run, units alternate untraced and traced so that the
tracing overhead is measured against units of the same run.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

import milsde.cli  # noqa: E402  set-up ends once this import is done

from tracing import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_UNTRACED_UNITS = 3
MIN_TRACED_UNITS = 2


def _cpu_seconds() -> float:
    # Pool workers are reaped when the pool shuts down inside the unit,
    # so their CPU time lands in RUSAGE_CHILDREN before the unit ends.
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        r = resource.getrusage(who)
        total += r.ru_utime + r.ru_stime
    return total


def _peak_rss_mb() -> float:
    # VmHWM is this process's own peak. ru_maxrss of RUSAGE_SELF would
    # also count what the spawning process held before exec. Both are in
    # KiB; RUSAGE_CHILDREN gives the largest reaped pool worker.
    own = None
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    own = int(line.split()[1])
    except OSError:
        pass
    if own is None:
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return (own + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0


def run_unit(commands: list[list[str]], out_dir: Path) -> dict:
    out_dir.mkdir(parents=True)
    codes = []
    with open(out_dir / "cli_output.txt", "w") as log:
        t0 = time.perf_counter()
        c0 = _cpu_seconds()
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            for argv in commands:
                codes.append(milsde.cli.main(argv + ["--out-dir", str(out_dir)]))
        wall = time.perf_counter() - t0
        cpu = _cpu_seconds() - c0
    return {"dir": str(out_dir), "wall": wall, "cpu": cpu, "codes": codes}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    out = Path(args.out)
    tracer = Tracer(workload.reference_step) if args.trace else None
    # A traced run uses the traced pool size for every unit, so that the
    # untraced units it compares against do the same work.
    commands = workload.commands(args.seed, traced=bool(args.trace))
    print("ready", flush=True)

    units = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(units) % 2 == 1
        if traced:
            tracer.install()
        try:
            unit = run_unit(commands, out / f"unit{len(units):03d}")
        finally:
            if traced:
                tracer.uninstall()
        unit["traced"] = traced
        if traced:
            # Every table or curve path goes through milsde.harness.
            unit["layers"] = layer_metrics(tracer.reset(), workload.spec.paths)
        units.append(unit)

        n_traced = sum(u["traced"] for u in units)
        enough = len(units) - n_traced >= MIN_UNTRACED_UNITS and (
            tracer is None or n_traced >= MIN_TRACED_UNITS
        )
        # Stop before a unit that would overrun the run's length.
        typical = statistics.median(u["wall"] for u in units)
        if enough and time.perf_counter() - start + typical > args.seconds:
            break

    print(json.dumps({
        "units": units,
        "peak_rss_mb": _peak_rss_mb(),
        "missing": tracer.missing if tracer else [],
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
